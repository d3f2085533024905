package metrics

import (
	"fmt"
	"strings"
)

// Helpers only the tests call: no production path renders a speedup
// table, needs a ladder rung's label, or counts through these adders.

// SpeedupRow is one line of a figure-style comparison.
type SpeedupRow struct {
	Name     string
	Baseline float64 // e.g. Tutel iteration seconds
	Value    float64 // e.g. Janus iteration seconds
}

// Speedup returns Baseline/Value (higher is better for the new system).
func (r SpeedupRow) Speedup() float64 {
	if r.Value == 0 {
		return 0
	}
	return r.Baseline / r.Value
}

// FormatSpeedupTable renders rows as an aligned ASCII table.
func FormatSpeedupTable(title string, rows []SpeedupRow, baselineLabel, valueLabel string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := len("config")
	for _, r := range rows {
		if len(r.Name) > w {
			w = len(r.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s  %12s  %12s  %8s\n", w, "config", baselineLabel, valueLabel, "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %10.1fms  %10.1fms  %7.2fx\n",
			w, r.Name, r.Baseline*1e3, r.Value*1e3, r.Speedup())
	}
	return b.String()
}

// RungName returns the short human label of a ladder rung.
func RungName(r int) string {
	switch r {
	case RungFull:
		return "full"
	case RungReplica:
		return "replica"
	case RungStale:
		return "stale"
	case RungTop1:
		return "top1"
	case RungShed:
		return "shed"
	}
	return fmt.Sprintf("rung%d", r)
}

// AddGradDup records one deduplicated gradient retransmit.
func (r *Robustness) AddGradDup() { r.gradDups.Add(1) }

// AddDegradedStep records one iteration completed in degraded mode.
func (r *Robustness) AddDegradedStep() { r.degradedSteps.Add(1) }

// AddMicrobatch records one executed (worker, microbatch) piece.
func (p *Pipeline) AddMicrobatch() { p.microbatches.Add(1) }

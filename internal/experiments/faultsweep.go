package experiments

import (
	"fmt"
	"strings"
	"time"

	"janus/internal/faultinject"
	"janus/internal/livecluster"
)

// FaultSweepRow is one live training step of the fault sweep.
type FaultSweepRow struct {
	Step         int
	WallMs       float64
	Degraded     bool
	StaleFetches int64
	DroppedGrads int64
	Retries      int64
	Timeouts     int64
	Reconnects   int64
	// ECStalled marks steps a synchronous expert-centric iteration
	// could not have completed: its All-to-All needs every machine, so
	// the whole cluster stalls for the full outage.
	ECStalled bool
}

// FaultSweepResult quantifies the failure-friendliness argument of
// §5.1/§6: under the pull-based data-centric paradigm a worker that
// loses an expert owner degrades to cached weights and keeps training,
// where the expert-centric All-to-All would stall every worker until
// the owner returns. The numbers come from a real loopback deployment
// with a deterministic fault injector killing one machine's server for
// a window of steps.
type FaultSweepResult struct {
	Machines            int
	KillMachine         int
	KillFrom, KillTo    int // [KillFrom, KillTo) in 1-based steps
	Rows                []FaultSweepRow
	DegradedSteps       int
	ECStalledSteps      int
	HealthyMs, OutageMs float64 // mean wall time per step, in/out of the window
}

// FaultSweep trains a 2-machine live cluster for six steps, kills
// machine 1's server for steps 3-4, and records how the data-centric
// protocol rides through the outage (retries, reconnects, stale
// serves) versus the synchronous baseline's unavoidable stall.
func FaultSweep() (*FaultSweepResult, error) {
	const (
		steps    = 6
		killFrom = 3
		killTo   = 5
		killM    = 1
	)
	inj := faultinject.New(11)
	inj.Kill(livecluster.MachineLabel(killM), killFrom, killTo)
	cfg := livecluster.Config{
		Machines: 2, WorkersPerNode: 2,
		NumExperts: 8, TopK: 2, Hidden: 16,
		TokensPerWorker: 32, Seed: 42, Credits: 4,
		Injector:      inj,
		PullTimeout:   150 * time.Millisecond,
		PullRetries:   2,
		RetryBackoff:  2 * time.Millisecond,
		StaleFallback: true,
	}
	cl, err := livecluster.Start(cfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	res := &FaultSweepResult{
		Machines: cfg.Machines, KillMachine: killM,
		KillFrom: killFrom, KillTo: killTo,
	}
	var healthySum, outageSum float64
	var healthyN, outageN int
	for s := 1; s <= steps; s++ {
		start := time.Now()
		step, err := cl.Train(livecluster.TrainOptions{Steps: 1})
		if err != nil {
			return nil, fmt.Errorf("faultsweep step %d: %w", s, err)
		}
		wall := float64(time.Since(start).Microseconds()) / 1e3
		inWindow := s >= killFrom && s < killTo
		row := FaultSweepRow{
			Step: s, WallMs: wall,
			Degraded:     step.DegradedSteps > 0,
			StaleFetches: step.StaleFetches,
			DroppedGrads: step.DroppedGrads,
			Retries:      step.Robust.Retries,
			Timeouts:     step.Robust.Timeouts,
			Reconnects:   step.Robust.Reconnects,
			ECStalled:    inWindow,
		}
		res.Rows = append(res.Rows, row)
		if row.Degraded {
			res.DegradedSteps++
		}
		if inWindow {
			res.ECStalledSteps++
			outageSum += wall
			outageN++
		} else {
			healthySum += wall
			healthyN++
		}
	}
	if healthyN > 0 {
		res.HealthyMs = healthySum / float64(healthyN)
	}
	if outageN > 0 {
		res.OutageMs = outageSum / float64(outageN)
	}
	return res, nil
}

func (r *FaultSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — fault sweep on the live cluster (%d machines, machine %d killed steps %d-%d)\n",
		r.Machines, r.KillMachine, r.KillFrom, r.KillTo-1)
	fmt.Fprintf(&b, "%4s %9s %9s %6s %6s %8s %8s %10s %10s\n",
		"step", "wall(ms)", "degraded", "stale", "drops", "retries", "timeouts", "reconnects", "EC verdict")
	for _, row := range r.Rows {
		deg := "no"
		if row.Degraded {
			deg = "yes"
		}
		ec := "completes"
		if row.ECStalled {
			ec = "STALLED"
		}
		fmt.Fprintf(&b, "%4d %9.1f %9s %6d %6d %8d %8d %10d %10s\n",
			row.Step, row.WallMs, deg, row.StaleFetches, row.DroppedGrads,
			row.Retries, row.Timeouts, row.Reconnects, ec)
	}
	fmt.Fprintf(&b, "data-centric: %d/%d steps completed (%d degraded on stale weights, mean %.1fms healthy vs %.1fms in-outage)\n",
		len(r.Rows), len(r.Rows), r.DegradedSteps, r.HealthyMs, r.OutageMs)
	fmt.Fprintf(&b, "expert-centric: the synchronous All-to-All needs every machine, so all workers stall for the full %d-step outage\n",
		r.ECStalledSteps)
	b.WriteString("(§5.1/§6: pull-based data movement degrades per-expert instead of failing the collective)\n")
	return b.String()
}

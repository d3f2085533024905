package experiments

import (
	"fmt"
	"os"
	"strings"
	"time"

	"janus/internal/faultinject"
	"janus/internal/livecluster"
)

// FailoverRow is one live training step of the permanent-failure
// scenario.
type FailoverRow struct {
	Step          int
	WallMs        float64
	AliveMachines int
	Degraded      bool
	StaleFetches  int64
	DroppedGrads  int64
	Failovers     int64 // this step
	Rehomed       int64 // experts re-homed this step
	Restores      int64 // experts restored from checkpoint this step
	// ECStalled marks steps the synchronous expert-centric All-to-All
	// cannot complete. A permanently lost machine never comes back, so
	// from the kill on, the baseline stalls forever.
	ECStalled bool
}

// FailoverResult quantifies what the fault sweep cannot: surviving a
// *permanent* machine loss. The data-centric cluster checkpoints every
// step, declares the lost machine dead after its heartbeat dead-man
// budget, deterministically re-homes its experts onto survivors from
// the last committed checkpoint, and keeps training at full fidelity —
// while the expert-centric baseline's collective can never form again.
type FailoverResult struct {
	Machines         int
	KillMachine      int
	KillFrom         int // 1-based step the machine dies, forever
	DeadManSteps     int
	Rows             []FailoverRow
	FailoverStep     int // step the membership view declared the loss
	RehomedExperts   int64
	Restores         int64
	Checkpoints      int64
	CheckpointBytes  int64
	DegradedSteps    int
	PostFailoverOK   int // post-failover steps at full fidelity (nothing stale or dropped)
	ECCompletedSteps int
}

// Failover trains a 3-machine live cluster for eight steps with
// per-step checkpoints, permanently kills machine 2's server at step 3,
// and records the failover: detection within the dead-man budget,
// expert re-homing via seeded rendezvous, checkpoint restores, and the
// return to undegraded steps on the survivors.
func Failover() (*FailoverResult, error) {
	const (
		steps    = 8
		killFrom = 3
		killM    = 2
		deadman  = 2
	)
	ckptDir, err := os.MkdirTemp("", "janus-failover-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptDir)

	inj := faultinject.New(11)
	inj.Kill(livecluster.MachineLabel(killM), killFrom, 0) // never returns
	cfg := livecluster.Config{
		Machines: 3, WorkersPerNode: 1,
		NumExperts: 9, TopK: 3, Hidden: 16,
		TokensPerWorker: 32, Seed: 42, Credits: 4,
		Injector:         inj,
		PullTimeout:      150 * time.Millisecond,
		PullRetries:      2,
		RetryBackoff:     2 * time.Millisecond,
		StaleFallback:    true,
		FailoverEnabled:  true,
		DeadManSteps:     deadman,
		HeartbeatTimeout: 150 * time.Millisecond,
		CheckpointDir:    ckptDir,
		CheckpointEvery:  1,
	}
	cl, err := livecluster.Start(cfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	res := &FailoverResult{
		Machines: cfg.Machines, KillMachine: killM,
		KillFrom: killFrom, DeadManSteps: deadman,
	}
	for s := 1; s <= steps; s++ {
		start := time.Now()
		step, err := cl.Train(livecluster.TrainOptions{Steps: 1})
		if err != nil {
			return nil, fmt.Errorf("failover step %d: %w", s, err)
		}
		row := FailoverRow{
			Step:          s,
			WallMs:        float64(time.Since(start).Microseconds()) / 1e3,
			AliveMachines: step.AliveMachines,
			Degraded:      step.DegradedSteps > 0,
			StaleFetches:  step.StaleFetches,
			DroppedGrads:  step.DroppedGrads,
			Failovers:     step.Robust.Failovers,
			Rehomed:       step.Robust.RehomedExperts,
			Restores:      step.Robust.Restores,
			ECStalled:     s >= killFrom,
		}
		res.Rows = append(res.Rows, row)
		if row.Failovers > 0 && res.FailoverStep == 0 {
			res.FailoverStep = s
		}
		if row.Degraded {
			res.DegradedSteps++
		}
		if res.FailoverStep > 0 && s > res.FailoverStep && !row.Degraded {
			res.PostFailoverOK++
		}
		if !row.ECStalled {
			res.ECCompletedSteps++
		}
	}
	totals := cl.RobustnessTotals()
	res.RehomedExperts = totals.RehomedExperts
	res.Restores = totals.Restores
	res.Checkpoints = totals.Checkpoints
	res.CheckpointBytes = totals.CheckpointBytes
	return res, nil
}

func (r *FailoverResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — permanent machine loss with checkpointed failover (%d machines, machine %d dies at step %d, dead-man budget %d)\n",
		r.Machines, r.KillMachine, r.KillFrom, r.DeadManSteps)
	fmt.Fprintf(&b, "%4s %9s %6s %9s %6s %6s %9s %8s %9s %10s\n",
		"step", "wall(ms)", "alive", "degraded", "stale", "drops", "failovers", "rehomed", "restores", "EC verdict")
	for _, row := range r.Rows {
		deg := "no"
		if row.Degraded {
			deg = "yes"
		}
		ec := "completes"
		if row.ECStalled {
			ec = "STALLED"
		}
		fmt.Fprintf(&b, "%4d %9.1f %6d %9s %6d %6d %9d %8d %9d %10s\n",
			row.Step, row.WallMs, row.AliveMachines, deg, row.StaleFetches,
			row.DroppedGrads, row.Failovers, row.Rehomed, row.Restores, ec)
	}
	fmt.Fprintf(&b, "data-centric: failover at step %d (%d experts re-homed, %d restored from checkpoint); %d post-failover steps at full fidelity (no stale serves, no dropped gradients)\n",
		r.FailoverStep, r.RehomedExperts, r.Restores, r.PostFailoverOK)
	fmt.Fprintf(&b, "checkpoints: %d committed, %d bytes total, crash-consistent (CRC-verified atomic-rename versions)\n",
		r.Checkpoints, r.CheckpointBytes)
	fmt.Fprintf(&b, "expert-centric: completes only %d/%d steps — a permanent loss leaves the All-to-All without a participant forever\n",
		r.ECCompletedSteps, len(r.Rows))
	b.WriteString("(§3.2: experts as independently pullable objects make per-expert recovery possible; a collective has no such unit)\n")
	return b.String()
}

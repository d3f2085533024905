// The pipelined live trainer. Train runs real training steps —
// versioned expert pulls, fused forward/backward over microbatches,
// pre-reduced gradient pushes, deterministic SGD merges — in one of two
// schedules:
//
//   - Lockstep (the reference): fetch every expert, then compute every
//     microbatch, then push every gradient, with a global barrier and a
//     flush merge between steps.
//   - Pipelined: microbatches stream — each (worker, microbatch) piece
//     fetches, computes and hands off its gradients independently, so
//     expert pulls, forward/backward and pushes overlap. When the fault
//     configuration permits (see syncedTraining), steps overlap too:
//     step s+1's pulls and compute start while step s's pushes drain,
//     bounded by a depth window; otherwise the step barrier is kept and
//     only the intra-step phases overlap.
//
// Both schedules fold gradients at the same fixed points in the same
// fixed order (see train.go), so their final weights are bitwise equal.
// Execution runs on the persistent runtime in runtime.go; this file is
// the per-call drivers.
package livecluster

import (
	"errors"
	"sync"

	"janus/internal/metrics"
	"janus/internal/tensor"
)

// DefaultPipelineDepth is the cross-step in-flight window: a machine
// may start step s+Depth's compute only once step s's pushes drained.
const DefaultPipelineDepth = 2

// DefaultTrainLR is the SGD learning rate when TrainOptions.LR is zero.
const DefaultTrainLR = 0.05

// TrainOptions configures one Train call.
type TrainOptions struct {
	// Steps is the number of training steps to run (default 1).
	Steps int
	// Microbatches splits each worker's batch into M contiguous token
	// ranges (default 1; clamped to TokensPerWorker). Bitwise
	// comparisons between runs require equal M — gradient sums are not
	// reassociation-free across different splits.
	Microbatches int
	// Pipelined selects the streaming schedule; false is the lockstep
	// reference.
	Pipelined bool
	// Depth bounds cross-step overlap in pipelined mode (default
	// DefaultPipelineDepth). Ignored in lockstep mode.
	Depth int
	// LR is the SGD learning rate (default DefaultTrainLR).
	LR float32
	// ReuseOutputs makes successive Train calls return the same
	// FinalOutputs matrices, zeroed and refilled in place — the
	// zero-allocation steady state for benchmarks and long drivers.
	// Leave false (the default) if results are retained across calls.
	ReuseOutputs bool

	// Elastic-membership events (all require FailoverEnabled, which
	// forces the step-synced schedule; they run at step boundaries,
	// after the step's flush merge and checkpoint).

	// JoinAfterStep, when positive, admits one new machine into the
	// cluster after that absolute training step completes, seeded
	// through machine JoinSeed. The newcomer hosts migrated experts
	// but runs no workers, so the gradient fold schedule — and the
	// final weights — stay bitwise identical to a static run.
	JoinAfterStep int
	JoinSeed      int
	// Migrations schedules fenced live expert handoffs. A handoff that
	// cannot complete rolls back and the run continues.
	Migrations []TrainMigration
	// RebalanceEvery, when positive, runs the popularity-weighted
	// rebalancer after every such step, executing at most
	// RebalanceMoves migrations (default 1) per invocation.
	RebalanceEvery int
	RebalanceMoves int
}

// TrainMigration schedules one live handoff: after absolute training
// step AfterStep's merge, Expert moves to machine To.
type TrainMigration struct {
	AfterStep int
	Expert    int
	To        int
}

// TrainResult reports one Train call.
type TrainResult struct {
	Steps int
	// FinalOutputs holds each worker's combined layer output from the
	// last step (nil for workers on dead machines).
	FinalOutputs []*tensor.Matrix
	// Synced reports whether a pipelined run kept the per-step barrier
	// because the fault configuration required it.
	Synced            bool
	StaleFetches      int64
	DroppedGrads      int64
	MaxStalenessSteps int
	DegradedSteps     int
	AliveMachines     int
	// PartitionedMachines counts machines outside the authoritative
	// membership side when the run finished (no quorum, or fenced out).
	PartitionedMachines int
	// CrossMachineBytes is the wire traffic the machines' clients sent
	// and received during the call (expert pulls, gradient pushes, and
	// any heartbeat, replication or membership traffic).
	CrossMachineBytes int64
	Robust            metrics.RobustnessSnapshot
	Pipeline          metrics.PipelineSnapshot
}

// syncedTraining reports whether pipelined training must keep the
// global step barrier. Free-running overlap changes when operations
// happen relative to the injector's step clock and RNG draw order, so
// it is only deterministic (and failover's step-boundary view changes
// only sound) when faults cannot change outcomes and membership cannot
// change: any failover, checkpointing, or non-outcome-neutral injector
// rule forces the step-synced schedule.
func (cl *Cluster) syncedTraining() bool {
	cfg := cl.cfg
	if cfg.FailoverEnabled || cfg.CheckpointDir != "" {
		return true
	}
	return cfg.Injector != nil && !cfg.Injector.OutcomeNeutral()
}

// Train runs opts.Steps training steps — the cluster's only step
// engine. Each step pulls every external expert once per machine, runs
// forward and backward, and pushes one pre-reduced gradient per expert
// to its owner. Not safe for concurrent use with itself; successive
// calls continue the same weight trajectory, so Train{Steps: 1} per call
// drives a run one step at a time.
func (cl *Cluster) Train(opts TrainOptions) (TrainResult, error) {
	cfg := cl.cfg
	if opts.Steps <= 0 {
		opts.Steps = 1
	}
	if opts.Microbatches <= 0 {
		opts.Microbatches = 1
	}
	if opts.Microbatches > cfg.TokensPerWorker {
		opts.Microbatches = cfg.TokensPerWorker
	}
	if opts.Depth <= 0 {
		opts.Depth = DefaultPipelineDepth
	}
	if opts.LR == 0 {
		opts.LR = DefaultTrainLR
	}
	if (opts.JoinAfterStep > 0 || len(opts.Migrations) > 0 || opts.RebalanceEvery > 0) &&
		!cfg.FailoverEnabled {
		return TrainResult{}, errors.New("livecluster: membership events require FailoverEnabled")
	}
	synced := cl.syncedTraining()
	overlap := opts.Pipelined && !synced
	cl.trainInit(opts, overlap)
	if overlap {
		return cl.trainOverlap(opts)
	}
	return cl.trainSynced(opts, opts.Pipelined)
}

// runDeg accumulates a Train call's degradation telemetry.
type runDeg struct {
	mu           sync.Mutex
	stale        int64
	dropped      int64
	maxStaleness int
	steps        map[int]bool // training steps that saw degradation
}

func (d *runDeg) reset() {
	d.mu.Lock()
	d.stale, d.dropped, d.maxStaleness = 0, 0, 0
	clear(d.steps)
	d.mu.Unlock()
}

func (d *runDeg) noteStale(age, step int) {
	d.mu.Lock()
	d.stale++
	if age > d.maxStaleness {
		d.maxStaleness = age
	}
	if d.steps == nil {
		d.steps = make(map[int]bool)
	}
	d.steps[step] = true
	d.mu.Unlock()
}

func (d *runDeg) noteDropped(step int) {
	d.mu.Lock()
	d.dropped++
	if d.steps == nil {
		d.steps = make(map[int]bool)
	}
	d.steps[step] = true
	d.mu.Unlock()
}

// trainSynced is the barriered driver: lockstep (streamed=false, the
// phased reference) and step-synced pipelined (streamed=true, phases
// overlap within a step but the step barrier and flush merge are kept).
func (cl *Cluster) trainSynced(opts TrainOptions, streamed bool) (TrainResult, error) {
	cfg := cl.cfg
	st := cl.train
	tr := st.rt
	before := cl.callBaseline()
	base := st.steps
	outputs := tr.callOutputs(opts.ReuseOutputs)

	for i := 0; i < opts.Steps; i++ {
		s := base + i + 1
		if cfg.Injector != nil {
			cfg.Injector.SetStep(s)
		}
		if cfg.FailoverEnabled {
			cl.heartbeatRound(s)
		}
		final := i == opts.Steps-1
		for m := 0; m < cfg.Machines; m++ {
			if !cl.machineRuns(m) {
				// Fenced out of the cluster: frozen until readmitted. A
				// machine that merely lost quorum keeps computing in
				// degraded mode (its pushes are fenced on the wire).
				tr.ran[m] = false
				continue
			}
			tr.ran[m] = true
			rt := tr.machines[m]
			r := rt.runs[i%len(rt.runs)]
			r.waitDrained() // trivially drained: synced steps leave runs drained
			r.reset(s, final, !streamed, opts.ReuseOutputs)
			// Dispatch to the machine's persistent driver goroutine —
			// same fold slots and order as a dedicated goroutine, no
			// per-step closure or stack.
			tr.stepWG.Add(1)
			rt.stepCh <- r
		}
		tr.stepWG.Wait()
		if err := tr.cs.err(); err != nil {
			return TrainResult{}, err
		}
		// Barrier merge: every store folds what arrived for step s.
		for _, store := range cl.stores {
			store.flushTo(uint64(s))
		}
		if err := cl.maybeCheckpoint(s); err != nil {
			return TrainResult{}, err
		}
		cl.recordExpertLoad()
		// Synchronous replication barrier: owners stream step s's merged
		// weights to their replica sets (acked) before any membership
		// event can move or kill what the replicas back up, and the
		// anti-entropy sweep repairs divergence on its cadence.
		cl.replicateStep()
		cl.antiEntropy(s)
		cl.runMembershipEvents(opts, s)
		if final {
			for m := 0; m < cfg.Machines; m++ {
				if !tr.ran[m] {
					continue
				}
				rt := tr.machines[m]
				r := rt.runs[i%len(rt.runs)]
				for lw, out := range r.outs {
					outputs[m*cfg.WorkersPerNode+lw] = out
				}
			}
		}
		st.steps = s
	}
	return cl.trainResult(opts, outputs, &tr.deg, before, true), nil
}

// runMembershipEvents executes the step's scheduled elastic-membership
// transitions, after the flush merge so every store sits exactly at
// version s. Failures are never fatal to the run: a failed join leaves
// the cluster at its current size, a failed handoff rolls back, and
// both are visible in the robustness counters.
func (cl *Cluster) runMembershipEvents(opts TrainOptions, s int) {
	if opts.JoinAfterStep == s {
		_, _ = cl.Join(opts.JoinSeed)
	}
	for _, mg := range opts.Migrations {
		if mg.AfterStep == s {
			_ = cl.MigrateExpert(mg.Expert, mg.To)
		}
	}
	if opts.RebalanceEvery > 0 && s%opts.RebalanceEvery == 0 {
		moves := opts.RebalanceMoves
		if moves <= 0 {
			moves = 1
		}
		_, _ = cl.Rebalance(moves)
	}
}

// trainOverlap is the free-running driver: it hands the call to every
// machine's persistent driver goroutine (runtime.go runCall) and waits.
func (cl *Cluster) trainOverlap(opts TrainOptions) (TrainResult, error) {
	cfg := cl.cfg
	st := cl.train
	tr := st.rt
	before := cl.callBaseline()
	base := st.steps
	outputs := tr.callOutputs(opts.ReuseOutputs)
	if cfg.Injector != nil {
		// Outcome-neutral, window-free rules only (syncedTraining
		// guarantees it), so the step clock can sit still.
		cfg.Injector.SetStep(base + 1)
	}
	tr.callWG.Add(cfg.Machines)
	call := trainCall{steps: opts.Steps, depth: opts.Depth, base: base, outputs: outputs, reuseOut: opts.ReuseOutputs}
	for m := 0; m < cfg.Machines; m++ {
		tr.machines[m].callCh <- call
	}
	tr.callWG.Wait()
	if err := tr.cs.err(); err != nil {
		return TrainResult{}, err
	}
	st.steps = base + opts.Steps
	return cl.trainResult(opts, outputs, &tr.deg, before, false), nil
}

// callBaseline is the cumulative counters at the start of a Train
// call; trainResult reports the call's deltas against it.
type callBaseline struct {
	robust metrics.RobustnessSnapshot
	pipe   metrics.PipelineSnapshot
	wire   int64
}

func (cl *Cluster) callBaseline() callBaseline {
	return callBaseline{robust: cl.robustSnapshot(), pipe: cl.train.pipe.Snapshot(), wire: cl.wireBytes()}
}

func (cl *Cluster) trainResult(opts TrainOptions, outputs []*tensor.Matrix, deg *runDeg, before callBaseline, synced bool) TrainResult {
	// Workers outside the authoritative membership side (zombies that
	// kept computing without quorum) do not contribute outputs.
	if cl.cfg.FailoverEnabled {
		for m := 0; m < cl.cfg.Machines; m++ {
			if cl.isAlive(m) {
				continue
			}
			for lw := 0; lw < cl.cfg.WorkersPerNode; lw++ {
				outputs[m*cl.cfg.WorkersPerNode+lw] = nil
			}
		}
	}
	deg.mu.Lock()
	maxStale := deg.maxStaleness
	if cl.pendingStaleness > maxStale {
		maxStale = cl.pendingStaleness
	}
	cl.pendingStaleness = 0
	res := TrainResult{
		Steps:               opts.Steps,
		FinalOutputs:        outputs,
		Synced:              opts.Pipelined && synced,
		StaleFetches:        deg.stale,
		DroppedGrads:        deg.dropped,
		MaxStalenessSteps:   maxStale,
		DegradedSteps:       len(deg.steps),
		AliveMachines:       cl.AliveMachines(),
		PartitionedMachines: cl.PartitionedMachines(),
		CrossMachineBytes:   cl.wireBytes() - before.wire,
		Robust:              cl.robustSnapshot().Sub(before.robust),
		Pipeline:            cl.train.pipe.Snapshot().Sub(before.pipe),
	}
	deg.mu.Unlock()
	cl.degradedTotal += res.DegradedSteps
	return res
}

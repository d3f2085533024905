package livecluster

import (
	"bytes"
	"testing"
	"time"

	"janus/internal/faultinject"
	"janus/internal/metrics"
)

// partitionCfg is the split-brain harness: 3 machines, an aggressive
// one-round dead-man (so the majority fails over while the minority is
// still writing), and checkpoints every step so failover restores the
// exact pre-partition weights.
func partitionCfg(inj *faultinject.Injector, ckptDir string) Config {
	return Config{
		Machines: 3, WorkersPerNode: 1,
		NumExperts: 9, TopK: 3, Hidden: 16,
		TokensPerWorker: 24, Seed: 42, Credits: 4,
		Injector:         inj,
		StaleFallback:    true,
		PullTimeout:      120 * time.Millisecond,
		PullRetries:      2,
		RetryBackoff:     2 * time.Millisecond,
		FailoverEnabled:  true,
		DeadManSteps:     1,
		HeartbeatTimeout: 150 * time.Millisecond,
		CheckpointDir:    ckptDir,
		CheckpointEvery:  1,
	}
}

// splitBrainProfile captures everything one partitioned training run
// exposes, for differential comparison.
type splitBrainProfile struct {
	state   [][]byte
	perStep []TrainResult
	totals  metrics.RobustnessSnapshot
	owners  []int
	alive   int
	parted  int
	epochs  []uint64
}

// runSplitBrain trains through a 2-vs-1 partition of steps [2,4).
// oneWay leaves the minority's writes flowing (the zombie-writer
// asymmetry: its requests arrive, the responses are lost); a two-way
// cut is the clean reference where zombie traffic physically cannot
// arrive. Training is driven one step at a time so membership can be
// observed mid-run (split calls are bitwise-equivalent to one call).
func runSplitBrain(t *testing.T, oneWay, fencingDisabled bool) splitBrainProfile {
	t.Helper()
	inj := faultinject.New(11)
	if oneWay {
		inj.PartitionOneWay(MachineLabel(0), MachineLabel(2), 2, 4)
		inj.PartitionOneWay(MachineLabel(1), MachineLabel(2), 2, 4)
	} else {
		inj.Partition(MachineLabel(0), MachineLabel(2), 2, 4)
		inj.Partition(MachineLabel(1), MachineLabel(2), 2, 4)
	}
	cfg := partitionCfg(inj, t.TempDir())
	cfg.FencingDisabled = fencingDisabled
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	p := splitBrainProfile{}
	for s := 1; s <= 7; s++ {
		res, err := cl.Train(TrainOptions{Steps: 1})
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		p.perStep = append(p.perStep, res)
	}
	p.state, err = cl.ExpertState()
	if err != nil {
		t.Fatal(err)
	}
	p.totals = cl.RobustnessTotals()
	p.owners = cl.OwnerView()
	p.alive = cl.AliveMachines()
	p.parted = cl.PartitionedMachines()
	cl.viewMu.Lock()
	for _, v := range cl.views {
		p.epochs = append(p.epochs, v.epoch)
	}
	cl.viewMu.Unlock()
	return p
}

func statesDiffer(a, b [][]byte) bool {
	for e := range a {
		if !bytes.Equal(a[e], b[e]) {
			return true
		}
	}
	return false
}

// The seeded split-brain differential. Three runs of the same seeded
// training schedule:
//
//	A: one-way partition (zombie writes arrive), fencing ON
//	B: two-way partition (zombie writes physically blocked) — the
//	   single-owner reference: exactly one side can make progress
//	C: one-way partition, fencing OFF
//
// With fencing the majority must reject every stale-epoch push, so A's
// final weights match B's bitwise even though the minority's gradients
// kept landing on the majority's doorstep. With fencing disabled those
// same pushes are accepted and merged, and C provably diverges.
func TestSplitBrainDifferential(t *testing.T) {
	a := runSplitBrain(t, true, false)
	b := runSplitBrain(t, false, false)
	c := runSplitBrain(t, true, true)

	// Fencing neutralised the zombie: bitwise identical to the run
	// where its traffic never arrived.
	assertSameState(t, "fenced one-way vs two-way", a.state, b.state)
	assertSameOutputs(t, "fenced one-way vs two-way",
		a.perStep[6].FinalOutputs, b.perStep[6].FinalOutputs)
	if !statesDiffer(c.state, b.state) {
		t.Fatal("unfenced zombie pushes left no trace: differential proves nothing")
	}

	// The fence actually fired in A (the zombie's pulls, pushes and
	// probes all carried the pre-failover epoch), and never in C.
	if a.totals.FenceRejections == 0 {
		t.Fatal("one-way partition with fencing on rejected nothing")
	}
	if c.totals.FenceRejections != 0 {
		t.Fatalf("fencing disabled but %d requests fenced", c.totals.FenceRejections)
	}
	// The minority froze its dead-man clocks instead of forking
	// ownership: quorum stalls recorded, exactly one failover, no
	// second view ever re-homed the majority's experts.
	if a.totals.QuorumStalls == 0 {
		t.Fatal("minority side never recorded a quorum stall")
	}
	for _, p := range []splitBrainProfile{a, b, c} {
		if p.totals.Failovers != 1 {
			t.Fatalf("failovers = %d, want exactly 1", p.totals.Failovers)
		}
	}

	// Mid-partition membership: the majority declared the minority dead
	// (2 alive) and the minority sat outside the authoritative side.
	mid := a.perStep[2] // step 3: partition active, failover done
	if mid.AliveMachines != 2 || mid.PartitionedMachines != 1 {
		t.Fatalf("mid-partition membership: alive=%d parted=%d, want 2/1",
			mid.AliveMachines, mid.PartitionedMachines)
	}

	// Post-heal: every run converged back to the full, home-owned
	// cluster; in the fenced runs every view adopted the same epoch.
	for _, p := range []splitBrainProfile{a, b, c} {
		if p.alive != 3 || p.parted != 0 {
			t.Fatalf("post-heal membership: alive=%d parted=%d, want 3/0", p.alive, p.parted)
		}
		for e, owner := range p.owners {
			if home := e / 3; owner != home {
				t.Fatalf("post-heal owner of expert %d = %d, want home %d", e, owner, home)
			}
		}
		final := p.perStep[6]
		if final.DegradedSteps != 0 {
			t.Fatalf("final step still degraded after heal: %+v", final)
		}
	}
	for _, p := range []splitBrainProfile{a, b} {
		for m, e := range p.epochs {
			if e != p.epochs[0] {
				t.Fatalf("machine %d epoch %d != machine 0 epoch %d after heal", m, e, p.epochs[0])
			}
		}
	}
}

// A gray failure: machine 2's server answers everything, just slowly.
// The EWMA score flags it, yet training rides through undegraded and
// the dead-man never fires — slow is not dead.
func TestGrayFailureHedgedPulls(t *testing.T) {
	inj := faultinject.New(5)
	inj.Slow(MachineLabel(2), 25*time.Millisecond, 0, 1)
	cfg := partitionCfg(inj, "")
	cfg.PullTimeout = 2 * time.Second // the slow wire pull must succeed
	cfg.DeadManSteps = 2
	cfg.HeartbeatTimeout = time.Second
	cfg.SlowAfter = 4 * time.Millisecond
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for s := 1; s <= 4; s++ {
		res := trainStep(t, cl)
		if res.DegradedSteps > 0 {
			t.Fatalf("step %d degraded under a merely slow peer: %+v", s, res)
		}
		checkSurvivors(t, cl, res.FinalOutputs)
		if s == 1 {
			assertSameOutputs(t, "step 1 vs reference", res.FinalOutputs, cl.RunExpertCentricReference())
		}
	}
	if !cl.peerSlow(0) {
		t.Fatal("the slow peer was never flagged")
	}
	// Throughput recovered without any membership change: slow != dead.
	if totals := cl.RobustnessTotals(); totals.Failovers != 0 {
		t.Fatalf("dead-man fired on a merely slow peer: %d failovers", totals.Failovers)
	}
	if cl.AliveMachines() != 3 || cl.PartitionedMachines() != 0 {
		t.Fatalf("membership changed under gray failure: alive=%d parted=%d",
			cl.AliveMachines(), cl.PartitionedMachines())
	}
}

// Under the same gray failure the pipelined trainer narrows its
// cross-step window instead of stalling deeper — and stays bitwise
// identical to the clean lockstep run, because depth is pure schedule.
func TestGrayFailureShrinksPipelineDepth(t *testing.T) {
	mkSlow := func() Config {
		inj := faultinject.New(6)
		inj.Slow(MachineLabel(1), 10*time.Millisecond, 0, 1)
		cfg := defaultCfg()
		cfg.Injector = inj
		cfg.SlowAfter = 2 * time.Millisecond
		cfg.PullTimeout = 2 * time.Second
		return cfg
	}
	opts := TrainOptions{Steps: 4, Microbatches: 2, Pipelined: true, Depth: 2}
	slowState, pres, _ := runTrain(t, mkSlow, opts)
	lockState, _, _ := runTrain(t, defaultCfg, TrainOptions{Steps: 4, Microbatches: 2})
	assertSameState(t, "depth-shrink", lockState, slowState)
	if pres.Synced {
		t.Fatal("pure-delay gray failure forced the step-synced schedule")
	}
	if pres.Pipeline.DepthShrinks == 0 {
		t.Fatal("flagged-slow peer did not shrink the pipeline window")
	}
}

// The heal race: with a one-round dead-man and a one-step partition,
// the checkpoint restore (round 2) and the heal (round 3) land in
// back-to-back membership rounds — the rejoin hands ownership home
// while the restored replicas are one step old, and the fenced
// minority reconciles in the same round the majority readmits it.
// Ownership must converge in every private view and the counters must
// reconcile exactly.
func TestHealRaceCheckpointRestoreConverges(t *testing.T) {
	inj := faultinject.New(9)
	inj.PartitionOneWay(MachineLabel(0), MachineLabel(2), 2, 3)
	inj.PartitionOneWay(MachineLabel(1), MachineLabel(2), 2, 3)
	cl, err := Start(partitionCfg(inj, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var fenceSum int64
	for s := 1; s <= 6; s++ {
		res := trainStep(t, cl)
		fenceSum += res.Robust.FenceRejections
		checkSurvivors(t, cl, res.FinalOutputs)
		if s == 2 {
			// Restore in flight: the dead-man fired this very round.
			if res.Robust.Failovers != 1 || res.Robust.Restores != 3 {
				t.Fatalf("round-2 failover/restore: %+v", res.Robust)
			}
			// Only the majority side is asserted here: the minority's
			// own probes at partition onset may still be answered by
			// responses already in flight (TCP delivers them), so its
			// quorum loss can lag one round.
			if res.AliveMachines != 2 {
				t.Fatalf("round-2 membership: alive=%d, want 2", res.AliveMachines)
			}
		}
		if s >= 3 && res.DegradedSteps > 0 {
			t.Fatalf("step %d degraded after the same-round heal", s)
		}
	}

	// Every private view converged: full membership, home ownership,
	// one shared epoch, nobody frozen or catching up.
	cl.viewMu.Lock()
	for m, v := range cl.views {
		for tgt, a := range v.alive {
			if !a {
				t.Errorf("machine %d still sees %d dead after heal", m, tgt)
			}
		}
		for e, owner := range v.owner {
			if owner != e/3 {
				t.Errorf("machine %d sees expert %d on %d, want home %d", m, e, owner, e/3)
			}
		}
		if v.epoch != cl.views[0].epoch {
			t.Errorf("machine %d epoch %d != machine 0 epoch %d", m, v.epoch, cl.views[0].epoch)
		}
		if v.frozen || v.catch || !v.quorum {
			t.Errorf("machine %d not fully reconciled: frozen=%v catch=%v quorum=%v",
				m, v.frozen, v.catch, v.quorum)
		}
	}
	cl.viewMu.Unlock()

	totals := cl.RobustnessTotals()
	if totals.Failovers != 1 || totals.Restores != 3 {
		t.Fatalf("failovers=%d restores=%d, want 1/3", totals.Failovers, totals.Restores)
	}
	// 3 experts re-homed out at failover, 3 handed home at rejoin.
	if totals.RehomedExperts != 6 {
		t.Fatalf("rehomed = %d, want 6", totals.RehomedExperts)
	}
	if totals.FenceRejections == 0 {
		t.Fatal("the zombie's stale-epoch traffic was never fenced")
	}
	if fenceSum != totals.FenceRejections {
		t.Fatalf("per-step fence deltas sum to %d, totals say %d", fenceSum, totals.FenceRejections)
	}
}

// Regression: a hung peer (reads stall forever, writes vanish) must
// cost one bounded probe budget per membership round, not one per
// machine pair — the round is a single cancellable context, so its
// wall time stays near one heartbeat timeout no matter how many probes
// hang.
func TestHeartbeatRoundBoundedByHungPeer(t *testing.T) {
	inj := faultinject.New(8)
	inj.Partition(MachineLabel(0), MachineLabel(2), 1, 0)
	inj.Partition(MachineLabel(1), MachineLabel(2), 1, 0)
	cfg := partitionCfg(inj, "")
	cfg.DeadManSteps = 2
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	inj.SetStep(1)
	start := time.Now()
	cl.heartbeatRound(1)
	elapsed := time.Since(start)
	// 4 of the 6 probes hang until their context expires. Sequential
	// probing would take >= 4x the heartbeat timeout; the concurrent
	// round must stay near 1x.
	if budget := 3 * cfg.HeartbeatTimeout; elapsed > budget {
		t.Fatalf("hung peer stalled the round for %v (budget %v)", elapsed, budget)
	}
	// The bounded round still did its membership job.
	if cl.AliveMachines() != 3 {
		t.Fatalf("one missed round below the dead-man already changed membership: alive=%d", cl.AliveMachines())
	}
	if cl.PartitionedMachines() != 1 {
		t.Fatalf("cut-off machine still counted inside quorum: parted=%d", cl.PartitionedMachines())
	}
	if cl.RobustnessTotals().QuorumStalls == 0 {
		t.Fatal("minority machine recorded no quorum stall")
	}

	// The dead-man still fires through the bounded path.
	inj.SetStep(2)
	start = time.Now()
	cl.heartbeatRound(2)
	if elapsed := time.Since(start); elapsed > 3*cfg.HeartbeatTimeout {
		t.Fatalf("failover round overran its budget: %v", elapsed)
	}
	if cl.AliveMachines() != 2 {
		t.Fatalf("dead-man did not fire after %d missed rounds: alive=%d", cfg.DeadManSteps, cl.AliveMachines())
	}
}

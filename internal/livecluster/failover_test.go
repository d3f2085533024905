package livecluster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"janus/internal/checkpoint"
	"janus/internal/faultinject"
	"janus/internal/tensor"
	"janus/internal/transport"
)

// failoverCfg is the standard permanent-failure harness: 3 machines so
// a kill leaves a real quorum of survivors to re-home onto.
func failoverCfg(inj *faultinject.Injector, ckptDir string) Config {
	return Config{
		Machines: 3, WorkersPerNode: 1,
		NumExperts: 9, TopK: 3, Hidden: 16,
		TokensPerWorker: 24, Seed: 42, Credits: 4,
		Injector:         inj,
		StaleFallback:    true,
		PullTimeout:      300 * time.Millisecond,
		PullRetries:      2,
		RetryBackoff:     2 * time.Millisecond,
		FailoverEnabled:  true,
		DeadManSteps:     2,
		HeartbeatTimeout: 200 * time.Millisecond,
		CheckpointDir:    ckptDir,
		CheckpointEvery:  1,
	}
}

// checkSurvivors asserts every alive worker produced a finite output
// and dead machines' slots are nil. Weights move with every step, so
// only a run's first step is comparable to the expert-centric
// reference; the lossy steps of a fault window are held to finiteness
// plus the counters each test asserts.
func checkSurvivors(t *testing.T, cl *Cluster, outs []*tensor.Matrix) {
	t.Helper()
	for w, out := range outs {
		machine := w / cl.cfg.WorkersPerNode
		if !cl.isAlive(machine) {
			if out != nil {
				t.Fatalf("dead machine %d produced output", machine)
			}
			continue
		}
		if out == nil {
			t.Fatalf("alive worker %d produced no output", w)
		}
		if !finite(out) {
			t.Fatalf("worker %d output not finite", w)
		}
	}
}

// The headline scenario: machine 2 dies permanently at step 2. The
// cluster rides the outage on stale weights, declares the machine dead
// within the dead-man budget, re-homes its experts from the last
// checkpoint, and keeps training at full fidelity on the survivors —
// the re-homed experts merge the survivors' gradients on their new
// owners.
func TestPermanentKillFailsOverFromCheckpoint(t *testing.T) {
	inj := faultinject.New(1)
	inj.Kill(MachineLabel(2), 2, 0) // dead forever from step 2
	dir := t.TempDir()
	cl, err := Start(failoverCfg(inj, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Step 1: healthy. Commits the checkpoint failover will restore.
	res := trainStep(t, cl)
	if res.DegradedSteps > 0 || res.AliveMachines != 3 {
		t.Fatalf("healthy step: %+v", res)
	}
	if res.Robust.Checkpoints != 1 || res.Robust.CheckpointBytes <= 0 {
		t.Fatalf("step 1 checkpoint counters: %+v", res.Robust)
	}
	checkSurvivors(t, cl, res.FinalOutputs)
	assertSameOutputs(t, "step 1 vs reference", res.FinalOutputs, cl.RunExpertCentricReference())

	// Steps 2-3: machine 2 unreachable, inside the dead-man budget.
	// The cluster degrades to stale weights but keeps computing.
	sawDegraded := false
	for s := 2; s <= 3; s++ {
		res = trainStep(t, cl)
		checkSurvivors(t, cl, res.FinalOutputs)
		sawDegraded = sawDegraded || res.DegradedSteps > 0
		if res.Robust.Failovers > 0 && res.AliveMachines != 2 {
			t.Fatalf("step %d: failover without membership change", s)
		}
	}
	if !sawDegraded {
		t.Fatal("no degraded step inside the dead-man window")
	}
	if cl.AliveMachines() != 2 {
		t.Fatalf("machine 2 not declared dead after the dead-man budget (alive=%d)", cl.AliveMachines())
	}

	// Ownership: every expert homed on machine 2 now lives on a
	// survivor, chosen by the seeded rendezvous hash.
	owners := cl.OwnerView()
	for e := 6; e < 9; e++ {
		want := rendezvousOwner(cl.cfg.Seed, e, []int{0, 1})
		if owners[e] != want {
			t.Fatalf("expert %d owner = %d, want rendezvous pick %d", e, owners[e], want)
		}
	}
	totals := cl.RobustnessTotals()
	if totals.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", totals.Failovers)
	}
	if totals.RehomedExperts != 3 {
		t.Fatalf("rehomed = %d, want 3", totals.RehomedExperts)
	}
	if totals.Restores != 3 {
		t.Fatalf("checkpoint restores = %d, want 3", totals.Restores)
	}
	rehomed, err := cl.ExpertState()
	if err != nil {
		t.Fatal(err)
	}

	// Post-failover steps run at full fidelity: no stale serves, no
	// dropped grads.
	for s := 4; s <= 6; s++ {
		res = trainStep(t, cl)
		if res.DegradedSteps > 0 {
			t.Fatalf("step %d still degraded after failover: %+v", s, res)
		}
		checkSurvivors(t, cl, res.FinalOutputs)
	}

	// The re-homed experts kept training on their new owners: their
	// versions advanced with the step clock and the survivors' merged
	// gradients moved their weights.
	after, err := cl.ExpertState()
	if err != nil {
		t.Fatal(err)
	}
	for e := 6; e < 9; e++ {
		id := transport.ExpertID{Expert: uint32(e)}
		if v := cl.stores[owners[e]].versionOf(id); v != 6 {
			t.Errorf("re-homed expert %d at version %d on machine %d, want 6", e, v, owners[e])
		}
		if bytes.Equal(rehomed[e], after[e]) {
			t.Errorf("re-homed expert %d merged no gradients after failover", e)
		}
	}
}

// With no checkpoint configured, failover falls back to the newest
// stale replica a survivor holds — staleness accounted — and training
// continues on the survivors.
func TestFailoverFromNewestReplicaWithoutCheckpoint(t *testing.T) {
	inj := faultinject.New(2)
	inj.Kill(MachineLabel(2), 2, 0)
	cl, err := Start(failoverCfg(inj, "")) // no checkpoint dir
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for s := 1; s <= 5; s++ {
		last := trainStep(t, cl)
		checkSurvivors(t, cl, last.FinalOutputs)
		if s == 1 {
			assertSameOutputs(t, "step 1 vs reference", last.FinalOutputs, cl.RunExpertCentricReference())
		}
		if s == 3 && last.Robust.Failovers == 1 && last.MaxStalenessSteps == 0 {
			t.Fatal("replica recovery did not account staleness")
		}
	}
	totals := cl.RobustnessTotals()
	if totals.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", totals.Failovers)
	}
	if totals.Restores != 0 {
		t.Fatalf("restores = %d, want 0 without a checkpoint", totals.Restores)
	}
	if totals.RehomedExperts == 0 {
		t.Fatal("no experts re-homed from replicas")
	}
	if totals.Checkpoints != 0 {
		t.Fatalf("checkpoints = %d with checkpointing disabled", totals.Checkpoints)
	}
}

// A machine killed for a bounded window is declared dead, fails over,
// then rejoins when its server answers again — and reclaims its home
// experts, with the interim owners dropping their copies.
func TestRejoinReclaimsHomeExperts(t *testing.T) {
	inj := faultinject.New(3)
	inj.Kill(MachineLabel(2), 2, 5) // back from step 5 on
	dir := t.TempDir()
	cl, err := Start(failoverCfg(inj, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for s := 1; s <= 6; s++ {
		res := trainStep(t, cl)
		checkSurvivors(t, cl, res.FinalOutputs)
		if s == 1 {
			assertSameOutputs(t, "step 1 vs reference", res.FinalOutputs, cl.RunExpertCentricReference())
		}
	}
	if cl.AliveMachines() != 3 {
		t.Fatalf("machine did not rejoin (alive=%d)", cl.AliveMachines())
	}
	owners := cl.OwnerView()
	for e := range owners {
		if owners[e] != cl.homeMachine(e) {
			t.Fatalf("expert %d owner = %d after rejoin, want home %d", e, owners[e], cl.homeMachine(e))
		}
	}
	// Interim owners no longer host the reclaimed experts.
	for e := 6; e < 9; e++ {
		id := transport.ExpertID{Expert: uint32(e)}
		for m := 0; m < 2; m++ {
			if _, ok := cl.stores[m].get(id); ok {
				t.Fatalf("machine %d still hosts reclaimed expert %d", m, e)
			}
		}
		if _, ok := cl.stores[2].get(id); !ok {
			t.Fatalf("rejoined machine does not host its home expert %d", e)
		}
	}
	totals := cl.RobustnessTotals()
	if totals.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", totals.Failovers)
	}
	// 3 experts re-homed out, then 3 reclaimed back.
	if totals.RehomedExperts != 6 {
		t.Fatalf("rehomed = %d, want 6", totals.RehomedExperts)
	}
}

// The whole failover scenario — membership transitions, ownership
// views, degradation profile, counters, and the trained weights —
// replays identically from the seed.
func TestFailoverDeterministicReplay(t *testing.T) {
	type profile struct {
		degraded, alive  int
		stale            int64
		owners           []int
		failovers, homed int64
		state            [][]byte
	}
	run := func(dir string) profile {
		inj := faultinject.New(7)
		inj.Kill(MachineLabel(2), 2, 0)
		cl, err := Start(failoverCfg(inj, dir))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		var p profile
		for s := 1; s <= 5; s++ {
			res := trainStep(t, cl)
			p.degraded += res.DegradedSteps
			p.stale += res.StaleFetches
		}
		p.alive = cl.AliveMachines()
		p.owners = cl.OwnerView()
		totals := cl.RobustnessTotals()
		p.failovers, p.homed = totals.Failovers, totals.RehomedExperts
		if p.state, err = cl.ExpertState(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1 := run(t.TempDir())
	p2 := run(t.TempDir())
	if p1.degraded != p2.degraded || p1.stale != p2.stale ||
		p1.alive != p2.alive || p1.failovers != p2.failovers || p1.homed != p2.homed {
		t.Fatalf("failover profile not reproducible:\n%+v\n%+v", p1, p2)
	}
	for e := range p1.owners {
		if p1.owners[e] != p2.owners[e] {
			t.Fatalf("ownership view not reproducible at expert %d: %v vs %v", e, p1.owners, p2.owners)
		}
	}
	assertSameState(t, "failover replay", p1.state, p2.state)
}

// A corrupted newest checkpoint must not poison failover: the restore
// path rejects it and falls back to the previous committed version.
func TestFailoverSkipsCorruptCheckpoint(t *testing.T) {
	inj := faultinject.New(4)
	inj.Kill(MachineLabel(2), 2, 0)
	dir := t.TempDir()
	cl, err := Start(failoverCfg(inj, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Steps 1-2: two checkpoints committed (the view still includes
	// machine 2 at step 2, so both cover all nine experts).
	for s := 1; s <= 2; s++ {
		trainStep(t, cl)
	}
	// Bit-flip a byte of the newest checkpoint (v2).
	file := filepath.Join(dir, "v00000002.ckpt")
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Load(dir, 2); err == nil {
		t.Fatal("corrupted checkpoint still loads")
	}

	// Step 3: dead-man budget exhausted → failover. The restore path
	// must reject the torn v2 and fall back to v1 — Restores==3 proves
	// the checkpoint path (not the replica path, which would leave
	// Restores at 0) recovered every expert despite the corruption.
	var last TrainResult
	for s := 3; s <= 5; s++ {
		last = trainStep(t, cl)
	}
	checkSurvivors(t, cl, last.FinalOutputs)
	totals := cl.RobustnessTotals()
	if totals.Failovers != 1 || totals.Restores != 3 {
		t.Fatalf("failovers=%d restores=%d, want 1 and 3 (from the older valid checkpoint)",
			totals.Failovers, totals.Restores)
	}
}

// The checkpoint on disk round-trips the dense parameters and the step
// counter alongside the expert entries.
func TestCheckpointCarriesDenseAndStep(t *testing.T) {
	dir := t.TempDir()
	cfg := failoverCfg(nil, dir)
	cfg.Injector = nil
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for s := 1; s <= 2; s++ {
		trainStep(t, cl)
	}
	snap, v, err := checkpoint.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || snap.Step != 2 {
		t.Fatalf("latest checkpoint = v%d step %d, want 2", v, snap.Step)
	}
	if len(snap.Experts) != cl.cfg.NumExperts {
		t.Fatalf("checkpoint covers %d experts, want %d", len(snap.Experts), cl.cfg.NumExperts)
	}
	gate, err := decodeMatrix(snap.Dense)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(gate, cl.layer.Gate.W) {
		t.Fatal("dense entry does not round-trip the gate weights")
	}
	// Version 2 holds the weights after step 2's merge — what the
	// cluster still trains on.
	state, err := cl.ExpertState()
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < cl.cfg.NumExperts; e++ {
		if !bytes.Equal(snap.Experts[uint32(e)], state[e]) {
			t.Fatalf("expert %d weights do not round-trip", e)
		}
	}
}

// Rendezvous assignment is a pure function of (seed, expert,
// candidates): stable across calls, within range, and minimally
// disruptive — removing one machine only moves the experts it owned.
func TestRendezvousOwnerProperties(t *testing.T) {
	all := []int{0, 1, 2, 3}
	for e := 0; e < 64; e++ {
		m1 := rendezvousOwner(99, e, all)
		if m1 != rendezvousOwner(99, e, all) {
			t.Fatal("rendezvous not deterministic")
		}
		if m1 < 0 || m1 > 3 {
			t.Fatalf("owner %d out of range", m1)
		}
		// Remove a machine the expert is NOT on: assignment must hold.
		var without []int
		for _, m := range all {
			if m != (m1+1)%4 {
				without = append(without, m)
			}
		}
		if got := rendezvousOwner(99, e, without); got != m1 {
			t.Fatalf("expert %d moved (%d→%d) though its owner survived", e, m1, got)
		}
	}
	// Different seeds shuffle the assignment.
	diff := false
	for e := 0; e < 64 && !diff; e++ {
		diff = rendezvousOwner(1, e, all) != rendezvousOwner(2, e, all)
	}
	if !diff {
		t.Fatal("seed does not influence rendezvous assignment")
	}
}

// An expert count not divisible across machines is legal now: the
// balanced home split keeps every index in range and every machine
// covered (joins and migrations make counts uneven regardless).
func TestValidateAcceptsUnevenMachineSplit(t *testing.T) {
	cfg := defaultCfg()
	cfg.Machines = 3
	cfg.WorkersPerNode = 1
	cfg.NumExperts = 8 // 8 % 3 != 0: machines get 3/3/2 experts
	if err := cfg.Validate(); err != nil {
		t.Fatalf("uneven expert/machine split rejected: %v", err)
	}
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	perMachine := make([]int, cfg.Machines)
	for e := 0; e < cfg.NumExperts; e++ {
		home := cl.homeMachine(e)
		if home < 0 || home >= cfg.Machines {
			t.Fatalf("expert %d homed out of range on machine %d", e, home)
		}
		perMachine[home]++
	}
	for m, n := range perMachine {
		if n == 0 {
			t.Fatalf("machine %d homes no experts", m)
		}
	}
	if out := trainStep(t, cl); len(out.FinalOutputs) != cfg.Machines*cfg.WorkersPerNode {
		t.Fatalf("got %d outputs", len(out.FinalOutputs))
	}
}

package livecluster

import (
	"fmt"
	"reflect"
	"testing"

	"janus/internal/faultinject"
	"janus/internal/transport"
)

// replCfg is elasticCfg plus synchronous replication: every expert
// keeps one in-sync copy besides its owner.
func replCfg() Config {
	cfg := elasticCfg()
	cfg.Replicas = 1
	cfg.StaleFallback = true
	return cfg
}

// The headline differential: the owner of a replicated expert is killed
// permanently mid-train and the run continues bitwise identical to an
// unfailed twin — weights, outputs, and zero staleness — because
// failover promotes a replica that acked the dead owner's last merged
// version. The dead machine is a joiner (it hosts a migrated expert but
// runs no workers), so its death costs no gradient contributions and
// bitwise identity is actually achievable; what the test pins is that
// the promotion path loses none of the merges the owner had folded.
func TestReplicatedFailoverLossless(t *testing.T) {
	opts := TrainOptions{Steps: 8, LR: 0.05}
	refState, _, refOuts := runTrain(t, elasticCfg, opts)

	drill := func(replicas int) (*Cluster, TrainResult) {
		t.Helper()
		inj := faultinject.New(11)
		inj.Kill("m3", 6, 0) // the joiner dies permanently at step 6
		inj.Kill("m3.client", 6, 0)
		cfg := elasticCfg()
		cfg.Injector = inj
		cfg.Replicas = replicas
		cfg.StaleFallback = true
		// One missed round declares death, so failover (and promotion)
		// run at the top of the kill step, before any pull needs m3.
		cfg.DeadManSteps = 1
		cl, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		eopts := opts
		eopts.JoinAfterStep = 2
		eopts.Migrations = []TrainMigration{{AfterStep: 3, Expert: 4, To: 3}}
		res, err := cl.Train(eopts)
		if err != nil {
			t.Fatalf("replicas=%d: train: %v", replicas, err)
		}
		if err := cl.ViewConsistency(); err != nil {
			t.Fatalf("replicas=%d: %v", replicas, err)
		}
		return cl, res
	}

	// Replicated run: lossless. The promoted replica acked version 5 —
	// the dead owner's last merge — so nothing degrades and the final
	// state matches the unfailed static twin bit for bit.
	cl, res := drill(2)
	state, err := cl.ExpertState()
	if err != nil {
		t.Fatalf("ExpertState: %v", err)
	}
	assertSameState(t, "replicated kill vs unfailed twin", state, refState)
	assertSameOutputs(t, "replicated kill vs unfailed twin", res.FinalOutputs, refOuts)
	if res.MaxStalenessSteps != 0 || res.StaleFetches != 0 {
		t.Fatalf("lossless failover degraded: staleness=%d staleFetches=%d",
			res.MaxStalenessSteps, res.StaleFetches)
	}
	if res.DroppedGrads != 0 {
		t.Fatalf("lossless failover dropped %d gradients", res.DroppedGrads)
	}
	tot := cl.RobustnessTotals()
	if tot.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", tot.Promotions)
	}
	if tot.ReplPushes == 0 {
		t.Fatal("no replica streams recorded")
	}
	if got := cl.currentOwner(4); got == 3 {
		t.Fatal("expert 4 still owned by the dead machine")
	}

	// Unreplicated control: the same kill falls back to the stale copy
	// the migration RELEASE left behind (version 3), so recovery is
	// survivable but lossy — staleness must be visible.
	_, ctrl := drill(0)
	if ctrl.MaxStalenessSteps == 0 {
		t.Fatal("control run shows no staleness — the differential proves nothing")
	}
}

// Killing a replica machine mid-stream must never fork the replica set:
// streams to it fail (observable lag), and once it heals the
// anti-entropy sweep re-streams the missed versions.
func TestReplicaDeathMidStreamRepairs(t *testing.T) {
	inj := faultinject.New(9)
	inj.Kill("m2", 3, 5) // dead during steps 3-4, heals at 5
	inj.Kill("m2.client", 3, 5)
	cfg := replCfg()
	cfg.Injector = inj
	cfg.AntiEntropyEvery = 2
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	step := TrainOptions{Steps: 1, LR: 0.05}
	for s := 1; s <= 8; s++ {
		if _, err := cl.Train(step); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if err := cl.ViewConsistency(); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
	}
	tot := cl.RobustnessTotals()
	if tot.ReplFailures == 0 {
		t.Fatal("no replication failures recorded while the replica was dead")
	}
	if tot.ReplRepairs == 0 {
		t.Fatal("anti-entropy repaired nothing after the replica healed")
	}
	// After the last sync every replica of every expert must be back at
	// its owner's version — divergence repaired, not papered over.
	for e, set := range cl.ReplicaView() {
		o := cl.currentOwner(e)
		id := transport.ExpertID{Expert: uint32(e)}
		want := cl.stores[o].versionOf(id)
		for _, r := range set {
			ent, ok := cl.stores[r].replicaAt(id)
			if !ok || ent.ver != want {
				t.Fatalf("expert %d replica on machine %d not repaired (have %v, want version %d)",
					e, r, ok, want)
			}
		}
	}
}

// A migration onto a machine holding the expert's replica must
// atomically retarget the replica set inside the FENCE — and a driver
// crash right after the fence (phase 3, RELEASE lost) must leave a set
// that anti-entropy can finish repairing, never a forked one.
func TestMigrationFenceRetargetsReplicaSet(t *testing.T) {
	cfg := replCfg()
	cfg.AntiEntropyEvery = 2
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Train(TrainOptions{Steps: 2, LR: 0.05}); err != nil {
		t.Fatal(err)
	}

	// Pick a replicated expert and migrate it onto its own replica.
	var expert, to = -1, -1
	for e, set := range cl.ReplicaView() {
		if len(set) > 0 && cl.currentOwner(e) != set[0] {
			expert, to = e, set[0]
			break
		}
	}
	if expert < 0 {
		t.Fatal("no replicated expert to migrate")
	}
	from := cl.currentOwner(expert)

	cl.migrateAbandon = func(phase int) bool { return phase == 3 }
	if err := cl.MigrateExpert(expert, to); err == nil {
		t.Fatal("abandoned migration reported success")
	}
	cl.migrateAbandon = nil

	// The fence committed: ownership moved, and the set swapped the new
	// owner out for the old one in the same critical section.
	if got := cl.currentOwner(expert); got != to {
		t.Fatalf("owner = %d, want %d (fence committed before the crash)", got, to)
	}
	set := cl.ReplicaView()[expert]
	for _, r := range set {
		if r == to {
			t.Fatalf("replica set %v still contains the new owner %d", set, to)
		}
	}
	found := false
	for _, r := range set {
		if r == from {
			found = true
		}
	}
	if !found {
		t.Fatalf("replica set %v did not adopt the old owner %d", set, from)
	}
	if err := cl.ViewConsistency(); err != nil {
		t.Fatal(err)
	}

	// RELEASE was lost, so the old owner's replica entry is missing —
	// train past an anti-entropy boundary and the sweep must close it.
	if _, err := cl.Train(TrainOptions{Steps: 2, LR: 0.05}); err != nil {
		t.Fatal(err)
	}
	id := transport.ExpertID{Expert: uint32(expert)}
	ent, ok := cl.stores[from].replicaAt(id)
	if !ok {
		t.Fatal("anti-entropy never re-streamed the lost replica")
	}
	if want := cl.stores[to].versionOf(id); ent.ver != want {
		t.Fatalf("repaired replica at version %d, owner at %d", ent.ver, want)
	}
	if tot := cl.RobustnessTotals(); tot.ReplRetargets == 0 {
		t.Fatal("no replica retarget recorded for the fenced migration")
	}
	if err := cl.ViewConsistency(); err != nil {
		t.Fatal(err)
	}
}

// The replica planner is deterministic, owner-disjoint, and duplicate
// free, and honors the ReplicateTop restriction.
func TestPlanReplicasDeterministic(t *testing.T) {
	cfg := replCfg()
	cfg.Replicas = 2
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Skew popularity so the ordering has a real signal.
	for e := 0; e < cfg.NumExperts; e++ {
		cl.load.AddRouted(e, int64(100-10*e))
	}

	plan := cl.PlanReplicas()
	if again := cl.PlanReplicas(); !reflect.DeepEqual(plan, again) {
		t.Fatalf("planner not deterministic:\n%v\n%v", plan, again)
	}
	if len(plan) != cfg.NumExperts {
		t.Fatalf("planned %d experts, want %d", len(plan), cfg.NumExperts)
	}
	for e, set := range plan {
		if len(set) != cfg.Replicas {
			t.Fatalf("expert %d replica set %v, want %d machines", e, set, cfg.Replicas)
		}
		owner := cl.currentOwner(e)
		seen := map[int]bool{}
		for _, r := range set {
			if r == owner {
				t.Fatalf("expert %d replica set %v contains owner %d", e, set, owner)
			}
			if seen[r] || r < 0 || r >= cfg.Machines {
				t.Fatalf("expert %d replica set %v malformed", e, set)
			}
			seen[r] = true
		}
	}

	cl.cfg.ReplicateTop = 3
	top := cl.PlanReplicas()
	if len(top) != 3 {
		t.Fatalf("ReplicateTop=3 planned %d experts", len(top))
	}
	for _, e := range []int{0, 1, 2} { // the three hottest by the skew above
		if _, ok := top[e]; !ok {
			t.Fatalf("hottest expert %d missing from top-restricted plan %v", e, top)
		}
	}
}

// The rebalancer must never migrate an expert onto a machine already
// holding its replica — the move would silently collapse the failure
// domain — and must stay deterministic with the filter applied.
func TestPlanRebalanceReplicaAware(t *testing.T) {
	cl, err := Start(replCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Load skew: machine 0's expert 0 is by far the hottest, machine 2
	// is the cold sink the planner would normally hand it to.
	cl.load.AddRouted(0, 1000)
	cl.load.AddRouted(1, 40)
	cl.load.AddRouted(2, 30)
	for e := 3; e < 6; e++ {
		cl.load.AddRouted(e, 50) // machine 1 mid-loaded
	}

	// Without a replica in the way, the hot expert goes to the sink.
	cl.viewMu.Lock()
	cl.replicas[0] = nil
	cl.viewMu.Unlock()
	moves := cl.PlanRebalance(1)
	if len(moves) != 1 || moves[0].Expert != 0 || moves[0].To != 2 {
		t.Fatalf("baseline plan = %v, want expert 0 -> machine 2", moves)
	}

	// Pin expert 0's replica onto the sink: the collapse case. The
	// planner must skip it and move the next-best expert instead.
	cl.viewMu.Lock()
	cl.replicas[0] = []int{2}
	cl.viewMu.Unlock()
	moves = cl.PlanRebalance(1)
	if again := cl.PlanRebalance(1); !reflect.DeepEqual(moves, again) {
		t.Fatalf("filtered plan not deterministic: %v vs %v", moves, again)
	}
	for _, mv := range moves {
		if mv.Expert == 0 && mv.To == 2 {
			t.Fatalf("plan %v migrates expert 0 onto its replica holder", moves)
		}
	}

	// Ping-pong guard: executing the filtered plan and planning again
	// must not bounce anything straight back.
	if _, err := cl.Rebalance(1); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	first := moves
	moves = cl.PlanRebalance(1)
	for _, mv := range moves {
		for _, prev := range first {
			if mv.Expert == prev.Expert && mv.To == prev.From {
				t.Fatalf("ping-pong: %v reverses %v", mv, prev)
			}
		}
	}
}

// Seeded sanity for the promotion bookkeeping across several kills: the
// promotion log only ever records fenced epochs, and replica invariants
// hold after every failover (ViewConsistency is called inside).
func TestPromotionRecordsFencedEpochs(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := faultinject.New(seed)
			inj.Kill("m2", 3, 0)
			inj.Kill("m2.client", 3, 0)
			cfg := replCfg()
			cfg.Injector = inj
			cfg.DeadManSteps = 1
			cl, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for s := 1; s <= 6; s++ {
				if _, err := cl.Train(TrainOptions{Steps: 1, LR: 0.05}); err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
				if err := cl.ViewConsistency(); err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
			}
			// m2's experts had replicas synced through step 2; the kill at
			// step 3 wants version 2, so every one of them promotes.
			if tot := cl.RobustnessTotals(); tot.Promotions == 0 {
				t.Fatal("permanent kill with in-sync replicas promoted nothing")
			}
			cl.viewMu.Lock()
			n := len(cl.promotions)
			cl.viewMu.Unlock()
			if n == 0 {
				t.Fatal("promotion log empty despite promotions counted")
			}
		})
	}
}

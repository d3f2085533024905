package livecluster

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"janus/internal/faultinject"
	"janus/internal/transport"
)

// elasticCfg is the base shape for the join/migration tests: three
// machines, nine experts (uneven-split capable), failover on so the
// heartbeat runs, no checkpointing — recovery paths that need it build
// on failoverCfg instead.
func elasticCfg() Config {
	return Config{
		Machines: 3, WorkersPerNode: 1,
		NumExperts: 9, TopK: 3, Hidden: 16,
		TokensPerWorker: 24, Seed: 42, Credits: 4,
		PullTimeout: 500 * time.Millisecond, PullRetries: 3,
		RetryBackoff:    2 * time.Millisecond,
		FailoverEnabled: true, DeadManSteps: 2,
		HeartbeatTimeout: 200 * time.Millisecond,
	}
}

// checkViewAgreement enforces the two elastic-membership safety
// invariants at a step boundary: per-machine epochs never move
// backwards, and no two machines on the authoritative side (quorum,
// not fenced, not catching up) that share an epoch disagree on any
// expert's owner. Returns the epoch vector for the next call.
func checkViewAgreement(t *testing.T, cl *Cluster, prev []uint64) []uint64 {
	t.Helper()
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	auth := func(v *memberView) bool { return v.quorum && !v.frozen && !v.catch }
	cur := make([]uint64, len(cl.views))
	for m, v := range cl.views {
		cur[m] = v.epoch
		if m < len(prev) && v.epoch < prev[m] {
			t.Fatalf("machine %d epoch went backwards: %d -> %d", m, prev[m], v.epoch)
		}
	}
	for i, vi := range cl.views {
		if !auth(vi) {
			continue
		}
		for j := i + 1; j < len(cl.views); j++ {
			vj := cl.views[j]
			if !auth(vj) || vi.epoch != vj.epoch {
				continue
			}
			for e := range vi.owner {
				if vi.owner[e] != vj.owner[e] {
					t.Fatalf("ownership fork at epoch %d: machines %d and %d disagree on expert %d (%d vs %d)",
						vi.epoch, i, j, e, vi.owner[e], vj.owner[e])
				}
			}
		}
	}
	return cur
}

// A machine joins a running cluster over the wire and the heartbeat
// absorbs it within two rounds — no restart, and the training run stays
// bitwise on an undisturbed twin's trajectory.
func TestJoinLiveMachine(t *testing.T) {
	cl, err := Start(elasticCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	twin := startTwin(t, elasticCfg)
	res := trainStep(t, cl)
	assertSameOutputs(t, "step 1 vs reference", res.FinalOutputs, cl.RunExpertCentricReference())
	trainStep(t, twin)

	j, err := cl.Join(0)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if j != 3 {
		t.Fatalf("joiner index = %d, want 3", j)
	}
	if cl.numMachines() != 4 {
		t.Fatalf("membership size = %d, want 4", cl.numMachines())
	}
	epochs := checkViewAgreement(t, cl, nil)

	// Two more steps: round one the quorum machines rejoin the newcomer
	// (epoch bump), round two the newcomer reconciles onto the bumped
	// epoch. Weights and outputs must match the twin's throughout — the
	// joiner hosts nothing and runs no workers.
	for s := 0; s < 2; s++ {
		res = trainStep(t, cl)
		epochs = checkViewAgreement(t, cl, epochs)
		assertSameTrained(t, "after the join", cl, twin, res.FinalOutputs, trainStep(t, twin).FinalOutputs)
	}
	if got := cl.AliveMachines(); got != 4 {
		t.Fatalf("alive machines = %d, want 4", got)
	}
	if got := cl.PartitionedMachines(); got != 0 {
		t.Fatalf("partitioned machines = %d, want 0", got)
	}
	for m, e := range epochs {
		if e != epochs[0] {
			t.Fatalf("machine %d epoch %d has not converged with machine 0's %d", m, e, epochs[0])
		}
	}
	if tot := cl.RobustnessTotals(); tot.Joins != 1 {
		t.Fatalf("joins counted = %d, want 1", tot.Joins)
	}
}

// A refused or failed JOIN leaves the cluster exactly as it was, and a
// later join still works; membership events without failover are
// rejected up front.
func TestJoinRefusedRollsBack(t *testing.T) {
	cfg := elasticCfg()
	cfg.FailoverEnabled = false
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Join(0); err == nil {
		t.Fatal("join without failover accepted")
	}
	if _, err := cl.Train(TrainOptions{Steps: 1, JoinAfterStep: 1}); err == nil {
		t.Fatal("membership events without failover accepted")
	}
	cl.Close()

	cl, err = Start(elasticCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Join(-1); err == nil {
		t.Fatal("negative seed accepted")
	}
	if _, err := cl.Join(99); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
	// Force the seed machine off the authoritative side: it must refuse
	// the ADMIT and the half-registered joiner must be rolled back.
	cl.viewMu.Lock()
	cl.views[0].quorum = false
	cl.viewMu.Unlock()
	if _, err := cl.Join(0); err == nil {
		t.Fatal("non-quorum member admitted a join")
	}
	if cl.numMachines() != 3 {
		t.Fatalf("failed join left membership at %d machines, want 3", cl.numMachines())
	}
	cl.viewMu.Lock()
	views, rows := len(cl.views), len(cl.views[1].alive)
	cl.views[0].quorum = true
	cl.viewMu.Unlock()
	if views != 3 || rows != 3 {
		t.Fatalf("failed join left %d views with %d rows, want 3x3", views, rows)
	}
	// The rollback left the cluster fully usable: join for real and run.
	j, err := cl.Join(0)
	if err != nil {
		t.Fatalf("join after rollback: %v", err)
	}
	if j != 3 {
		t.Fatalf("joiner index = %d, want 3", j)
	}
	trainStep(t, cl)
}

// A completed migration flips ownership under one epoch bump, the new
// owner serves, the old owner keeps only a demoted stale replica, and
// training stays bitwise on an undisturbed twin's trajectory
// (placement never touches the math).
func TestMigrateExpertLive(t *testing.T) {
	cl, err := Start(elasticCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	twin := startTwin(t, elasticCfg)
	trainStep(t, cl)
	trainStep(t, twin)
	var total int64
	for _, c := range cl.ExpertLoadCounts() {
		total += c
	}
	if total == 0 {
		t.Fatal("no routed-token load recorded after a training step")
	}

	if got := cl.currentOwner(0); got != 0 {
		t.Fatalf("expert 0 starts on machine %d, want 0", got)
	}
	epoch0 := cl.Epoch()
	if err := cl.MigrateExpert(0, 2); err != nil {
		t.Fatalf("MigrateExpert: %v", err)
	}
	if got := cl.currentOwner(0); got != 2 {
		t.Fatalf("expert 0 owned by machine %d after migration, want 2", got)
	}
	if got := cl.Epoch(); got != epoch0+1 {
		t.Fatalf("epoch = %d after migration, want %d", got, epoch0+1)
	}
	id := transport.ExpertID{Expert: 0}
	if _, ok := cl.stores[2].get(id); !ok {
		t.Fatal("target does not host the migrated expert")
	}
	if _, ok := cl.stores[0].get(id); ok {
		t.Fatal("source still hosts the migrated expert")
	}
	cl.staleMu.Lock()
	ent := cl.stale[0][0]
	cl.staleMu.Unlock()
	if ent == nil {
		t.Fatal("source did not demote its copy to a stale replica")
	}
	// Migrating to the current owner is a counted-free no-op.
	if err := cl.MigrateExpert(0, 2); err != nil {
		t.Fatalf("no-op migration: %v", err)
	}
	if tot := cl.RobustnessTotals(); tot.Migrations != 1 || tot.MigrationRollbacks != 0 {
		t.Fatalf("migration counters = %d/%d, want 1/0", tot.Migrations, tot.MigrationRollbacks)
	}
	checkViewAgreement(t, cl, nil)

	res := trainStep(t, cl)
	assertSameTrained(t, "after migration", cl, twin, res.FinalOutputs, trainStep(t, twin).FinalOutputs)
}

// The acceptance differential: a live join plus three live migrations
// (two onto the joiner) under injected gray-slow and drop faults land
// exactly the weights and outputs of an undisturbed static-placement
// run — bit for bit.
func TestTrainElasticDifferential(t *testing.T) {
	opts := TrainOptions{Steps: 8, LR: 0.05, Microbatches: 2}
	refState, _, refOuts := runTrain(t, elasticCfg, opts)

	inj := faultinject.New(7)
	// A gray-slow member and a lossy (but retry-survivable) one: drops
	// are bounded by the Times budget and every affected op retries
	// under an exactly-once token, so no gradient or pull is lost.
	inj.Slow("m1", 2*time.Millisecond, time.Millisecond, 1)
	inj.AddRule(faultinject.Rule{
		Label: "m2", FromStep: 3, ToStep: 6, Times: 2,
		Fault: faultinject.Fault{DropProb: 1},
	})
	cfg := elasticCfg()
	cfg.Injector = inj
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	eopts := opts
	eopts.JoinAfterStep = 2 // machine 3 joins after step 2, alive by step 3
	eopts.Migrations = []TrainMigration{
		{AfterStep: 4, Expert: 0, To: 3},
		{AfterStep: 5, Expert: 4, To: 3},
		{AfterStep: 6, Expert: 8, To: 0},
	}
	res, err := cl.Train(eopts)
	if err != nil {
		t.Fatalf("elastic train: %v", err)
	}
	state, err := cl.ExpertState()
	if err != nil {
		t.Fatalf("ExpertState: %v", err)
	}
	assertSameState(t, "elastic vs static", state, refState)
	assertSameOutputs(t, "elastic vs static", res.FinalOutputs, refOuts)

	tot := cl.RobustnessTotals()
	if tot.Joins != 1 {
		t.Fatalf("joins = %d, want 1", tot.Joins)
	}
	if tot.Migrations != 3 {
		t.Fatalf("migrations = %d (rollbacks %d), want 3", tot.Migrations, tot.MigrationRollbacks)
	}
	if o0, o4, o8 := cl.currentOwner(0), cl.currentOwner(4), cl.currentOwner(8); o0 != 3 || o4 != 3 || o8 != 0 {
		t.Fatalf("post-migration owners = %d/%d/%d, want 3/3/0", o0, o4, o8)
	}
	checkViewAgreement(t, cl, nil)
}

// Killing the migration driver after each phase must never fork
// ownership: a pre-fence crash rolls back completely (training
// continues on the old owner), a post-fence crash leaves the handoff in
// effect (training continues on the new owner). Either way the final
// weights match an undisturbed run bitwise.
func TestMigrationAbandonAtEachPhase(t *testing.T) {
	refState, _, refOuts := runTrain(t, elasticCfg, TrainOptions{Steps: 5, LR: 0.05})

	for phase := 1; phase <= 3; phase++ {
		name := fmt.Sprintf("abandon after phase %d", phase)
		cl, err := Start(elasticCfg())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Train(TrainOptions{Steps: 2, LR: 0.05}); err != nil {
			t.Fatalf("%s: pre-train: %v", name, err)
		}
		cl.migrateAbandon = func(p int) bool { return p == phase }
		err = cl.MigrateExpert(0, 1)
		cl.migrateAbandon = nil
		if !errors.Is(err, errMigrationAbandoned) {
			t.Fatalf("%s: err = %v, want abandoned", name, err)
		}

		id := transport.ExpertID{Expert: 0}
		tot := cl.RobustnessTotals()
		if phase < 3 {
			// Pre-fence crash: complete rollback. The source still owns
			// and hosts; anything parked on the target is inert.
			if got := cl.currentOwner(0); got != 0 {
				t.Fatalf("%s: ownership moved to %d despite pre-fence crash", name, got)
			}
			if tot.Migrations != 0 || tot.MigrationRollbacks != 1 {
				t.Fatalf("%s: counters = %d/%d, want 0 migrations / 1 rollback", name, tot.Migrations, tot.MigrationRollbacks)
			}
			if _, ok := cl.stores[0].get(id); !ok {
				t.Fatalf("%s: source dropped the expert", name)
			}
			ts := cl.stores[1]
			ts.mu.Lock()
			_, staged := ts.staged[id]
			_, hosted := ts.experts[id]
			ts.mu.Unlock()
			if phase == 1 && (!staged || hosted) {
				t.Fatalf("%s: target staged=%v hosted=%v, want staged-only", name, staged, hosted)
			}
			if phase == 2 && (staged || !hosted) {
				t.Fatalf("%s: target staged=%v hosted=%v, want committed-but-unrouted", name, staged, hosted)
			}
		} else {
			// Post-fence crash: the handoff is already in effect; only
			// the source-side cleanup was lost.
			if got := cl.currentOwner(0); got != 1 {
				t.Fatalf("%s: ownership on %d despite committed fence", name, got)
			}
			if tot.Migrations != 1 || tot.MigrationRollbacks != 0 {
				t.Fatalf("%s: counters = %d/%d, want 1 migration / 0 rollbacks", name, tot.Migrations, tot.MigrationRollbacks)
			}
			if _, ok := cl.stores[1].get(id); !ok {
				t.Fatalf("%s: new owner does not host the expert", name)
			}
		}
		checkViewAgreement(t, cl, nil)

		// The run continues to the same bitwise endpoint either way.
		res, err := cl.Train(TrainOptions{Steps: 3, LR: 0.05})
		if err != nil {
			t.Fatalf("%s: resumed train: %v", name, err)
		}
		state, err := cl.ExpertState()
		if err != nil {
			t.Fatalf("%s: ExpertState: %v", name, err)
		}
		assertSameState(t, name, state, refState)
		assertSameOutputs(t, name, res.FinalOutputs, refOuts)
		cl.Close()
	}
}

// A TRANSFER that dies on the wire rolls back cleanly, and the same
// migration succeeds once the fault heals.
func TestMigrationTransferFailureRollsBack(t *testing.T) {
	inj := faultinject.New(3)
	inj.Kill("m1", 5, 7) // target's server is dead for steps 5-6 only
	cfg := elasticCfg()
	cfg.Injector = inj
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	twin := startTwin(t, elasticCfg)
	trainStep(t, cl)
	trainStep(t, twin)

	inj.SetStep(5)
	if err := cl.MigrateExpert(0, 1); err == nil {
		t.Fatal("transfer into a dead machine succeeded")
	}
	if got := cl.currentOwner(0); got != 0 {
		t.Fatalf("failed transfer moved ownership to %d", got)
	}
	if tot := cl.RobustnessTotals(); tot.MigrationRollbacks != 1 || tot.Migrations != 0 {
		t.Fatalf("counters = %d/%d, want 0 migrations / 1 rollback", tot.Migrations, tot.MigrationRollbacks)
	}
	id := transport.ExpertID{Expert: 0}
	if _, ok := cl.stores[0].get(id); !ok {
		t.Fatal("source dropped the expert on a failed transfer")
	}
	if _, ok := cl.stores[1].get(id); ok {
		t.Fatal("dead target hosts the expert")
	}
	checkViewAgreement(t, cl, nil)

	inj.SetStep(7) // healed
	if err := cl.MigrateExpert(0, 1); err != nil {
		t.Fatalf("healed migration: %v", err)
	}
	if got := cl.currentOwner(0); got != 1 {
		t.Fatalf("healed migration left owner %d, want 1", got)
	}
	res := trainStep(t, cl) // advances to step 2, outside the window
	assertSameTrained(t, "after healed migration", cl, twin, res.FinalOutputs, trainStep(t, twin).FinalOutputs)
}

// Satellite regression: a cluster that migrated experts restarts with
// the migrated (uneven, off-home) ownership map — Validate accepts it,
// Start honours it, and training matches a home-placed twin bitwise.
func TestRestartWithMigratedPlacement(t *testing.T) {
	cl, err := Start(elasticCfg())
	if err != nil {
		t.Fatal(err)
	}
	trainStep(t, cl)
	if err := cl.MigrateExpert(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := cl.MigrateExpert(4, 0); err != nil {
		t.Fatal(err)
	}
	owners := cl.OwnerView()
	cl.Close()

	cfg := elasticCfg()
	cfg.InitialOwners = owners
	if err := cfg.Validate(); err != nil {
		t.Fatalf("migrated ownership map rejected at restart: %v", err)
	}
	cl2, err := Start(cfg)
	if err != nil {
		t.Fatalf("restart with migrated placement: %v", err)
	}
	defer cl2.Close()
	for e, want := range owners {
		if got := cl2.currentOwner(e); got != want {
			t.Fatalf("expert %d restarted on machine %d, want %d", e, got, want)
		}
	}
	twin := startTwin(t, elasticCfg)
	res := trainStep(t, cl2)
	assertSameTrained(t, "restarted placement", cl2, twin, res.FinalOutputs, trainStep(t, twin).FinalOutputs)
}

// The popularity-weighted rebalancer: deterministic plans, strict
// improvement only, and execution through the fenced handoff.
func TestRebalanceMovesHotExperts(t *testing.T) {
	cl, err := Start(elasticCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Machine 0 (experts 0-2) is scorching: two hot experts plus a
	// uniform background. The greedy planner must hand the hottest
	// expert to the coldest machine (lowest id wins the tie).
	cl.load.AddRouted(0, 10)
	cl.load.AddRouted(1, 10)
	for e := 2; e < 9; e++ {
		cl.load.AddRouted(e, 1)
	}
	moves := cl.PlanRebalance(1)
	if !reflect.DeepEqual(moves, cl.PlanRebalance(1)) {
		t.Fatal("rebalance plan is not deterministic")
	}
	want := []Move{{Expert: 0, From: 0, To: 1}}
	if !reflect.DeepEqual(moves, want) {
		t.Fatalf("plan = %+v, want %+v", moves, want)
	}
	n, err := cl.Rebalance(1)
	if err != nil || n != 1 {
		t.Fatalf("Rebalance = %d, %v, want 1 move", n, err)
	}
	if got := cl.currentOwner(0); got != 1 {
		t.Fatalf("rebalanced expert 0 owned by %d, want 1", got)
	}
	if tot := cl.RobustnessTotals(); tot.Migrations != 1 {
		t.Fatalf("rebalance executed %d migrations, want 1", tot.Migrations)
	}
	// With the load now spread, a fresh plan must not ping-pong the
	// hot expert straight back.
	for _, mv := range cl.PlanRebalance(1) {
		if mv.Expert == 0 && mv.To == 0 {
			t.Fatalf("plan ping-pongs expert 0 back: %+v", mv)
		}
	}
}

// Satellite property test: under interleaved crash, heal, gray flap,
// join, migration, and rebalancing, every machine's epoch is monotonic
// and no two same-epoch authoritative views ever disagree on ownership
// — sampled at every step boundary across seeds. Replication rides
// along (Replicas=1), so every boundary also checks the replica
// invariants via ViewConsistency: no set contains its owner, no replica
// version leads its owner, promotions only from fenced epochs.
func TestElasticChurnInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := faultinject.New(seed)
			inj.Kill("m2", 4, 6) // crash + heal: failover then rejoin
			inj.Kill("m2.client", 4, 6)
			inj.Flap("m1", 6, 10, 1, 2) // gray flapper under the dead-man budget
			cfg := failoverCfg(inj, t.TempDir())
			cfg.Replicas = 1
			cl, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			prev := checkViewAgreement(t, cl, nil)
			step := TrainOptions{Steps: 1, LR: 0.05}
			for s := 1; s <= 10; s++ {
				if _, err := cl.Train(step); err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
				prev = checkViewAgreement(t, cl, prev)
				if err := cl.ViewConsistency(); err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
				switch s {
				case 2:
					if _, err := cl.Join(0); err != nil {
						t.Fatalf("step %d: join: %v", s, err)
					}
				case 5:
					// Best effort mid-churn: a refusal is fine, a fork is not.
					_ = cl.MigrateExpert(1, 3)
				case 7:
					_, _ = cl.Rebalance(1)
				}
				prev = checkViewAgreement(t, cl, prev)
			}
			if _, err := cl.ExpertState(); err != nil {
				t.Fatalf("training state unreadable after churn: %v", err)
			}
			if tot := cl.RobustnessTotals(); tot.Joins != 1 {
				t.Fatalf("joins = %d, want 1", tot.Joins)
			}
		})
	}
}

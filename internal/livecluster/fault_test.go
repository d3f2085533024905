package livecluster

import (
	"math"
	"testing"
	"time"

	"janus/internal/faultinject"
	"janus/internal/tensor"
)

// faultCfg tunes the retry budget for test speed: failures against a
// killed server surface as fast connection errors, so the timeout only
// bounds the rare hung-write case.
func faultCfg(inj *faultinject.Injector) Config {
	cfg := defaultCfg()
	cfg.Injector = inj
	cfg.StaleFallback = true
	cfg.PullTimeout = 300 * time.Millisecond
	cfg.PullRetries = 2
	cfg.RetryBackoff = 2 * time.Millisecond
	return cfg
}

func finite(m *tensor.Matrix) bool {
	for _, v := range m.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// The acceptance scenario: machine 1's server is killed for steps 2-3.
// The cluster must complete those training steps in stale-weights mode
// (degraded, finite outputs) and recover to clean steps when the server
// returns at step 4.
func TestKillServerStaleFallbackAndRecovery(t *testing.T) {
	inj := faultinject.New(1)
	inj.Kill(MachineLabel(1), 2, 4)
	cl, err := Start(faultCfg(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	check := func(step int, wantDegraded bool) TrainResult {
		t.Helper()
		res := trainStep(t, cl)
		if got := res.DegradedSteps > 0; got != wantDegraded {
			t.Fatalf("step %d: degraded=%v, want %v (robust: %v)", step, got, wantDegraded, res.Robust)
		}
		for w, out := range res.FinalOutputs {
			if out == nil {
				t.Fatalf("step %d: worker %d produced no output", step, w)
			}
			if !finite(out) {
				t.Fatalf("step %d: worker %d output not finite", step, w)
			}
		}
		return res
	}

	// Step 1: healthy — warms every machine's durable expert cache, and
	// computes on untouched weights, so it matches the reference.
	res := check(1, false)
	if res.StaleFetches != 0 || res.Robust.Retries != 0 {
		t.Fatalf("healthy step reported faults: %+v", res.Robust)
	}
	assertSameOutputs(t, "step 1 vs reference", res.FinalOutputs, cl.RunExpertCentricReference())

	// Steps 2-3: machine 1 dead. Machine 0 serves its externals stale.
	res = check(2, true)
	if res.StaleFetches == 0 {
		t.Fatal("no stale fetches during outage")
	}
	if res.Robust.Retries == 0 {
		t.Fatal("no retries during outage")
	}
	res = check(3, true)
	if res.MaxStalenessSteps < 2 {
		t.Fatalf("staleness = %d at step 3, want >= 2 (cache from step 1)", res.MaxStalenessSteps)
	}

	// Step 4: server back. Fresh pulls, zero degraded steps.
	res = check(4, false)
	if res.StaleFetches != 0 || res.DroppedGrads != 0 {
		t.Fatalf("post-recovery step still degraded: %+v", res)
	}
	if res.Robust.Reconnects == 0 {
		t.Fatal("recovery did not reconnect to the restored server")
	}
}

// Without StaleFallback the same outage is a hard error — the previous
// fail-fast contract is preserved for callers that want it.
func TestKillWithoutFallbackFails(t *testing.T) {
	inj := faultinject.New(2)
	inj.Kill(MachineLabel(1), 1, 0)
	cfg := faultCfg(inj)
	cfg.StaleFallback = false
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Train(TrainOptions{Steps: 1}); err == nil {
		t.Fatal("step against a dead owner succeeded without fallback")
	}
}

// A cold outage (no warmed cache) cannot degrade gracefully: the error
// must surface rather than fabricating weights.
func TestColdOutageStillErrors(t *testing.T) {
	inj := faultinject.New(3)
	inj.Kill(MachineLabel(1), 1, 0) // dead from the very first step
	cl, err := Start(faultCfg(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Train(TrainOptions{Steps: 1}); err == nil {
		t.Fatal("step succeeded with no cached copy of a dead owner's experts")
	}
}

// Dropped-write faults (lost acks) must neither double-apply nor lose a
// gradient: retransmissions carry exactly-once tokens, so a lockstep run
// under the drops lands on the weights of a clean lockstep run bitwise —
// any extra or missing contribution would change them.
func TestLostAcksDoNotDoubleApplyGrads(t *testing.T) {
	opts := TrainOptions{Steps: 3}
	cleanState, _, _ := runTrain(t, defaultCfg, opts)

	inj := faultinject.New(4)
	// Drop a handful of server writes across the run; retries recover.
	inj.AddRule(faultinject.Rule{Label: MachineLabel(0), Times: 2, Fault: faultinject.Fault{DropProb: 0.2}})
	inj.AddRule(faultinject.Rule{Label: MachineLabel(1), Times: 2, Fault: faultinject.Fault{DropProb: 0.2}})
	cfg := faultCfg(inj)
	cfg.PullTimeout = 150 * time.Millisecond
	cfg.PullRetries = 4
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Train(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleFetches != 0 || res.DroppedGrads != 0 {
		t.Fatalf("retries did not recover every drop: stale=%d dropped=%d", res.StaleFetches, res.DroppedGrads)
	}
	state, err := cl.ExpertState()
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, "lost acks vs clean", state, cleanState)
	tot := cl.RobustnessTotals()
	t.Logf("drops recovered: retries=%d timeouts=%d grad-dups=%d", tot.Retries, tot.Timeouts, tot.GradDups)
}

// Fault runs are reproducible: the same seed and policy produce the
// same degradation profile.
func TestFaultRunDeterministicDegradation(t *testing.T) {
	run := func() (int, int64) {
		inj := faultinject.New(7)
		inj.Kill(MachineLabel(1), 2, 3)
		cl, err := Start(faultCfg(inj))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		degraded, stale := 0, int64(0)
		for s := 0; s < 3; s++ {
			res := trainStep(t, cl)
			degraded += res.DegradedSteps
			stale += res.StaleFetches
		}
		return degraded, stale
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Fatalf("degradation profile not reproducible: (%d,%d) vs (%d,%d)", d1, s1, d2, s2)
	}
	if d1 != 1 {
		t.Fatalf("degraded steps = %d, want exactly 1 (the kill window)", d1)
	}
}

package livecluster

import (
	"bytes"
	"testing"
	"time"

	"janus/internal/faultinject"
	"janus/internal/tensor"
)

// runTrain starts a fresh cluster from mkcfg, trains it, and returns
// the final expert weights (encoded), the result, and the outputs.
// mkcfg must build a fresh Config (injectors are stateful).
func runTrain(t *testing.T, mkcfg func() Config, opts TrainOptions) ([][]byte, TrainResult, []*tensor.Matrix) {
	t.Helper()
	cl, err := Start(mkcfg())
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer cl.Close()
	res, err := cl.Train(opts)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	state, err := cl.ExpertState()
	if err != nil {
		t.Fatalf("ExpertState: %v", err)
	}
	return state, res, res.FinalOutputs
}

// trainStep runs one lockstep training step on cl, failing the test on
// error — the per-step driver of the fault and membership tests.
func trainStep(t *testing.T, cl *Cluster) TrainResult {
	t.Helper()
	res, err := cl.Train(TrainOptions{Steps: 1})
	if err != nil {
		t.Fatalf("step %d: %v", cl.TrainSteps()+1, err)
	}
	return res
}

// startTwin starts an undisturbed cluster from mkcfg, closed with the
// test — the reference a disturbed run is stepped alongside.
func startTwin(t *testing.T, mkcfg func() Config) *Cluster {
	t.Helper()
	twin, err := Start(mkcfg())
	if err != nil {
		t.Fatalf("Start twin: %v", err)
	}
	t.Cleanup(twin.Close)
	return twin
}

// assertSameTrained compares two clusters' expert weights and the given
// step outputs bitwise.
func assertSameTrained(t *testing.T, name string, a, b *Cluster, aOut, bOut []*tensor.Matrix) {
	t.Helper()
	as, err := a.ExpertState()
	if err != nil {
		t.Fatalf("%s: ExpertState: %v", name, err)
	}
	bs, err := b.ExpertState()
	if err != nil {
		t.Fatalf("%s: ExpertState: %v", name, err)
	}
	assertSameState(t, name, as, bs)
	assertSameOutputs(t, name, aOut, bOut)
}

func assertSameState(t *testing.T, name string, a, b [][]byte) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: expert count %d vs %d", name, len(a), len(b))
	}
	for e := range a {
		if !bytes.Equal(a[e], b[e]) {
			t.Fatalf("%s: expert %d weights differ bitwise", name, e)
		}
	}
}

func assertSameOutputs(t *testing.T, name string, a, b []*tensor.Matrix) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: worker count %d vs %d", name, len(a), len(b))
	}
	for w := range a {
		switch {
		case a[w] == nil && b[w] == nil:
		case a[w] == nil || b[w] == nil:
			t.Fatalf("%s: worker %d output nil mismatch", name, w)
		case !tensor.Equal(a[w], b[w]):
			t.Fatalf("%s: worker %d outputs differ bitwise", name, w)
		}
	}
}

// TestTrainPipelinedBitIdentical is the headline differential: on a
// clean cluster the pipelined schedule must reproduce the lockstep
// weights and outputs bitwise, for single and multi-microbatch plans.
func TestTrainPipelinedBitIdentical(t *testing.T) {
	for _, m := range []int{1, 3} {
		opts := TrainOptions{Steps: 4, Microbatches: m}
		lockState, _, lockOut := runTrain(t, defaultCfg, opts)
		opts.Pipelined = true
		pipeState, pres, pipeOut := runTrain(t, defaultCfg, opts)
		assertSameState(t, "clean", lockState, pipeState)
		assertSameOutputs(t, "clean", lockOut, pipeOut)
		if pres.Synced {
			t.Fatalf("M=%d: clean pipelined run unexpectedly step-synced", m)
		}
		if pres.Pipeline.Merges == 0 {
			t.Fatalf("M=%d: overlap mode applied no count-triggered merges", m)
		}
	}
}

// TestTrainSplitCallsMatchSingleCall pins that the version clock
// continues across Train calls: 2+2 steps equals 4 steps bitwise.
func TestTrainSplitCallsMatchSingleCall(t *testing.T) {
	oneState, _, _ := runTrain(t, defaultCfg, TrainOptions{Steps: 4, Microbatches: 2, Pipelined: true})

	cl, err := Start(defaultCfg())
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer cl.Close()
	opts := TrainOptions{Steps: 2, Microbatches: 2, Pipelined: true}
	if _, err := cl.Train(opts); err != nil {
		t.Fatalf("Train 1: %v", err)
	}
	if _, err := cl.Train(opts); err != nil {
		t.Fatalf("Train 2: %v", err)
	}
	if got := cl.TrainSteps(); got != 4 {
		t.Fatalf("TrainSteps = %d, want 4", got)
	}
	splitState, err := cl.ExpertState()
	if err != nil {
		t.Fatalf("ExpertState: %v", err)
	}
	assertSameState(t, "split", oneState, splitState)
}

// TestTrainFirstStepMicrobatchInvariant: a single step's forward runs
// on the untouched initial weights, and forward is bitwise microbatch-
// invariant (per-row kernels), so the step-1 outputs must not depend
// on M even though later weight trajectories do.
func TestTrainFirstStepMicrobatchInvariant(t *testing.T) {
	_, _, out1 := runTrain(t, defaultCfg, TrainOptions{Steps: 1, Microbatches: 1})
	_, _, out4 := runTrain(t, defaultCfg, TrainOptions{Steps: 1, Microbatches: 4, Pipelined: true})
	assertSameOutputs(t, "first-step", out1, out4)
}

// TestTrainOverlapUnderDelay: a pure-delay injector is outcome-neutral,
// so the pipelined run keeps free cross-step overlap and must still
// match lockstep bitwise.
func TestTrainOverlapUnderDelay(t *testing.T) {
	mkcfg := func() Config {
		cfg := defaultCfg()
		in := faultinject.New(7)
		in.AddRule(faultinject.Rule{Fault: faultinject.Fault{Delay: 200 * time.Microsecond}})
		cfg.Injector = in
		return cfg
	}
	opts := TrainOptions{Steps: 3, Microbatches: 2}
	lockState, _, _ := runTrain(t, mkcfg, opts)
	opts.Pipelined = true
	pipeState, pres, _ := runTrain(t, mkcfg, opts)
	assertSameState(t, "delay", lockState, pipeState)
	if pres.Synced {
		t.Fatal("delay-only injector should not force the step-synced schedule")
	}
}

// TestTrainKillWindowDifferential: a transient owner kill with stale
// fallback degrades both schedules identically — the pipelined run
// drops to step-synced (kill rules are step-gated) and the surviving
// fold is still bitwise equal.
func TestTrainKillWindowDifferential(t *testing.T) {
	mkcfg := func() Config {
		cfg := defaultCfg()
		in := faultinject.New(7)
		in.Kill("m1", 2, 4)
		cfg.Injector = in
		cfg.StaleFallback = true
		cfg.PullTimeout = 500 * time.Millisecond
		return cfg
	}
	opts := TrainOptions{Steps: 5, Microbatches: 2}
	lockState, lres, _ := runTrain(t, mkcfg, opts)
	opts.Pipelined = true
	pipeState, pres, _ := runTrain(t, mkcfg, opts)
	assertSameState(t, "kill-window", lockState, pipeState)
	if !pres.Synced {
		t.Fatal("kill rules must force the step-synced schedule")
	}
	for name, res := range map[string]TrainResult{"lockstep": lres, "pipelined": pres} {
		if res.StaleFetches == 0 && res.DroppedGrads == 0 {
			t.Fatalf("%s: kill window caused no degradation (test not exercising the fallback)", name)
		}
		if res.DegradedSteps == 0 {
			t.Fatalf("%s: degraded steps not counted", name)
		}
	}
	if lres.StaleFetches != pres.StaleFetches || lres.DroppedGrads != pres.DroppedGrads {
		t.Fatalf("degradation telemetry diverged: lockstep %d/%d vs pipelined %d/%d",
			lres.StaleFetches, lres.DroppedGrads, pres.StaleFetches, pres.DroppedGrads)
	}
}

// TestTrainFailoverDifferential: a permanent machine death with
// failover, checkpoints and stale fallback must still produce bitwise
// equal weights in both schedules (the pipelined run is step-synced, so
// membership changes only at step boundaries in both).
func TestTrainFailoverDifferential(t *testing.T) {
	mkcfg := func(dir string) func() Config {
		return func() Config {
			cfg := defaultCfg()
			cfg.Machines = 3
			cfg.WorkersPerNode = 1
			cfg.NumExperts = 9
			in := faultinject.New(7)
			in.Kill("m2", 2, 0)
			in.Kill("m2.client", 2, 0)
			cfg.Injector = in
			cfg.StaleFallback = true
			cfg.FailoverEnabled = true
			cfg.HeartbeatTimeout = 100 * time.Millisecond
			cfg.PullTimeout = 500 * time.Millisecond
			cfg.CheckpointDir = dir
			cfg.CheckpointEvery = 1
			return cfg
		}
	}
	opts := TrainOptions{Steps: 6, Microbatches: 2}
	lockState, lres, _ := runTrain(t, mkcfg(t.TempDir()), opts)
	opts.Pipelined = true
	pipeState, pres, _ := runTrain(t, mkcfg(t.TempDir()), opts)
	assertSameState(t, "failover", lockState, pipeState)
	if !pres.Synced {
		t.Fatal("failover must force the step-synced schedule")
	}
	for name, res := range map[string]TrainResult{"lockstep": lres, "pipelined": pres} {
		if res.AliveMachines != 2 {
			t.Fatalf("%s: alive=%d, want 2 (machine 2 permanently dead)", name, res.AliveMachines)
		}
	}
	if lres.AliveMachines != pres.AliveMachines {
		t.Fatalf("membership diverged: %d vs %d", lres.AliveMachines, pres.AliveMachines)
	}
}

// TestTrainPipelineCounters sanity-checks the new telemetry: microbatch
// count matches the plan, and the lockstep run merges only via flush.
func TestTrainPipelineCounters(t *testing.T) {
	_, res, _ := runTrain(t, defaultCfg, TrainOptions{Steps: 2, Microbatches: 3})
	if res.Pipeline.Merges != 0 {
		t.Fatalf("lockstep run applied %d count-triggered merges, want 0", res.Pipeline.Merges)
	}
	if res.Pipeline.Flushes == 0 {
		t.Fatal("lockstep run recorded no flush merges")
	}
	cfg := defaultCfg()
	wantPieces := int64(cfg.numWorkers()) * 3 * 2 // workers × microbatches × steps
	if res.Pipeline.Microbatches != wantPieces {
		t.Fatalf("microbatch pieces = %d, want %d", res.Pipeline.Microbatches, wantPieces)
	}
}

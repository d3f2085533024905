package livecluster

import (
	"runtime/debug"
	"testing"
)

// allocsRetry measures fn's steady-state allocations, retrying while
// nonzero: AllocsPerRun counts process-global mallocs, so a stray
// allocation from another test's winding-down goroutine can pollute
// one measurement. A real per-op leak (>= 1 alloc every run) fails
// every attempt deterministically.
func allocsRetry(runs int, fn func()) float64 {
	var n float64
	for attempt := 0; attempt < 3; attempt++ {
		n = testing.AllocsPerRun(runs, fn)
		if n == 0 {
			return 0
		}
	}
	return n
}

// TestTrainSteadyStateZeroAlloc is the tentpole's regression gate: one
// full pipelined Train call on a warmed cluster — version pulls,
// routing/gather, fused forward/backward, JGR1 pushes, merges, SGD
// applies, across all 8 machines' clients, servers, and stores — must
// perform zero heap allocations. Every buffer the iteration touches
// comes from a pool or a slot on the persistent train runtime; this
// test pins that property bitwise-visibly (allocation count, not
// bytes, so a single escaped local fails it).
//
// GC is disabled for the measurement window because sync.Pool empties
// its victim caches on every cycle — a GC mid-run would force pool
// refills that are amortized noise in benchmarks but spurious failures
// in an exact gate.
func TestTrainSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race runtime")
	}
	cl, err := Start(trainBenchCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	opts := TrainOptions{Steps: benchTrainSteps, Microbatches: 2, Pipelined: true, ReuseOutputs: true}
	train := func() {
		if _, err := cl.Train(opts); err != nil {
			t.Fatal(err)
		}
	}
	train() // warm plan, runtime, connections
	train() // fill every recycled-buffer pool
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := allocsRetry(5, train); n != 0 {
		t.Fatalf("pipelined Train: %v allocs/op in steady state, want 0", n)
	}
}

// TestTrainLockstepSteadyStateZeroAlloc gates the barriered schedule
// on the same runtime: the two schedules share slots and pools, so
// both must hold the invariant.
func TestTrainLockstepSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race runtime")
	}
	cl, err := Start(trainBenchCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	opts := TrainOptions{Steps: benchTrainSteps, Microbatches: 2, Pipelined: false, ReuseOutputs: true}
	train := func() {
		if _, err := cl.Train(opts); err != nil {
			t.Fatal(err)
		}
	}
	train()
	train()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := allocsRetry(5, train); n != 0 {
		t.Fatalf("lockstep Train: %v allocs/op in steady state, want 0", n)
	}
}

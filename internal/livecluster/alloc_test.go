package livecluster

import (
	"runtime"
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

// TestTrainRetainedHeap bounds what a warmed train_bulk-shaped cluster
// keeps alive between Train calls. A machine may hold a decoded copy of
// every expert (its own, its stale cache, a store's published
// encoding), so the bound is three copies of the whole model per
// machine; nothing may scale with the worker count. At this shape
// per-push-worker encode buffers (≈140 MB) or a rotating set of pulled
// wire copies per (machine, expert) (≈60 MB) each push the retained
// heap past the bound. The two forced GCs drop sync.Pool's victim
// caches, so pooled frames idle between calls do not count.
func TestTrainRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's shadow memory skews heap accounting")
	}
	cfg := trainBenchCfg()
	cfg.Hidden = 64
	cfg.TokensPerWorker = 64
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	opts := TrainOptions{Steps: benchTrainSteps, Microbatches: 2, Pipelined: true, Depth: 2, ReuseOutputs: true}
	for i := 0; i < 2; i++ {
		if _, err := cl.Train(opts); err != nil {
			t.Fatal(err)
		}
	}
	grew := heap() - before
	expertBytes := int64(32 * cfg.Hidden * cfg.Hidden) // W1 and W2: 8·H² float32s
	bound := 3 * int64(cfg.Machines*cfg.NumExperts) * expertBytes
	t.Logf("retained heap %.1f MB, bound %.1f MB", float64(grew)/1e6, float64(bound)/1e6)
	if grew > bound {
		t.Fatalf("warm cluster retains %d heap bytes, want at most %d", grew, bound)
	}
}

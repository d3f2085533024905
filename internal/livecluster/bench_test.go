package livecluster

import (
	"testing"
	"time"

	"janus/internal/faultinject"
)

// BenchmarkIteration measures one steady-state data-centric iteration
// of a small live cluster: real TCP pulls, forward compute, and
// gradient pushes. The ISSUE 3 fast path (static routing index, pooled
// scratch, memoized expert encodings, overlapped prefetch and pushes)
// is what this guards.
func BenchmarkIteration(b *testing.B) {
	benchIteration(b, nil)
}

// BenchmarkIterationRTT is the same workload with 100µs injected on
// every socket read and write (~0.4ms per round trip), approximating a
// datacenter network instead of kernel loopback. This is the regime
// the overlap optimizations target: with real latency, sequential
// pulls and pushes stack round trips that the prefetch wave and the
// parallel gradient pushes hide.
func BenchmarkIterationRTT(b *testing.B) {
	inj := faultinject.New(7)
	inj.AddRule(faultinject.Rule{Fault: faultinject.Fault{Delay: 100 * time.Microsecond}})
	benchIteration(b, inj)
}

func benchIteration(b *testing.B, inj *faultinject.Injector) {
	cl, err := Start(benchCfg(inj))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.RunDataCentric(); err != nil { // warm caches and connections
		b.Fatal(err)
	}
	if _, err := cl.RunDataCentric(); err != nil { // second pass fills every recycled-buffer pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.RunDataCentric(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCfg(inj *faultinject.Injector) Config {
	return Config{
		Machines:        8,
		WorkersPerNode:  1,
		NumExperts:      32,
		TopK:            2,
		Hidden:          32,
		TokensPerWorker: 8,
		Seed:            42,
		Credits:         16,
		Injector:        inj,
	}
}

// benchTrainSteps is the per-op step count of the training benchmarks:
// long enough for the pipeline to fill (> depth) and drain.
const benchTrainSteps = 8

// trainBenchCfg is the training-benchmark cluster: same topology as the
// iteration benchmarks but a lighter per-step batch, so the workload is
// dominated by the pulls and pushes the pipeline exists to hide rather
// than by single-core matmul time (the box runs GOMAXPROCS=1 — compute
// cannot overlap compute, only waiting).
func trainBenchCfg(inj *faultinject.Injector) Config {
	cfg := benchCfg(inj)
	cfg.TokensPerWorker = 2
	cfg.Hidden = 16
	return cfg
}

// BenchmarkTrainLockstep measures the barriered reference trainer on
// kernel loopback: per step it fetches every expert, computes every
// microbatch, pushes every gradient, then merges at a global barrier.
func BenchmarkTrainLockstep(b *testing.B) {
	benchTrain(b, nil, false)
}

// BenchmarkTrainPipelined is the same training workload with microbatch
// streaming and cross-step overlap (depth 2).
func BenchmarkTrainPipelined(b *testing.B) {
	benchTrain(b, nil, true)
}

// BenchmarkTrainLockstepRTT adds 100µs per socket read/write — the
// regime where the lockstep schedule stacks round trips serially.
func BenchmarkTrainLockstepRTT(b *testing.B) {
	benchTrain(b, delayInjector(), false)
}

// BenchmarkTrainPipelinedRTT is the headline comparison: with real
// latency the pipelined schedule hides pulls and pushes behind compute
// and behind each other across steps.
func BenchmarkTrainPipelinedRTT(b *testing.B) {
	benchTrain(b, delayInjector(), true)
}

func delayInjector() *faultinject.Injector {
	inj := faultinject.New(7)
	inj.AddRule(faultinject.Rule{Fault: faultinject.Fault{Delay: 100 * time.Microsecond}})
	return inj
}

// BenchmarkTrainPipelined32 is the live-cluster scale point: 32 real
// machines (each a TCP server + client + store) training pipelined on
// loopback — the largest size the CI smoke tier tolerates.
func BenchmarkTrainPipelined32(b *testing.B) {
	cfg := trainBenchCfg(nil)
	cfg.Machines = 32
	cfg.NumExperts = 64
	benchTrainCfg(b, cfg, true)
}

func benchTrain(b *testing.B, inj *faultinject.Injector, pipelined bool) {
	benchTrainCfg(b, trainBenchCfg(inj), pipelined)
}

func benchTrainCfg(b *testing.B, cfg Config, pipelined bool) {
	cl, err := Start(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	opts := TrainOptions{Steps: benchTrainSteps, Microbatches: 2, Pipelined: pipelined, ReuseOutputs: true}
	if _, err := cl.Train(opts); err != nil { // warm plan, caches, connections
		b.Fatal(err)
	}
	if _, err := cl.Train(opts); err != nil { // second pass fills every recycled-buffer pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Train(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if el := time.Since(start).Seconds(); el > 0 {
		b.ReportMetric(float64(b.N*benchTrainSteps)/el, "steps/sec")
	}
}

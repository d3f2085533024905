package livecluster

import (
	"testing"
	"time"

	"janus/internal/faultinject"
)

// benchTrainSteps is the per-op step count of the training benchmarks:
// long enough for the pipeline to fill (> depth) and drain.
const benchTrainSteps = 8

// trainBenchCfg is the training-benchmark cluster: eight machines with
// a light per-step batch, so the workload is dominated by the pulls and
// pushes the pipeline exists to hide rather than by single-core matmul
// time (on one core compute cannot overlap compute, only waiting).
func trainBenchCfg(inj *faultinject.Injector) Config {
	return Config{
		Machines:        8,
		WorkersPerNode:  1,
		NumExperts:      32,
		TopK:            2,
		Hidden:          16,
		TokensPerWorker: 2,
		Seed:            42,
		Credits:         16,
		Injector:        inj,
	}
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

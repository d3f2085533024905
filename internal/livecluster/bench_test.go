package livecluster

import (
	"testing"
	"time"
)

// benchTrainSteps is the per-op step count of the training benchmark
// and the allocation gates: long enough for the pipeline to fill
// (> depth) and drain.
const benchTrainSteps = 8

// trainBenchCfg is the training-benchmark cluster: eight machines with
// a light per-step batch, so the workload is dominated by the pulls and
// pushes the pipeline exists to hide rather than by single-core matmul
// time (on one core compute cannot overlap compute, only waiting).
func trainBenchCfg() Config {
	return Config{
		Machines:        8,
		WorkersPerNode:  1,
		NumExperts:      32,
		TopK:            2,
		Hidden:          16,
		TokensPerWorker: 2,
		Seed:            42,
		Credits:         16,
	}
}

// BenchmarkTrainPipelined32 is the live-cluster scale point: 32 real
// machines (each a TCP server + client + store) training pipelined on
// loopback. The benchmark's train workloads run 8 machines, so no
// ledger row measures this size.
func BenchmarkTrainPipelined32(b *testing.B) {
	cfg := trainBenchCfg()
	cfg.Machines = 32
	cfg.NumExperts = 64
	cl, err := Start(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	opts := TrainOptions{Steps: benchTrainSteps, Microbatches: 2, Pipelined: true, ReuseOutputs: true}
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

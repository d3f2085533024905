// Benchmarks regenerating every table and figure of the Janus paper's
// evaluation, plus ablations of the design choices DESIGN.md calls out.
// Each benchmark runs the corresponding experiment end to end and
// attaches the headline reproduced numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the full reproduction alongside timing. EXPERIMENTS.md records
// paper-vs-measured for each.
package janus

import (
	"testing"

	"janus/internal/config"
	"janus/internal/experiments"
	"janus/internal/topology"
	"janus/internal/trainrun"
)

// runExp runs a registered experiment b.N times, keeping the last
// result for metric reporting.
func runExp(b *testing.B, id string) experiments.Result {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = e.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkTable1Traffic regenerates Table 1 (per-machine inter-node
// traffic under both paradigms, analytic and measured).
func BenchmarkTable1Traffic(b *testing.B) {
	res := runExp(b, "table1").(*experiments.Table1Result)
	for _, row := range res.Rows {
		if row.Model == "MoE-TransformerXL" && row.NumGPUs == 32 {
			b.ReportMetric(row.ECMeasuredGiB/row.DCMeasuredGiB, "xl32-traffic-ratio")
		}
	}
}

// BenchmarkFig3A2AShare regenerates Figure 3 (All-to-All share of the
// iteration under the expert-centric paradigm).
func BenchmarkFig3A2AShare(b *testing.B) {
	res := runExp(b, "fig3").(*experiments.Fig3Result)
	var min, max float64 = 1, 0
	for _, row := range res.Rows {
		if row.A2AShare < min {
			min = row.A2AShare
		}
		if row.A2AShare > max {
			max = row.A2AShare
		}
	}
	b.ReportMetric(min*100, "min-share-%")
	b.ReportMetric(max*100, "max-share-%")
}

// BenchmarkGoodput regenerates the §3.1 goodput stress test.
func BenchmarkGoodput(b *testing.B) {
	res := runExp(b, "goodput").(*experiments.GoodputResult)
	b.ReportMetric(res.IntraGbps, "intra-Gbps")
	b.ReportMetric(res.InterGbps, "inter-Gbps")
}

// BenchmarkFig7Stagger regenerates Figure 7 (same-order vs staggered
// internal pulls).
func BenchmarkFig7Stagger(b *testing.B) {
	res := runExp(b, "fig7").(*experiments.Fig7Result)
	b.ReportMetric(res.Speedup, "staggered-speedup")
}

// BenchmarkFig9PCIe regenerates Figure 9 (PCIe-switch-aware copies).
func BenchmarkFig9PCIe(b *testing.B) {
	res := runExp(b, "fig9").(*experiments.Fig9Result)
	b.ReportMetric(res.Speedup, "switch-aware-speedup")
}

// BenchmarkFig12Ablation regenerates Figure 12 (data-centric, +topo,
// +prefetch over the expert-centric paradigm in Janus).
func BenchmarkFig12Ablation(b *testing.B) {
	res := runExp(b, "fig12").(*experiments.Fig12Result)
	for _, row := range res.Rows {
		if row.Model == "MoE-GPT" {
			b.ReportMetric(row.PlusPrefetch, "gpt-all-opts-speedup")
		}
	}
}

// BenchmarkFig13Overlap regenerates Figure 13 (prefetch overlap on the
// MoE-GPT forward pass).
func BenchmarkFig13Overlap(b *testing.B) {
	res := runExp(b, "fig13").(*experiments.Fig13Result)
	b.ReportMetric(res.ForwardMs, "fwd-ms")
	b.ReportMetric(res.OverlapMs, "overlap-ms")
	b.ReportMetric(float64(res.ExpertsEarly), "experts-early")
}

// BenchmarkFig14EndToEnd regenerates Figure 14 (Janus vs Tutel).
func BenchmarkFig14EndToEnd(b *testing.B) {
	res := runExp(b, "fig14").(*experiments.Fig14Result)
	for _, row := range res.Rows {
		switch row.Model {
		case "MoE-BERT":
			b.ReportMetric(row.Speedup, "bert-speedup")
		case "MoE-GPT":
			b.ReportMetric(row.Speedup, "gpt-speedup")
		case "MoE-TransformerXL":
			b.ReportMetric(row.Speedup, "xl-speedup")
		}
	}
}

// BenchmarkFig15BatchSize regenerates Figure 15 (batch sensitivity).
func BenchmarkFig15BatchSize(b *testing.B) {
	res := runExp(b, "fig15").(*experiments.SensitivityResult)
	for _, row := range res.Rows {
		if row.Model == "MoE-GPT" && row.Value == 128 {
			b.ReportMetric(row.Speedup, "gpt-b128-speedup")
		}
	}
}

// BenchmarkFig16SeqLen regenerates Figure 16 (sequence-length
// sensitivity, including the Tutel OOM at MoE-BERT S=512).
func BenchmarkFig16SeqLen(b *testing.B) {
	res := runExp(b, "fig16").(*experiments.SensitivityResult)
	for _, row := range res.Rows {
		if row.Model == "MoE-BERT" && row.Value == 512 && row.TutelOOM {
			b.ReportMetric(1, "tutel-oom-reproduced")
		}
	}
}

// BenchmarkFig17PRMoE regenerates Figure 17 (the unified paradigm on
// PR-MoE at 16 and 32 GPUs).
func BenchmarkFig17PRMoE(b *testing.B) {
	res := runExp(b, "fig17").(*experiments.Fig17Result)
	for _, row := range res.Rows {
		if row.Scale == "16 GPUs" {
			b.ReportMetric(row.SpeedupEC, "16gpu-unified-speedup")
		} else {
			b.ReportMetric(row.SpeedupEC, "32gpu-unified-speedup")
		}
	}
}

// --- ablation benches for DESIGN.md's called-out choices -------------------

// BenchmarkAblationCreditSize sweeps the credit-based buffer capacity:
// the §5.1.1 design says a small buffer suffices because compute
// overlaps the next fetch; the sweep shows diminishing returns past a
// few credits.
func BenchmarkAblationCreditSize(b *testing.B) {
	model := config.MoEGPT(32)
	spec := topology.DefaultSpec(4)
	for _, credits := range []int{1, 2, 4, 8, 16} {
		credits := credits
		b.Run(benchName("credits", credits), func(b *testing.B) {
			var iter float64
			for i := 0; i < b.N; i++ {
				rep, err := TrainJanus(JanusConfig{
					Model: model, Spec: spec,
					TopoAware: true, Prefetch: true,
					CreditSize: credits, SkipMemoryCheck: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				iter = rep.IterationTime
			}
			b.ReportMetric(iter*1e3, "iter-ms")
		})
	}
}

// BenchmarkAblationPolicyThreshold sweeps the R threshold of the
// unified policy on PR-MoE: too low converts low-gain blocks and loses
// to the PCIe ceiling; too high leaves high-gain blocks on All-to-All.
func BenchmarkAblationPolicyThreshold(b *testing.B) {
	model := config.PRMoETransformerXL(32, 128, 64)
	spec := topology.DefaultSpec(4)
	for _, thr := range []float64{0.5, 1, 2, 4, 16} {
		thr := thr
		b.Run(benchName("threshold", int(thr*10)), func(b *testing.B) {
			var iter float64
			for i := 0; i < b.N; i++ {
				rep, err := TrainJanus(JanusConfig{
					Model: model, Spec: spec,
					Policy:    Policy{RThreshold: thr},
					TopoAware: true, Prefetch: true, SkipMemoryCheck: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				iter = rep.IterationTime
			}
			b.ReportMetric(iter*1e3, "iter-ms")
		})
	}
}

// BenchmarkAblationHierarchicalA2A compares the baseline's flat and 2D
// All-to-All algorithms (Tutel's hierarchical optimization).
func BenchmarkAblationHierarchicalA2A(b *testing.B) {
	model := config.MoETransformerXL(32)
	spec := topology.DefaultSpec(4)
	for _, hier := range []bool{false, true} {
		hier := hier
		name := "flat"
		if hier {
			name = "hierarchical"
		}
		b.Run(name, func(b *testing.B) {
			var iter float64
			for i := 0; i < b.N; i++ {
				rep, err := TrainExpertCentric(BaselineConfig{
					Model: model, Spec: spec, Hierarchical: hier, SkipMemoryCheck: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				iter = rep.IterationTime
			}
			b.ReportMetric(iter*1e3, "iter-ms")
		})
	}
}

// BenchmarkAblationCacheManager compares the hierarchical fetch (§5.1.2)
// against per-worker direct pulls: the Cache Manager cuts the forward
// cross-node fetch volume by m.
func BenchmarkAblationCacheManager(b *testing.B) {
	model := config.MoEGPT(32)
	spec := topology.DefaultSpec(4)
	for _, disabled := range []bool{false, true} {
		disabled := disabled
		name := "cache"
		if disabled {
			name = "no-cache"
		}
		b.Run(name, func(b *testing.B) {
			var rep Report
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = TrainJanus(JanusConfig{
					Model: model, Spec: spec, TopoAware: true, Prefetch: true,
					DisableCache: disabled, SkipMemoryCheck: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.IterationTime*1e3, "iter-ms")
			b.ReportMetric(rep.InterNodeEgressBytes/(1<<30), "inter-GiB")
		})
	}
}

// BenchmarkStragglerJitter regenerates the §3.2 jitter extension.
func BenchmarkStragglerJitter(b *testing.B) {
	res := runExp(b, "straggler").(*experiments.StragglerResult)
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.TutelAddedMs, "tutel-added-ms")
	b.ReportMetric(last.JanusAddedMs, "janus-added-ms")
}

// BenchmarkTrainRun measures a short multi-iteration training run with
// gate drift (the paper's averaged-profile methodology).
func BenchmarkTrainRun(b *testing.B) {
	var res trainrun.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = trainrun.Run(trainrun.Config{
			Engine: trainrun.Janus, Model: config.MoEGPT(32),
			Spec: topology.DefaultSpec(4), Iterations: 4,
			SkewStart: 0.1, SkewEnd: 0.8, Seed: 5,
			TopoAware: true, Prefetch: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Time.Mean*1e3, "mean-iter-ms")
	b.ReportMetric(res.Throughput()/1e6, "Mtokens/s")
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "=" + string(buf[i:])
}

package main

import (
	"encoding/json"
	"sort"
)

// The benchmark's names. BENCHMARK.json at the repository root is
// generated from these tables (`-manifest`), and benchmark_test.go fails
// when the two disagree, so a later change refers to a metric by the
// name printed here.

const (
	defaultSeed       = 20230910
	defaultRunSeconds = 15
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var workloads = []workloadDef{
	{"sim_paper32", "Fig. 14 on 32 GPUs: Janus and Tutel iterations of three models; many small fabric settles, sim+core+collective busy, no live layer runs"},
	{"sim_scale256", "sparse all-to-all on 256 machines fused by 64 trunks: few wide settles of one component, the other way to use the same fabric allocator"},
	{"train_rtt", "8-machine pipelined training, tiny experts, 100us injected per socket op: bound by per-message transport cost and cross-step overlap"},
	{"train_bulk", "same cluster, 131 KB experts and 64 tokens/worker, no delay: bound by tensor/moe kernels and expert bytes through the codec"},
	{"serve_open", "open-loop serving, 1000 req/s for latency then 12000 req/s for goodput under shedding: the only load on admission, batching and SERVE reads"},
}

// End-to-end metrics. Every workload reports every one; README.md maps
// each (workload, metric) cell to the quantity a user of that plane sees.
// The bounds are three times the widest run-to-run spread (quartile
// distance over median, ten seeds) measured on the 2-core sizing box,
// capped at the 0.25 a bound may be; README.md has the measurements.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"op_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
}

// Units of numbers that are not host time: a deterministic simulator
// repeats them exactly, so they are kept apart from "ms".
const (
	unitSimMs = "sim_ms"
	unitShare = "share"
	unitCount = "count"
	unitRatio = "ratio"
)

var simModels = []string{"bert", "gpt", "xl"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	perModel := func(prefix, unit, better string) {
		for _, m := range simModels {
			add(prefix+"."+m, unit, better)
		}
	}
	trainShapes := func(prefix, unit, better string) {
		add(prefix+".rtt", unit, better)
		add(prefix+".bulk", unit, better)
	}

	add("sim.events_per_s", "1/s", "higher")
	add("sim.processor_submit_ns", "ns", "lower")
	add("fabric.settle_us.p32", "us", "lower")
	add("fabric.admit_us_per_flow.p32", "us", "lower")
	add("fabric.allocs_per_settle.p32", unitCount, "lower")
	add("fabric.settle_us.s256", "us", "lower")
	add("fabric.admit_us_per_flow.s256", "us", "lower")
	add("fabric.drain_sim_ms.s256", unitSimMs, "lower")
	add("topology.build_ms.p32", "ms", "lower")
	add("gate.zipf_ms.p32", "ms", "lower")
	add("gate.sampler_ns", "ns", "lower")
	add("collective.a2a_ms.p32", "ms", "lower")
	add("collective.hier_a2a_ms.p32", "ms", "lower")
	add("collective.allreduce_ms.p32", "ms", "lower")
	perModel("core.run_ms", "ms", "lower")
	perModel("expertcentric.run_ms", "ms", "lower")
	perModel("core.iter_sim_ms", unitSimMs, "lower")
	perModel("expertcentric.iter_sim_ms", unitSimMs, "lower")
	perModel("core.comm_blocked_share", unitShare, "lower")
	perModel("core.internode_gib", "GiB", "lower")
	perModel("core.trace_spans", unitCount, "lower")
	add("core.trace_cost_share", unitShare, "lower")
	add("core.speedup_geomean", unitRatio, "higher")

	add("tensor.matmul_gflops.bulk", "GFLOP/s", "higher")
	add("tensor.matmul_ns.rtt", "ns", "lower")
	trainShapes("moe.fwdbwd_us", "us", "lower")
	add("moe.fwd_us.serve", "us", "lower")
	add("moe.sgd_us.bulk", "us", "lower")
	trainShapes("transport.pull_us", "us", "lower")
	trainShapes("transport.push_us", "us", "lower")
	add("transport.serve_us.serve", "us", "lower")
	add("transport.pull_mbps.bulk", "MB/s", "higher")
	add("transport.allocs_per_pull", unitCount, "lower")
	add("faultinject.added_rtt_us", "us", "lower")
	add("livecluster.start_ms", "ms", "lower")
	trainShapes("livecluster.step_ms", "ms", "lower")
	trainShapes("livecluster.version_wait_ms_per_step", "ms", "lower")
	trainShapes("livecluster.depth_stall_ms_per_step", "ms", "lower")
	trainShapes("livecluster.merges_per_step", unitCount, "lower")
	trainShapes("livecluster.retries_per_kstep", unitCount, "lower")
	trainShapes("livecluster.allocs_per_step", unitCount, "lower")
	trainShapes("livecluster.alloc_kb_per_step", "KB", "lower")
	add("checkpoint.save_mbps", "MB/s", "higher")
	add("checkpoint.load_mbps", "MB/s", "higher")
	add("checkpoint.stream_mbps", "MB/s", "higher")

	add("serving.service_us_p50", "us", "lower")
	add("serving.backend_us_p50", "us", "lower")
	add("serving.self_us_p50", "us", "lower")
	add("serving.p50_ms.lo", "ms", "lower")
	add("serving.p75_ms.lo", "ms", "lower")
	add("serving.p90_ms.lo", "ms", "lower")
	add("serving.p99_ms.lo", "ms", "lower")
	add("serving.queue_wait_us.lo", "us", "lower")
	add("serving.p999_ms.lo", "ms", "lower")
	add("serving.fullq_share.lo", unitShare, "higher")
	add("serving.goodput_rps.hi", "1/s", "higher")
	add("serving.shed_share.hi", unitShare, "lower")
	add("serving.degraded_share.hi", unitShare, "lower")
	add("serving.expired_share.hi", unitShare, "lower")
	add("serving.p99_ms.hi", "ms", "lower")
	add("serving.serves_per_request.hi", unitCount, "lower")
	add("serving.rows_per_serve.hi", unitCount, "higher")
	add("serving.allocs_per_request", unitCount, "lower")
	add("serving.knee_rps", "1/s", "higher")
	add("gen.late_ms_p99", "ms", "lower")
	add("gen.late_ms_max", "ms", "lower")
	add("gen.inflight_max", unitCount, "lower")
	add("trace.overhead_share", unitShare, "lower")
	return out
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// manifestJSON renders BENCHMARK.json. A per-layer metric has no bound,
// and metricDef leaves a zero bound out.
func manifestJSON() ([]byte, error) {
	out, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultRunSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

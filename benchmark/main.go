// Command benchmark is the repository's one benchmark: it drives the
// three things a user runs — a simulated paper iteration, a live
// Cluster.Train step, a served Frontend.Submit request — through public
// functions only, checks their outputs, and prints the end-to-end metrics
// (or, traced, the per-layer metrics) that BENCHMARK.json declares.
//
//	bash benchmark/run.sh --workload train_rtt --seed 7 --seconds 12 --trace 0
//	bash benchmark/run.sh -out .bench_build/a               # every workload, ten seeds
//	bash benchmark/run.sh -compare .bench_build/a/results.json .bench_build/b/results.json
//
// README.md in this directory documents workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// scratchDir holds everything a run writes: it lies inside the checkout
// the benchmark is started from and .gitignore names it.
const scratchDir = ".bench_build/tmp"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the one JSON object a run prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print its result as the last line; empty runs the suite")
		seed     = flag.Int64("seed", defaultSeed, "every input (gate seeds, cluster seed, request ids, arrival schedule) derives from it")
		seconds  = flag.Float64("seconds", defaultRunSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "1: record benchmark-side spans, run the layer probes and print the per-layer metrics")
		out      = flag.String("out", ".bench_build/out", "directory for Chrome trace files and the suite's results.json")
		runs     = flag.Int("runs", acceptanceRuns, "suite: runs per workload, on seeds seed, seed+1, ...")
		compare  = flag.Bool("compare", false, "compare two results.json files given as arguments")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	processInit = sinceExec()
	flag.Parse()
	switch {
	case *manifest:
		raw, err := manifestJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(raw)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results.json paths"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		res, err := runOne(*workload, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		if err := runSuite(workloadNames(), *seed, *seconds, *trace, *runs, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne runs one workload in this process. Untraced it runs that
// workload alone for the full time and reports the end-to-end metrics.
// Traced it runs that workload for half the time with spans on every
// second window (the difference is the tracing overhead), a short traced
// slice of each other workload and the layer probes, so that every
// per-layer name is measured in every traced run; the requested
// workload's own rows are the well-sampled ones.
func runOne(workload string, seed int64, seconds float64, traced bool, outDir string) (runResult, error) {
	run, ok := runners[workload]
	if !ok {
		return runResult{}, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames(), ", "))
	}
	fmt.Fprintf(os.Stderr, "benchmark: workload=%s seed=%d seconds=%g traced=%v GOMAXPROCS=%d exec-to-main=%.1fms\n",
		workload, seed, seconds, traced, runtime.GOMAXPROCS(0), ms(processInit))
	res := runResult{Metrics: map[string]metricValue{}}
	var gateErrs []string
	fold := func(o sliceOut) {
		res.Attempted += o.attempted
		res.Failed += o.failed
		gateErrs = append(gateErrs, o.gateErrs...)
		for _, n := range o.notes {
			fmt.Fprintln(os.Stderr, "  "+n)
		}
	}

	if !traced {
		o, err := run(sliceOpts{seed: seed, seconds: seconds, setups: setupRepeats, verify: true})
		if err != nil {
			return res, err
		}
		fold(o)
		values := map[string]float64{
			"setup_s": processInit.Seconds() + o.setupS, "peak_rss_mb": o.peakRSSMB,
			"op_ms": o.opMs, "op_tail_ms": o.opTailMs, "ops_per_s": o.opsPerS,
		}
		if err := fill(res.Metrics, endToEnd, values); err != nil {
			return res, err
		}
	} else {
		rec := newRecorder()
		layer := map[string]float64{}
		for _, w := range workloads {
			opts := sliceOpts{seed: seed, seconds: seconds / 6, rec: rec}
			if w.Name == workload {
				opts = sliceOpts{seed: seed, seconds: seconds / 2, rec: rec, paired: true, verify: true}
			}
			o, err := runners[w.Name](opts)
			if err != nil {
				return res, err
			}
			fold(o)
			for k, v := range o.layer {
				layer[k] = v
			}
			if w.Name == workload {
				layer["trace.overhead_share"] = o.overhead
			}
		}
		var probes sliceOut
		if err := runProbes(seed, &probes); err != nil {
			return res, err
		}
		for k, v := range probes.layer {
			layer[k] = v
		}
		if err := fill(res.Metrics, perLayer, layer); err != nil {
			return res, err
		}
		path, err := rec.writeChrome(outDir, workload)
		if err != nil {
			return res, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "  trace: %d spans in %s\n", len(rec.spans), path)
	}

	if res.Attempted < 1 {
		return res, fmt.Errorf("%s: no operation was attempted", workload)
	}
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Fprintf(os.Stderr, "  %-44s %16.6f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Fprintf(os.Stderr, "  ops_failed_share %d/%d, %.1f s wall\n", res.Failed, res.Attempted, time.Since(processStart).Seconds())
	for _, g := range gateErrs {
		fmt.Fprintln(os.Stderr, "  GATE FAILED:", g)
	}
	res.Correct = len(gateErrs) == 0 && res.Failed == 0
	return res, nil
}

// fill copies every declared metric out of values and fails on a name
// that was not measured or is not a finite number: a run prints all of
// its metrics or none.
func fill(dst map[string]metricValue, defs []metricDef, values map[string]float64) error {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if !finite(v) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		dst[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return nil
}

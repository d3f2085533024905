package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"time"
)

// processStart is the earliest time this package can read by itself: its
// variables are initialised after the runtime and every imported package,
// before main runs.
var processStart = time.Now()

// execEnv carries the wall-clock time in nanoseconds just before the
// binary was exec'ed. run.sh sets it, and the suite sets it for each
// child, so the Go runtime's start and every package's initialisation are
// inside setup_s and work moved there shows.
const execEnv = "JANUS_BENCH_EXEC_NS"

// processInit is the time from exec to main; main sets it, so a test that
// calls runOne in a long-lived process measures set-ups alone.
var processInit time.Duration

// sinceExec is the time since execEnv's instant or, run without it, since
// processStart, which leaves out what ran before this package's variables.
func sinceExec() time.Duration {
	if ns, err := strconv.ParseInt(os.Getenv(execEnv), 10, 64); err == nil {
		if d := time.Since(time.Unix(0, ns)); d > 0 {
			return d
		}
	}
	return time.Since(processStart)
}

// sliceOpts is what every workload slice is run with.
type sliceOpts struct {
	seed    int64
	seconds float64   // how long the timed windows last
	rec     *recorder // nil: untraced
	// paired alternates untraced and traced windows so one process yields
	// both medians; the traced invocation sets it on the workload it was
	// asked for and reports the difference as trace.overhead_share.
	paired bool
	// setups is how many times the slice sets itself up (at least once).
	// An untraced run asks for setupRepeats and reports their median;
	// a traced run prints no setup_s and sets up once.
	setups int
	// verify adds the checks that need clusters of their own (the
	// pipelined-against-lockstep twin); the requested workload sets it.
	verify bool
}

// sliceOut is what a slice hands back: the end-to-end numbers (used when
// the slice is the requested workload), the per-layer numbers its spans
// and counts produce (used in traced runs), and the correctness verdict.
type sliceOut struct {
	setupS    float64
	peakRSSMB float64
	opMs      float64
	opTailMs  float64
	opsPerS   float64

	attempted int64
	failed    int64
	gateErrs  []string

	layer    map[string]float64
	overhead float64  // trace.overhead_share, when opts.paired
	notes    []string // lines for the human-readable report on stderr
}

func (o *sliceOut) gate(format string, args ...any) {
	o.gateErrs = append(o.gateErrs, fmt.Sprintf(format, args...))
}

func (o *sliceOut) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *sliceOut) set(name string, v float64) {
	if o.layer == nil {
		o.layer = map[string]float64{}
	}
	o.layer[name] = v
}

// runners maps a workload name to the function that runs a slice of it.
var runners = map[string]func(sliceOpts) (sliceOut, error){
	"sim_paper32":  runSimPaper32,
	"sim_scale256": runSimScale256,
	"train_rtt":    func(o sliceOpts) (sliceOut, error) { return runTrain(trainRTT, o) },
	"train_bulk":   func(o sliceOpts) (sliceOut, error) { return runTrain(trainBulk, o) },
	"serve_open":   runServeOpen,
}

// setupRepeats is how many times an untraced run sets its workload up.
// setup_s is the median of the repeats, so one slow start does not
// decide the metric, plus processInit, which happens once per process
// and so cannot be repeated.
const setupRepeats = 5

// timeSetups runs build n times (once if n < 1), keeps the last product
// and returns the median duration in seconds. discard releases a product
// that is not kept; it may be nil when there is nothing to release.
func timeSetups[T any](n int, build func() (T, error), discard func(T)) (T, float64, error) {
	var kept T
	var durs []float64
	for i := 0; i < max(n, 1); i++ {
		if i > 0 && discard != nil {
			discard(kept)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return kept, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		kept = v
	}
	return kept, median(durs), nil
}

// timedWindows is the timed phase of a workload measured in fixed-size
// windows: it restarts the RSS high-water mark, runs window until
// opts.seconds have passed (twice at least, so there is a second pass to
// compare with the first), and folds the milliseconds per operation each
// window returns into the timed end-to-end metrics. A window that
// reports !ok is left out. With opts.paired every second window runs
// with a nil recorder and the difference of the medians is the tracing
// overhead.
//
// op_ms is the median window and ops_per_s its reciprocal; op_tail_ms is
// the upper quartile, because with a dozen windows any higher percentile
// is a single sample.
func (o *sliceOut) timedWindows(opts sliceOpts, window func(n int, rec *recorder) (msPerOp float64, ok bool)) error {
	resetPeakRSS()
	var all, traced, untraced []float64
	start := time.Now()
	for n := 0; n < 2 || time.Since(start).Seconds() < opts.seconds; n++ {
		rec := opts.rec
		if opts.paired && n%2 == 0 {
			rec = nil
		}
		v, ok := window(n, rec)
		if !ok {
			continue
		}
		all = append(all, v)
		if rec != nil {
			traced = append(traced, v)
		} else {
			untraced = append(untraced, v)
		}
	}
	if len(all) == 0 {
		return fmt.Errorf("no window completed: %v", o.gateErrs)
	}
	o.opMs = median(all)
	o.opTailMs = percentile(all, 0.75)
	o.opsPerS = 1000 / o.opMs
	o.note("  %d windows, ms per op: %.4g", len(all), all)
	if opts.paired && len(traced) > 0 && len(untraced) > 0 {
		o.overhead = median(traced)/median(untraced) - 1
	}
	var err error
	o.peakRSSMB, err = peakRSSMB()
	return err
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

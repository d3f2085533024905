package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	serveMachines = 4
	serveExperts  = 16
	serveHidden   = 64
	serveRows     = 8
	serveDeadline = 150 * time.Millisecond
	loRate        = 1000.0  // req/s: about 40 % of the full-quality knee
	loWindow      = 500     // answers per latency window of lo: half a second
	hiRate        = 12000.0 // req/s: well past what the degraded ladder can answer
	bitChecks     = 64      // answers per phase compared with the reference
	warmRequests  = 200     // closed-loop requests per front-end before any phase
	// maxLateMs fails a run whose lo-phase dispatcher handed requests over
	// later than this at the median (normally 0.1 ms). The limit is on the
	// median and not on p99 because the tail is the host's: the dispatcher
	// shares two cores with the cluster and waits for a free one like any
	// goroutine (0.6-1.0 ms at p99 on a quiet sizing box), and the box
	// stalls the whole process, see runServeOpen (p99 up to 60 ms). A
	// generator that has become the bottleneck is late at the median.
	// gen.late_ms_p99 and gen.late_ms_max are reported per layer.
	maxLateMs = 1.0
	// minFullQuality is the share of lo-phase requests that must get a
	// full-quality answer for the phase to count as the unsaturated load
	// it is meant to be (see runServeOpen for what the rest are; the
	// worst seen on the sizing box was 0.945).
	minFullQuality = 0.85
	// maxExpired is the share of hi-phase requests that may expire after
	// admission before they count as failures: none do on a quiet box, and
	// a 100 ms host stall on top of a 20 ms queue expires a handful.
	maxExpired = 0.01
)

var kneeRates = []float64{500, 1000, 2000, 4000}

func serveClusterConfig(seed int64) liveConfig {
	return liveConfig{
		Machines: serveMachines, WorkersPerNode: 1,
		NumExperts: serveExperts, TopK: 2, Hidden: serveHidden,
		TokensPerWorker: 8, Seed: seed, Credits: 8,
		PullTimeout: 300 * time.Millisecond, PullRetries: 2,
		RetryBackoff:     2 * time.Millisecond,
		FailoverEnabled:  true,
		HeartbeatTimeout: 200 * time.Millisecond,
		Replicas:         1,
	}
}

func serveFrontendConfig(b serveBackend, seed int64) serveConfig {
	return serveConfig{
		Backend: b, Seed: seed, TopK: 2, Zipf: 1.1,
		RowsPerRequest: serveRows, QueueCap: 64,
		Deadline: serveDeadline,
		Workers:  2, MaxBatch: 8,
		MaxStalenessSteps: 5,
		Top1Pressure:      32,
	}
}

// submitters is how many requests the generator can have inside Submit
// at once: everything the front-end can hold (queue plus one micro-batch
// per worker) and a margin, so that arrivals beyond that reach admission
// and are shed there instead of waiting inside the generator.
func submitters(cfg serveConfig) int {
	return cfg.QueueCap + cfg.Workers*cfg.MaxBatch + 16
}

// tracedBackend times the two calls a front-end makes into the cluster.
// In the one-client closed loop exactly one Submit is in flight, so its
// id, stored in parent, is the cause of every call made meanwhile; in
// the open loop parent is 0 and the calls are counted but not recorded.
type tracedBackend struct {
	serveBackend
	rec    *recorder
	parent atomic.Int64
	serves atomic.Int64
	rows   atomic.Int64
}

func (b *tracedBackend) Serve(ctx context.Context, addr string, expert int, payload []byte) (byte, []float32, error) {
	t0 := time.Now()
	prov, out, err := b.serveBackend.Serve(ctx, addr, expert, payload)
	t1 := time.Now()
	b.serves.Add(1)
	if _, rows, _, _, derr := decodeServe(payload); derr == nil {
		b.rows.Add(int64(rows))
	}
	if parent := b.parent.Load(); parent != 0 {
		b.rec.record(int(parent), "serve_open", "livecluster", "Backend.Serve", t0, t1)
	}
	return prov, out, err
}

func (b *tracedBackend) FetchExpert(e int) (*expert, int, error) {
	t0 := time.Now()
	ex, step, err := b.serveBackend.FetchExpert(e)
	b.rec.record(int(b.parent.Load()), "serve_open", "livecluster", "Backend.FetchExpert", t0, time.Now())
	return ex, step, err
}

// serveRig is a running cluster with a front-end on it and, in a traced
// run, a second front-end whose backend is the timing decorator.
type serveRig struct {
	cl      *liveCluster
	backend interface {
		serveBackend
		Close()
	}
	cfg    serveConfig
	front  *serveFrontend
	traced *serveFrontend
	deco   *tracedBackend
}

func newServeRig(seed int64, rec *recorder) (*serveRig, error) {
	cl, err := startLiveCluster(serveClusterConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("serve_open: start: %w", err)
	}
	cl.SyncReplicas()
	r := &serveRig{cl: cl, backend: cl.ServeBackend()}
	r.cfg = serveFrontendConfig(r.backend, seed)
	if r.front, err = newFrontend(r.cfg); err != nil {
		r.close()
		return nil, fmt.Errorf("serve_open: front-end: %w", err)
	}
	if rec != nil {
		r.deco = &tracedBackend{serveBackend: r.backend, rec: rec}
		tcfg := r.cfg
		tcfg.Backend = r.deco
		if r.traced, err = newFrontend(tcfg); err != nil {
			r.close()
			return nil, fmt.Errorf("serve_open: traced front-end: %w", err)
		}
	}
	// Warm connections, pools and the batcher on ids no phase reuses.
	for _, f := range []*serveFrontend{r.front, r.traced} {
		if f == nil {
			continue
		}
		for id := uint64(1); id <= warmRequests; id++ {
			if res := f.Submit(context.Background(), id); res.Err != nil {
				r.close()
				return nil, fmt.Errorf("serve_open: warm-up request %d: %w", id, res.Err)
			}
		}
	}
	return r, nil
}

func (r *serveRig) close() {
	if r.traced != nil {
		r.traced.Close()
	}
	if r.front != nil {
		r.front.Close()
	}
	r.backend.Close()
	r.cl.Close()
}

// Terminal states as the harness counts them from serving.Result.
const (
	stFull = iota
	stDegraded
	stShed
	stExpired
	stErrored
)

type kept struct {
	id   uint64
	out  []float32
	rung int
}

type phaseResult struct {
	name      string
	seconds   float64   // length of the arrival schedule
	latMs     []float64 // from the due time, answered requests only
	lateMs    []float64 // how late the dispatcher handed each request over
	states    [5]int64
	inTime    int64 // answered within the deadline, counted from the due time
	inflight  int64 // most requests inside Submit at once
	kept      []kept
	heap      heapCounts
	submitted int
}

// arrivals draws a Poisson arrival schedule as absolute offsets, so a
// late dispatch never shifts the requests after it.
func arrivals(rng *rand.Rand, rate, seconds float64) []time.Duration {
	var at []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= seconds {
			return at
		}
		at = append(at, time.Duration(t*float64(time.Second)))
	}
}

// openLoop offers the schedule to the front-end whatever it does with
// the requests: one dispatcher (this goroutine) hands each request over
// at its due time, a fixed pool of submitters blocks in Submit. keepEvery
// > 0 keeps every keepEvery-th answer (up to bitChecks) for the bitwise
// check.
func openLoop(name string, front *serveFrontend, cfg serveConfig, rec *recorder, sched []time.Duration, seconds float64, base uint64, keepEvery int) phaseResult {
	n := len(sched)
	res := phaseResult{name: name, seconds: seconds, submitted: n, lateMs: make([]float64, n)}
	lat := make([]float64, n)
	state := make([]uint8, n)
	keptAt := make([]*kept, n)
	var inflight, inflightMax atomic.Int64

	pool := submitters(cfg)
	jobs := make(chan int, pool) // one slot per submitter: a hand-over blocks only when every one is busy
	var wg sync.WaitGroup
	before := readHeapCounts()
	start := time.Now().Add(5 * time.Millisecond)
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				cur := inflight.Add(1)
				for {
					m := inflightMax.Load()
					if cur <= m || inflightMax.CompareAndSwap(m, cur) {
						break
					}
				}
				id := base + uint64(i)
				span := rec.open()
				t0 := time.Now()
				r := front.Submit(context.Background(), id)
				t1 := time.Now()
				inflight.Add(-1)
				rec.close(span, 0, "serve_open", "serving", "Submit."+name, t0, t1)
				lat[i] = ms(t1.Sub(start.Add(sched[i])))
				switch {
				case r.Err == nil && r.Rung == rungFull:
					state[i] = stFull
				case r.Err == nil:
					state[i] = stDegraded
				case errors.Is(r.Err, errShed):
					state[i] = stShed
				case errors.Is(r.Err, errExpired):
					state[i] = stExpired
				default:
					state[i] = stErrored
				}
				if keepEvery > 0 && i%keepEvery == 0 && i/keepEvery < bitChecks && r.Err == nil {
					keptAt[i] = &kept{id: id, out: r.Out, rung: r.Rung}
				}
			}
		}()
	}
	// How the dispatcher waits. An idle Go runtime waits for its next
	// timer inside epoll, whose timeout counts whole milliseconds, so
	// time.Sleep overshoots a sub-millisecond wait by up to one: fine (and
	// cheap, arrivals coalesce into ~1 ms bursts) when requests are due
	// every 83 us and latencies are tens of milliseconds, not when they
	// are a millisecond apart and latency is about one. There nanosleep(2)
	// blocks this thread alone and wakes it within ~0.1 ms, at a syscall
	// per request.
	coarse := n > 0 && seconds/float64(n) < 500e-6
	for i, due := range sched {
		at := start.Add(due)
		if d := time.Until(at); d > 0 {
			if coarse {
				time.Sleep(d)
			} else {
				ts := syscall.NsecToTimespec(int64(d))
				_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) is caught by the loop below
			}
		}
		for time.Now().Before(at) {
			runtime.Gosched()
		}
		res.lateMs[i] = ms(time.Since(at))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	res.heap = readHeapCounts().since(before)
	res.inflight = inflightMax.Load()

	deadlineMs := ms(cfg.Deadline)
	for i := 0; i < n; i++ {
		res.states[state[i]]++
		if state[i] == stFull || state[i] == stDegraded {
			res.latMs = append(res.latMs, lat[i])
			if lat[i] <= deadlineMs {
				res.inTime++
			}
		}
		if k := keptAt[i]; k != nil && len(res.kept) < bitChecks {
			res.kept = append(res.kept, *k)
		}
	}
	return res
}

// windowMedians cuts values, which are in schedule order, into windows of
// size values and returns the median of each; what is left over after the
// last whole window is dropped, unless there is no whole window at all.
func windowMedians(values []float64, size int) []float64 {
	if len(values) < size {
		return []float64{median(values)}
	}
	var out []float64
	for ; len(values) >= size; values = values[size:] {
		out = append(out, median(values[:size]))
	}
	return out
}

func (p phaseResult) answered() int64 { return p.states[stFull] + p.states[stDegraded] }

func (p phaseResult) share(state int) float64 {
	return float64(p.states[state]) / float64(p.submitted)
}

func (p phaseResult) String() string {
	return fmt.Sprintf("%s: %d submitted = %d full + %d degraded + %d shed + %d expired + %d errored; p50 %.3f p90 %.3f p95 %.3f p99 %.3f ms over %d answers; generator late p50 %.3f p99 %.3f max %.3f ms, %d in flight at most",
		p.name, p.submitted, p.states[stFull], p.states[stDegraded], p.states[stShed], p.states[stExpired], p.states[stErrored],
		percentile(p.latMs, 0.5), percentile(p.latMs, 0.9), percentile(p.latMs, 0.95), percentile(p.latMs, 0.99), len(p.latMs),
		percentile(p.lateMs, 0.5), percentile(p.lateMs, 0.99), percentile(p.lateMs, 1), p.inflight)
}

// checkBits compares kept answers with the in-process reference computed
// from the cluster's exported weights and returns how many differ.
func (r *serveRig) checkBits(p phaseResult, out *sliceOut) int64 {
	plane, err := decodeExpertPlane(r.cl.ExportSnapshot(0, 1))
	if err != nil {
		out.gate("serve_open %s: decode expert plane: %v", p.name, err)
		return int64(len(p.kept))
	}
	sampler := newGateSampler(serveExperts, r.cfg.TopK, r.cfg.Zipf, r.cfg.Seed)
	var wrong int64
	for _, k := range p.kept {
		want, err := serveReference(plane, sampler, r.cfg.Seed, k.id, serveRows, serveHidden, k.rung == rungTop1)
		if err == nil && len(want) != len(k.out) {
			err = fmt.Errorf("answer has %d values, reference %d", len(k.out), len(want))
		}
		for j := 0; err == nil && j < len(want); j++ {
			if math.Float32bits(want[j]) != math.Float32bits(k.out[j]) {
				err = fmt.Errorf("value %d is %v, reference %v", j, k.out[j], want[j])
			}
		}
		if err != nil {
			wrong++
			out.gate("serve_open %s: request %d (rung %d): %v", p.name, k.id, k.rung, err)
		}
	}
	return wrong
}

// closedLoop runs one client that waits for each answer before sending
// the next, on the traced front-end, so every backend call has exactly
// one Submit it can belong to.
func (r *serveRig) closedLoop(rec *recorder, seconds float64, base uint64, out *sliceOut) error {
	var ids []int
	start := time.Now()
	for i := 0; i < 20 || time.Since(start).Seconds() < seconds; i++ {
		id := rec.open()
		r.deco.parent.Store(int64(id))
		t0 := time.Now()
		res := r.traced.Submit(context.Background(), base+uint64(i))
		t1 := time.Now()
		r.deco.parent.Store(0)
		rec.close(id, 0, "serve_open", "serving", "Submit.closed", t0, t1)
		if res.Err != nil || res.Rung != rungFull {
			return fmt.Errorf("serve_open closed loop: request %d ended at rung %d: %v", i, res.Rung, res.Err)
		}
		ids = append(ids, id)
	}
	spans := rec.snapshot()
	cover := childCover(spans)
	want := make(map[int]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	var service, backend, self []float64
	for _, s := range spans {
		if !want[s.id] {
			continue
		}
		d, c := us(s.end-s.start), us(cover[s.id])
		service = append(service, d)
		backend = append(backend, c)
		self = append(self, d-c)
	}
	out.set("serving.service_us_p50", median(service))
	out.set("serving.backend_us_p50", median(backend))
	out.set("serving.self_us_p50", median(self))
	return nil
}

func runServeOpen(opts sliceOpts) (sliceOut, error) {
	var out sliceOut
	rig, setupS, err := timeSetups(opts.setups,
		func() (*serveRig, error) { return newServeRig(opts.seed, opts.rec) },
		func(r *serveRig) { r.close() })
	if err != nil {
		return out, err
	}
	defer rig.close()
	out.setupS = setupS
	rng := rand.New(rand.NewSource(opts.seed))
	phase := func(name string, front *serveFrontend, rec *recorder, rate, seconds float64, slot uint64, keepEvery int) phaseResult {
		p := openLoop(name, front, rig.cfg, rec, arrivals(rng, rate, seconds), seconds, slot<<32, keepEvery)
		out.note("serve_open %s", p)
		return p
	}

	// Shares of opts.seconds; an untraced run spends it all on lo and hi.
	loShare, hiShare := 0.55, 0.35
	if opts.rec != nil {
		loShare, hiShare = 0.2, 0.2
	}
	resetPeakRSS()
	front := rig.front
	var untracedLo phaseResult
	if opts.rec != nil {
		front = rig.traced
		if opts.paired {
			untracedLo = phase("lo", rig.front, nil, loRate, loShare*opts.seconds, 1, 0)
		}
	}
	lo := phase("lo", front, opts.rec, loRate, loShare*opts.seconds, 2, 1)
	if opts.rec != nil {
		rig.deco.serves.Store(0)
		rig.deco.rows.Store(0)
	}
	hi := phase("hi", front, opts.rec, hiRate, hiShare*opts.seconds, 3, max(1, int(hiRate*hiShare*opts.seconds)/bitChecks))
	if out.peakRSSMB, err = peakRSSMB(); err != nil {
		return out, err
	}

	// lo: the phase fails, and every request without a full-quality answer
	// counts as failed, unless minFullQuality of the requests got one.
	// Below that limit they do not count: the sizing box stalls the whole
	// process for 20-100 ms in one run of five, and for a minute at a time
	// runs everything several times slower. The requests that fell due
	// during a stall arrive as one burst, which the ladder answers top-1,
	// and the stalled batch inflates the service-time estimate, on which
	// admission sheds a few requests. Both are the front-end working as
	// designed on a host that stopped, and are reported per layer as
	// serving.fullq_share.lo.
	// hi: sheds are the front-end working as designed; an error or a wrong
	// answer is a failure, and so are expiries after admission once they
	// exceed maxExpired.
	// Every Submit returned exactly one Result, so submitted = answered +
	// expired + shed holds unless a Result was none of the three.
	for _, p := range []phaseResult{lo, hi} {
		out.attempted += int64(p.submitted)
		if p.states[stErrored] > 0 {
			out.gate("serve_open %s: %d submitted, but %d answered + %d expired + %d shed and %d ended in another error",
				p.name, p.submitted, p.answered(), p.states[stExpired], p.states[stShed], p.states[stErrored])
		}
	}
	loFailed := lo.states[stErrored]
	if lo.share(stFull) < minFullQuality {
		loFailed = int64(lo.submitted) - lo.states[stFull]
		out.gate("serve_open lo: only %.4f of the requests got a full-quality answer (limit %g)", lo.share(stFull), minFullQuality)
	}
	hiFailed := hi.states[stErrored]
	if hi.share(stExpired) > maxExpired {
		hiFailed += hi.states[stExpired]
		out.gate("serve_open hi: %.4f of the requests expired after admission (limit %g)", hi.share(stExpired), maxExpired)
	}
	out.failed += loFailed + hiFailed + rig.checkBits(lo, &out) + rig.checkBits(hi, &out)
	if len(lo.kept) < min(bitChecks, lo.submitted) {
		out.gate("serve_open lo: only %d answers were available for the bitwise check", len(lo.kept))
	}
	if late := percentile(lo.lateMs, 0.5); late > maxLateMs {
		out.failed++
		out.gate("serve_open lo: the generator ran %.3f ms late at the median (limit %g ms), so latencies measure the generator", late, maxLateMs)
	}

	// As on the window workloads: op_ms is the median window and
	// op_tail_ms the upper quartile of the windows, a window being the
	// median latency of loWindow consecutive answers (half a second).
	// Percentiles of the single requests are per-layer metrics.
	p50s := windowMedians(lo.latMs, loWindow)
	out.opMs = median(p50s)
	out.opTailMs = percentile(p50s, 0.75)
	out.opsPerS = float64(hi.inTime) / hi.seconds
	out.note("serve_open: serve_p50_ms %.4f (median of %d windows of %d answers, upper quartile %.4f; all answers %.4f), serve_p99_ms %.4f (%d samples, %d beyond p99), serve_goodput_rps %.1f (offered %.0f)",
		out.opMs, len(p50s), loWindow, out.opTailMs, percentile(lo.latMs, 0.5), percentile(lo.latMs, 0.99), len(lo.latMs), len(lo.latMs)/100, out.opsPerS, hiRate)

	if opts.rec == nil {
		return out, nil
	}
	if opts.paired {
		out.overhead = percentile(lo.latMs, 0.5)/percentile(untracedLo.latMs, 0.5) - 1
	}
	serves, rows := rig.deco.serves.Load(), rig.deco.rows.Load()
	if err := rig.closedLoop(opts.rec, 0.1*opts.seconds, 4<<32, &out); err != nil {
		return out, err
	}
	out.set("serving.p50_ms.lo", out.opMs)
	out.set("serving.p75_ms.lo", percentile(lo.latMs, 0.75))
	out.set("serving.p90_ms.lo", percentile(lo.latMs, 0.9))
	out.set("serving.p99_ms.lo", percentile(lo.latMs, 0.99))
	out.set("serving.p999_ms.lo", percentile(lo.latMs, 0.999))
	out.set("serving.queue_wait_us.lo", out.opMs*1e3-out.layer["serving.service_us_p50"])
	out.set("serving.fullq_share.lo", lo.share(stFull))
	out.set("serving.goodput_rps.hi", out.opsPerS)
	out.set("serving.shed_share.hi", hi.share(stShed))
	out.set("serving.degraded_share.hi", hi.share(stDegraded))
	out.set("serving.expired_share.hi", hi.share(stExpired))
	out.set("serving.p99_ms.hi", percentile(hi.latMs, 0.99))
	out.set("serving.serves_per_request.hi", float64(serves)/float64(max(1, hi.answered())))
	out.set("serving.rows_per_serve.hi", float64(rows)/float64(max(1, serves)))
	out.set("serving.allocs_per_request", float64(hi.heap.mallocs)/float64(hi.submitted))
	out.set("gen.late_ms_p99", percentile(lo.lateMs, 0.99))
	out.set("gen.late_ms_max", percentile(lo.lateMs, 1))
	out.set("gen.inflight_max", float64(hi.inflight))

	// The knee is quantised to the four rates offered, which is why it is
	// a diagnostic and not an end-to-end metric.
	knee := 0.0
	for i, rate := range kneeRates {
		p := phase(fmt.Sprintf("knee%.0f", rate), rig.front, nil, rate, 0.075*opts.seconds, uint64(5+i), 0)
		if p.share(stFull) >= 0.99 && percentile(p.latMs, 0.99) <= 25 {
			knee = rate
		}
	}
	out.set("serving.knee_rps", knee)
	return out, nil
}

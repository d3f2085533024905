package core

import (
	"fmt"
	"math/rand"

	"janus/internal/collective"
	"janus/internal/config"
	"janus/internal/costmodel"
	"janus/internal/engine"
	"janus/internal/fabric"
	"janus/internal/gate"
	"janus/internal/topology"
	"janus/internal/trace"
)

// expertKey identifies one expert instance of one MoE block.
type expertKey struct {
	block  int
	expert int
}

// signal is a one-shot event with subscribers. Waiting on a fired
// signal invokes the callback immediately.
type signal struct {
	fired   bool
	waiters []func()
}

func (s *signal) wait(f func()) {
	if s.fired {
		f()
		return
	}
	s.waiters = append(s.waiters, f)
}

func (s *signal) fire() {
	if s.fired {
		return
	}
	s.fired = true
	ws := s.waiters
	s.waiters = nil
	for _, f := range ws {
		f()
	}
}

type signalMap map[expertKey]*signal

func (m signalMap) get(k expertKey) *signal {
	s, ok := m[k]
	if !ok {
		s = &signal{}
		m[k] = s
	}
	return s
}

// taskKind is the flavour of a fetch task in a worker's queue.
type taskKind int

const (
	taskInternal     taskKind = iota // pull from a local GPU over NVLink
	taskExternalPCIe                 // copy from the Cache Manager over PCIe
	taskExternalPeer                 // relay from the PCIe-switch peer over NVLink
	taskReload                       // backward: reload an offloaded expert over PCIe
	taskExternalGDR                  // DisableCache ablation: pull straight from the remote GPU
)

// fetchTask is one entry of an Intra-Node Scheduler's queue: pull one
// expert. Tasks are issued strictly in queue order as credits permit —
// the fine-grained scheduling of §5.1.
type fetchTask struct {
	key      expertKey
	kind     taskKind
	backward bool
}

// runner drives one simulated iteration.
type runner struct {
	cfg    Config
	c      *topology.Cluster
	costs  engine.Costs
	tl     *trace.Timeline
	report engine.Report
	assign map[int]gate.Assignment

	workers  []*worker
	machines []*machineSched
	ec       map[int]*ecBlock
	jrng     *rand.Rand

	pendingGrads       int
	workersBwdDone     int
	optimizerSubmitted bool
	backwardStarted    bool

	// Batched flow admission: specs accumulated inside a batched()
	// region are admitted through one fabric.StartFlows call per flush,
	// so a pump() that issues a whole prefetch wave costs the fabric a
	// single settlement instead of one per task.
	batchDepth   int
	pendingNow   []fabric.FlowSpec // admitted at the current instant
	pendingPulls []fabric.FlowSpec // admitted after the control-plane round trip
}

// batched runs fn with flow admission deferred; the outermost region
// flushes everything fn (and its nested calls) issued as two batches.
func (r *runner) batched(fn func()) {
	r.batchDepth++
	fn()
	r.batchDepth--
	if r.batchDepth == 0 {
		r.flushFlows()
	}
}

func (r *runner) flushFlows() {
	if len(r.pendingNow) > 0 {
		specs := r.pendingNow
		r.pendingNow = nil
		r.c.Net.StartFlows(specs)
	}
	if len(r.pendingPulls) > 0 {
		specs := r.pendingPulls
		r.pendingPulls = nil
		r.c.Engine.After(r.cfg.Spec.PullLatency, func() { r.c.Net.StartFlows(specs) })
	}
}

// worker is one GPU's view: its compute chain, its Intra-Node Scheduler
// (queue + credits), and its buffer signals.
type worker struct {
	r   *runner
	g   *topology.GPU
	idx int

	credits int
	queue   []fetchTask

	onGPUFwd  signalMap // expert present in the credit buffer (forward)
	onGPUBwd  signalMap // expert reloaded for backward
	offloaded signalMap // expert offloaded to host after forward use

	stallTime float64
	fwdDoneAt float64

	outstanding    int // issued pulls not yet credited back
	maxOutstanding int
}

// machineSched is the Inter-Node Scheduler of one machine: the Cache
// Manager (single-flight external fetches) and the gradient pre-reduce.
type machineSched struct {
	r *runner
	m *topology.Machine

	cacheArrived signalMap
	fetchStarted map[expertKey]bool
	gradArrived  map[expertKey]int
}

// --- setup -------------------------------------------------------------

func (r *runner) setup() {
	r.jrng = rand.New(rand.NewSource(r.cfg.JitterSeed + 1))
	for _, g := range r.c.GPUs() {
		w := &worker{
			r: r, g: g, idx: g.Global,
			credits:   r.cfg.creditSize(),
			onGPUFwd:  make(signalMap),
			onGPUBwd:  make(signalMap),
			offloaded: make(signalMap),
		}
		r.workers = append(r.workers, w)
	}
	for _, m := range r.c.Machines {
		r.machines = append(r.machines, &machineSched{
			r: r, m: m,
			cacheArrived: make(signalMap),
			fetchStarted: make(map[expertKey]bool),
			gradArrived:  make(map[expertKey]int),
		})
	}
	r.ec = make(map[int]*ecBlock)
	if r.cfg.Trace {
		for _, g := range r.c.GPUs() {
			g := g
			g.Compute.OnSpan = func(name string, s, e float64) {
				r.tl.AddSpan(g.String(), name, s, e)
			}
		}
	}
}

func (r *runner) start() {
	if r.cfg.Prefetch {
		// Provident prefetch (§5.3): every data-centric block's fetch
		// requests enter the task queues at iteration start, and the
		// Inter-Node Schedulers begin pulling external experts at once.
		// One batched() region spans every worker, so the entire
		// cluster-wide prefetch wave is two flow admissions.
		r.batched(func() {
			for _, b := range r.cfg.Model.MoEBlockIndices() {
				if r.report.Paradigms[b] != config.DataCentric {
					continue
				}
				for _, w := range r.workers {
					w.enqueueForwardFetches(b)
				}
			}
			for _, w := range r.workers {
				w.pump()
			}
		})
	}
	for _, w := range r.workers {
		w.startForward(0)
	}
}

func (r *runner) finish() {
	if r.workersBwdDone != len(r.workers) || r.pendingGrads != 0 || !r.optimizerSubmitted {
		// The event queue drained with the iteration incomplete: a
		// scheduling deadlock (e.g. credits captured by unreachable
		// blocks). Failing loudly beats reporting a nonsense time.
		panic(fmt.Sprintf("core: iteration deadlocked at t=%v: %d/%d workers finished backward, %d gradients pending",
			r.c.Engine.Now(), r.workersBwdDone, len(r.workers), r.pendingGrads))
	}
	r.report.IterationTime = r.c.Engine.Now()
	var fwdMax, stallSum float64
	for _, w := range r.workers {
		if w.fwdDoneAt > fwdMax {
			fwdMax = w.fwdDoneAt
		}
		stallSum += w.stallTime
	}
	r.report.ForwardTime = fwdMax
	r.report.BackwardTime = r.report.IterationTime - fwdMax
	r.report.CommBlockedTime = stallSum / float64(len(r.workers))
	r.report.FinishTraffic(r.c)
}

// --- per-block helpers --------------------------------------------------

func (r *runner) ownerOf(block, expert int) int {
	e := r.cfg.Model.ExpertsPerWorker(block, r.c.NumGPUs())
	return expert / e
}

func (r *runner) expertBytes() float64 { return costmodel.ExpertBytes(r.cfg.Model.H) }

// dur applies a rank's straggler factor and the per-op jitter draw to
// a nominal compute duration.
func (r *runner) dur(rank int, d float64) float64 {
	d *= r.cfg.factor(rank)
	if r.cfg.Jitter > 0 {
		d *= 1 + r.cfg.Jitter*r.jrng.Float64()
	}
	return d
}

// fetchOpTime is the per-fetched-expert framework cost (§6's FetchOp):
// a fixed sync/poll component plus a staging cost proportional to the
// expert's size.
func (r *runner) fetchOpTime() float64 {
	t := r.cfg.Spec.FetchOpLatency
	if r.cfg.Spec.FetchOpBps > 0 {
		t += r.expertBytes() / r.cfg.Spec.FetchOpBps
	}
	return t
}

// needs reports whether worker w has tokens for expert e of block b.
func (r *runner) needs(w int, b, e int) bool {
	return r.assign[b].Counts[w][e] > 0
}

func (w *worker) machine() *machineSched { return w.r.machines[w.g.Machine.Index] }

// peer returns the GPU sharing this worker's PCIe switch, or nil.
func (w *worker) peer() *worker {
	peers := w.g.Peers()
	if len(peers) == 0 {
		return nil
	}
	return w.r.workers[peers[0].Global]
}

// --- Intra-Node Scheduler: queue and credits ----------------------------

// pump issues queued tasks in priority order while credits remain.
// Within the head task's block, blocked tasks (waiting for the Cache
// Manager, a peer relay, or an offload) do not head-of-line block ready
// tasks behind them: the scheduler issues the first ready task of that
// block and subscribes to the signals of the blocked ones it skipped.
//
// Skipping never crosses a block boundary. That restriction is the
// credit-liveness argument: every issued-but-uncomputed expert belongs
// to the block the worker is about to execute (or has reached), whose
// gate is reachable by compute alone, so held credits are always
// eventually released. Unrestricted skipping lets later blocks' fetches
// capture every credit while an earlier block's external expert starves
// — a deadlock the tests for this package provoke.
func (w *worker) pump() {
	w.r.batched(w.pumpTasks)
}

func (w *worker) pumpTasks() {
	for w.credits > 0 {
		issued := false
		for i := 0; i < len(w.queue); i++ {
			t := w.queue[i]
			if t.key.block != w.queue[0].key.block || t.backward != w.queue[0].backward {
				break
			}
			if sig := w.blockedOn(t); sig != nil {
				sig.wait(func() { w.pump() })
				continue
			}
			w.queue = append(w.queue[:i], w.queue[i+1:]...)
			w.credits--
			w.outstanding++
			if w.outstanding > w.maxOutstanding {
				w.maxOutstanding = w.outstanding
			}
			w.issue(t)
			issued = true
			break
		}
		if !issued {
			return
		}
	}
}

// blockedOn returns the signal the task is waiting for, or nil if it
// can be issued now.
func (w *worker) blockedOn(t fetchTask) *signal {
	switch t.kind {
	case taskInternal:
		return nil
	case taskExternalPCIe:
		if s := w.machine().cacheArrived.get(t.key); !s.fired {
			return s
		}
		return nil
	case taskExternalPeer:
		if s := w.peer().onGPUFwd.get(t.key); !s.fired {
			return s
		}
		return nil
	case taskReload:
		if s := w.offloaded.get(t.key); !s.fired {
			return s
		}
		return nil
	case taskExternalGDR:
		return nil
	}
	panic("core: unknown task kind")
}

// pullFlow starts a pull-style transfer after the control-plane round
// trip: the requester messages the holder over the socket control
// plane, and the data flows once the holder schedules the send (§6).
// Inside a batched() region the admission is coalesced with every other
// pull issued at this instant.
func (r *runner) pullFlow(name string, bytes float64, path []*fabric.Link, then func()) {
	r.pendingPulls = append(r.pendingPulls, fabric.FlowSpec{
		Name: name, Size: bytes, Eff: r.cfg.Spec.PullEfficiency, Path: path,
		OnComplete: func(*fabric.Flow) { then() },
	})
	if r.batchDepth == 0 {
		r.flushFlows()
	}
}

// memcpyFlow starts a local staging copy (host<->device or peer
// device): no control-plane round trip, near-line-rate goodput.
func (r *runner) memcpyFlow(name string, bytes float64, path []*fabric.Link, then func()) {
	r.pendingNow = append(r.pendingNow, fabric.FlowSpec{
		Name: name, Size: bytes, Eff: r.cfg.Spec.MemcpyEfficiency, Path: path,
		OnComplete: func(*fabric.Flow) { then() },
	})
	if r.batchDepth == 0 {
		r.flushFlows()
	}
}

func (w *worker) releaseCredit() {
	w.credits++
	w.outstanding--
	w.pump()
}

// issue starts the transfer for a task. Arrival fires the buffer signal
// the compute side waits on.
func (w *worker) issue(t fetchTask) {
	r := w.r
	bytes := r.expertBytes()
	arrive := func() {
		if t.backward {
			w.onGPUBwd.get(t.key).fire()
		} else {
			if r.cfg.Trace && w.idx == 0 {
				r.tl.AddMark(fmt.Sprintf("expert.block%d.ep%d.arrived", t.key.block, t.key.expert), r.c.Engine.Now())
			}
			w.onGPUFwd.get(t.key).fire()
		}
	}
	name := fmt.Sprintf("fetch.b%d.e%d.%v", t.key.block, t.key.expert, w.g)
	switch t.kind {
	case taskInternal:
		owner := r.c.GPU(r.ownerOf(t.key.block, t.key.expert))
		r.pullFlow(name, bytes, r.c.PathGPUToGPU(owner, w.g), arrive)
	case taskExternalPCIe:
		r.memcpyFlow(name, bytes, r.c.PathLocalCPUToGPU(w.g), arrive)
	case taskExternalPeer:
		r.memcpyFlow(name, bytes, r.c.PathGPUToGPU(w.peer().g, w.g), arrive)
	case taskReload:
		r.memcpyFlow(name, bytes, r.c.PathLocalCPUToGPU(w.g), arrive)
	case taskExternalGDR:
		owner := r.c.GPU(r.ownerOf(t.key.block, t.key.expert))
		r.pullFlow(name, bytes, r.c.PathGPUToGPU(owner, w.g), arrive)
	}
}

// enqueueForwardFetches builds the priority-ordered fetch list of one
// data-centric block for this worker and registers the block's external
// experts with the Inter-Node Scheduler.
func (w *worker) enqueueForwardFetches(b int) {
	r := w.r
	model := r.cfg.Model
	ePerWorker := model.ExpertsPerWorker(b, r.c.NumGPUs())
	m := r.cfg.Spec.GPUsPerNode
	machineBase := w.g.Machine.Index * m * ePerWorker
	machineExperts := m * ePerWorker
	localRank := w.g.Local

	// Internal experts: Algorithm 1 staggered order when topology-aware,
	// plain ascending order otherwise (the contended schedule of Fig 7a).
	var internal []int
	appendIfNeeded := func(pos int) {
		e := machineBase + pos
		if r.ownerOf(b, e) != w.idx && r.needs(w.idx, b, e) {
			internal = append(internal, e)
		}
	}
	if r.cfg.TopoAware {
		for i := (localRank + 1) * ePerWorker; i < machineExperts; i++ {
			appendIfNeeded(i)
		}
		for i := 0; i < localRank*ePerWorker; i++ {
			appendIfNeeded(i)
		}
	} else {
		for i := 0; i < machineExperts; i++ {
			appendIfNeeded(i)
		}
	}
	for _, e := range internal {
		w.queue = append(w.queue, fetchTask{key: expertKey{b, e}, kind: taskInternal})
	}

	// External experts: register the machine-level pull (single flight
	// in the Cache Manager), then order the stage-2 copies. With the
	// PCIe-switch-aware strategy, the two peers split the list in two
	// groups and interleave own-group PCIe copies with peer relays. Both
	// rank the union of the experts either of them needs, so an expert
	// both need is a PCIe copy on exactly one side: ranked over its own
	// list alone, a worker under sparse routing could relay an expert its
	// peer also relays, and each would wait on the other for ever.
	numExperts := model.Blocks[b].NumExperts
	peer := w.peer()
	split := r.cfg.TopoAware && peer != nil && !r.cfg.DisableCache
	var externals []int
	for e := 0; e < numExperts; e++ {
		if r.ownerOf(b, e)/m == w.g.Machine.Index {
			continue // internal or own
		}
		if !r.needs(w.idx, b, e) {
			if split && r.needs(peer.idx, b, e) {
				externals = append(externals, e)
			}
			continue
		}
		if r.cfg.DisableCache {
			w.queue = append(w.queue, fetchTask{key: expertKey{b, e}, kind: taskExternalGDR})
			continue
		}
		externals = append(externals, e)
		w.machine().requestCache(expertKey{b, e})
	}
	if split {
		var mine, theirs []fetchTask
		for rank, e := range externals {
			k := expertKey{b, e}
			if !r.needs(w.idx, b, e) {
				continue
			}
			if rank%2 == localRank%2 || !r.needs(peer.idx, b, e) {
				mine = append(mine, fetchTask{key: k, kind: taskExternalPCIe})
			} else {
				theirs = append(theirs, fetchTask{key: k, kind: taskExternalPeer})
			}
		}
		for i := 0; i < len(mine) || i < len(theirs); i++ {
			if i < len(mine) {
				w.queue = append(w.queue, mine[i])
			}
			if i < len(theirs) {
				w.queue = append(w.queue, theirs[i])
			}
		}
	} else {
		for _, e := range externals {
			w.queue = append(w.queue, fetchTask{key: expertKey{b, e}, kind: taskExternalPCIe})
		}
	}
}

// enqueueBackwardReloads queues the PCIe reloads of every expert this
// worker fetched (and offloaded) during the forward pass of block b.
func (w *worker) enqueueBackwardReloads(b int) {
	r := w.r
	numExperts := r.cfg.Model.Blocks[b].NumExperts
	for e := 0; e < numExperts; e++ {
		if r.ownerOf(b, e) == w.idx || !r.needs(w.idx, b, e) {
			continue
		}
		w.queue = append(w.queue, fetchTask{key: expertKey{b, e}, kind: taskReload, backward: true})
	}
}

// --- Inter-Node Scheduler ------------------------------------------------

// requestCache asks the Cache Manager for an external expert. The first
// request starts the cross-machine pull (striped over the machine's
// NICs); later requests coalesce onto the same arrival signal — the
// hierarchical fetch that makes each expert cross the NICs once per
// machine per iteration (§5.1.2).
func (ms *machineSched) requestCache(k expertKey) {
	if ms.fetchStarted[k] {
		return
	}
	ms.fetchStarted[k] = true
	r := ms.r
	owner := r.c.GPU(r.ownerOf(k.block, k.expert))
	via := k.expert % len(ms.m.Switches)
	name := fmt.Sprintf("cachefetch.b%d.e%d.m%d", k.block, k.expert, ms.m.Index)
	r.pullFlow(name, r.expertBytes(), r.c.PathGPUToRemoteCPU(owner, ms.m, via), func() {
		ms.cacheArrived.get(k).fire()
	})
}

// localContributors counts the machine's workers holding tokens for an
// expert — the number of gradients the pre-reduce waits for.
func (ms *machineSched) localContributors(k expertKey) int {
	n := 0
	for _, g := range ms.m.GPUs {
		if ms.r.needs(g.Global, k.block, k.expert) {
			n++
		}
	}
	return n
}

// gradArrive records one local worker's gradient reaching host memory.
// When the last local contribution lands, the CPU pre-reduces them and
// pushes a single gradient to the expert's owner.
func (ms *machineSched) gradArrive(k expertKey) {
	ms.gradArrived[k]++
	if ms.gradArrived[k] < ms.localContributors(k) {
		return
	}
	r := ms.r
	n := ms.gradArrived[k]
	// The reduce+push pipeline counts as one outstanding delivery from
	// the moment the last contribution lands, so the iteration cannot
	// appear finished while the CPU is still reducing. Nothing reads a
	// machine CPU's work names (no span hook), so every pre-reduce
	// shares one.
	r.pendingGrads++
	ms.m.CPU.Submit("prereduce",
		r.costs.GradReduce(n), func() {
			owner := r.c.GPU(r.ownerOf(k.block, k.expert))
			via := k.expert % len(ms.m.Switches)
			r.pullFlow(fmt.Sprintf("gradpush.b%d.e%d.m%d", k.block, k.expert, ms.m.Index),
				r.expertBytes(), r.c.PathCPUToRemoteGPU(ms.m, via, owner),
				r.gradDelivered)
		})
}

// --- iteration end -------------------------------------------------------

func (r *runner) gradDelivered() {
	r.pendingGrads--
	r.maybeFinishIteration()
}

func (r *runner) workerBackwardDone() {
	r.workersBwdDone++
	r.maybeFinishIteration()
}

// maybeFinishIteration runs the final synchronisation of §5.1.1: once
// every worker finished backward and every gradient reached its owner,
// all workers apply the optimizer step (and the cache is cleared, which
// costs nothing in the model).
func (r *runner) maybeFinishIteration() {
	if r.workersBwdDone < len(r.workers) || r.pendingGrads > 0 || r.optimizerSubmitted {
		return
	}
	r.optimizerSubmitted = true
	if r.cfg.ForwardOnly {
		return // inference: no parameter update
	}
	dur := r.costs.OptimizerStep(r.c.NumGPUs())
	for _, w := range r.workers {
		w.g.Compute.Submit("optimizer", dur, nil)
	}
}

// startDenseAllReduce launches the data-parallel AllReduce of the dense
// gradients, overlapped with backward compute like real frameworks do.
func (r *runner) startDenseAllReduce() {
	if r.backwardStarted {
		return
	}
	r.backwardStarted = true
	collective.RingAllReduce(r.c, r.c.GPUs(), r.costs.DenseGradBytes(r.c.NumGPUs()),
		"allreduce.dense", nil)
}

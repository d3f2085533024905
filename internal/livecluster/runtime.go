// The trainer's persistent execution runtime. The per-step drivers in
// pipeline.go schedule work onto structures that live across steps and
// across Train calls — persistent worker goroutines fed by task
// channels and a ring of reusable stepRun records per machine — so a
// steady-state training step performs zero heap allocations: goroutine
// launches, closures, maps and per-step buffers are all replaced by
// resets of preallocated state. Wire bytes live only in the transport's
// pooled frames: a gradient push is encoded straight into its request
// frame and a pull is decoded straight out of its response frame, so
// wire buffers scale with the traffic in flight, not with worker count.
//
// Scheduling only: the work items, their fold slots and their fold
// order are exactly the ones the static plan fixes (train.go), so this
// runtime produces bitwise the same weights as the per-step-goroutine
// execution it replaced.
package livecluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"janus/internal/moe"
	"janus/internal/tensor"
	"janus/internal/transport"
)

// trainCtx is a reusable context.Context: cancellable, resettable, and
// allocation-free on the steady-state path (Done's channel is created
// once and only remade after an actual cancellation).
type trainCtx struct {
	mu        sync.Mutex
	done      chan struct{}
	cancelled bool
}

func (c *trainCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

func (c *trainCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
	}
	return c.done
}

func (c *trainCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancelled {
		return context.Canceled
	}
	return nil
}

func (c *trainCtx) Value(any) any { return nil }

func (c *trainCtx) cancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancelled {
		return
	}
	c.cancelled = true
	if c.done == nil {
		c.done = make(chan struct{})
	}
	close(c.done)
}

func (c *trainCtx) reset() {
	c.mu.Lock()
	if c.cancelled {
		c.cancelled = false
		c.done = nil
	}
	c.mu.Unlock()
}

// callState is one Train call's failure latch: the first error wins,
// cancels every in-flight pull and push, and aborts the stores so
// parked version waiters unblock into errors.
type callState struct {
	cl  *Cluster
	ctx trainCtx

	mu       sync.Mutex
	firstErr error
}

func (cs *callState) reset() {
	cs.mu.Lock()
	cs.firstErr = nil
	cs.mu.Unlock()
	cs.ctx.reset()
}

func (cs *callState) fail(err error) {
	cs.mu.Lock()
	if cs.firstErr == nil {
		cs.firstErr = err
	}
	cs.mu.Unlock()
	cs.ctx.cancel()
	for _, store := range cs.cl.stores {
		store.abortTraining()
	}
}

func (cs *callState) err() error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.firstErr
}

// task points a persistent worker at one unit of a step's work.
type task struct {
	r   *stepRun
	idx int32
}

// trainCall is one Train invocation handed to the overlap drivers.
type trainCall struct {
	steps    int
	depth    int
	base     int
	outputs  []*tensor.Matrix
	reuseOut bool
}

// trainRuntime is the cluster-wide persistent execution state, built by
// trainInit and rebuilt only when the microbatch plan or the depth
// window outgrows it.
type trainRuntime struct {
	cl       *Cluster
	depthCap int
	machines []*machineRuntime
	cs       callState
	deg      runDeg
	callWG   sync.WaitGroup
	stepWG   sync.WaitGroup   // synced-schedule per-step barrier
	outputs  []*tensor.Matrix // persistent FinalOutputs slice (ReuseOutputs)
	ran      []bool           // scratch: which machines ran the current step
}

// machineRuntime is one machine's share: its plan slice with precomputed
// fold-slot layout, its worker pools, and its ring of stepRuns.
type machineRuntime struct {
	tr *trainRuntime
	cl *Cluster
	m  int

	pieces  []*workPiece
	pieceYs [][]*tensor.Matrix // per piece: final-step output scratch

	// Per-expert gradient fold layout, ascending expert order: expert
	// pushExperts[i] folds slotCount[i] pieces at parts[slotBase[i]:].
	pushExperts []int32
	slotBase    []int32
	slotCount   []int32
	slotTotal   int

	fetchCh chan task
	pieceCh chan task
	pushCh  chan task
	callCh  chan trainCall
	stepCh  chan *stepRun // synced-schedule step dispatch (see driverLoop)
	quit    chan struct{}

	runs    []*stepRun
	outMats []*tensor.Matrix // per local worker: persistent final outputs
}

// stepRun is one machine's reusable execution record for one training
// step. All slices are preallocated to the plan's shape; reset()
// restores them between steps.
type stepRun struct {
	rt *machineRuntime

	s      int  // training step number (1-based, monotonic across calls)
	final  bool // assemble worker outputs this step
	phased bool // lockstep: fetch-all, compute-all, push-all phases

	mu   sync.Mutex
	cond sync.Cond

	// Fetch slots, indexed like cl.needs[m] (resolved via cl.needIdx).
	fetchEx   []*moe.Expert
	fetchErr  []error
	fetchDone []bool
	fetchLeft int

	parts []*moe.ExpertGrad // dense fold slots (see slotBase/slotCount)
	left  []int32           // per pushExperts entry: undelivered slots

	computed    int // pieces finished (with or without error)
	computedOK  int
	pushPending int
	enqueuedAll bool // no further pushes will be enqueued for this run
	idle        bool // never started (fresh ring slot) — trivially drained

	outs []*tensor.Matrix // per local worker (final step only)
}

func newStepRun(rt *machineRuntime) *stepRun {
	r := &stepRun{rt: rt, idle: true}
	r.cond.L = &r.mu
	nf := len(rt.cl.needs[rt.m])
	r.fetchEx = make([]*moe.Expert, nf)
	r.fetchErr = make([]error, nf)
	r.fetchDone = make([]bool, nf)
	r.parts = make([]*moe.ExpertGrad, rt.slotTotal)
	r.left = make([]int32, len(rt.pushExperts))
	r.outs = make([]*tensor.Matrix, rt.cl.cfg.WorkersPerNode)
	return r
}

// newTrainRuntime builds the persistent runtime for a plan: fold-slot
// layout, stepRun rings sized depth+2, and the worker pools. Worker
// counts reproduce the concurrency of the per-step-goroutine scheduler:
// every piece of a step can run at once, and fetches/pushes from up to
// ring steps can be in flight together.
func newTrainRuntime(cl *Cluster, plan *microPlan, depth int) *trainRuntime {
	tr := &trainRuntime{cl: cl, depthCap: depth}
	tr.cs.cl = cl
	tr.machines = make([]*machineRuntime, cl.cfg.Machines)
	tr.ran = make([]bool, cl.cfg.Machines)
	ring := depth + 2
	for m := range tr.machines {
		rt := &machineRuntime{tr: tr, cl: cl, m: m}
		rt.pieces = plan.pieces[m]
		for e := range plan.slots[m] {
			rt.pushExperts = append(rt.pushExperts, int32(e))
		}
		sortInt32s(rt.pushExperts)
		rt.slotBase = make([]int32, len(rt.pushExperts))
		rt.slotCount = make([]int32, len(rt.pushExperts))
		pidxOf := make(map[int]int32, len(rt.pushExperts))
		for i, e := range rt.pushExperts {
			rt.slotBase[i] = int32(rt.slotTotal)
			rt.slotCount[i] = int32(plan.slots[m][int(e)])
			rt.slotTotal += int(rt.slotCount[i])
			pidxOf[int(e)] = int32(i)
		}
		for _, p := range rt.pieces {
			for _, pe := range p.exps {
				pe.pidx = pidxOf[pe.e]
			}
		}
		rt.pieceYs = make([][]*tensor.Matrix, len(rt.pieces))
		for i, p := range rt.pieces {
			rt.pieceYs[i] = make([]*tensor.Matrix, len(p.exps))
		}
		nf := len(cl.needs[m])
		rt.fetchCh = make(chan task, ring*max(nf, 1))
		rt.pieceCh = make(chan task, ring*max(len(rt.pieces), 1))
		rt.pushCh = make(chan task, ring*max(len(rt.pushExperts), 1))
		rt.callCh = make(chan trainCall, 1)
		rt.stepCh = make(chan *stepRun, 1)
		rt.quit = make(chan struct{})
		rt.runs = make([]*stepRun, ring)
		for i := range rt.runs {
			rt.runs[i] = newStepRun(rt)
		}
		rt.outMats = make([]*tensor.Matrix, cl.cfg.WorkersPerNode)
		tr.machines[m] = rt
		for i := 0; i < ring*nf; i++ {
			go rt.fetchWorker()
		}
		for range rt.pieces {
			go rt.pieceWorker()
		}
		for i := 0; i < ring*len(rt.pushExperts); i++ {
			go rt.pushWorker()
		}
		go rt.driverLoop()
	}
	return tr
}

func sortInt32s(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// shutdown stops every worker and driver. In-flight tasks finish first
// (their runs were aborted via the stores, so they finish fast).
func (tr *trainRuntime) shutdown() {
	for _, rt := range tr.machines {
		if rt != nil {
			close(rt.quit)
		}
	}
}

// callOutputs returns the FinalOutputs slice for one Train call: the
// persistent one under ReuseOutputs, a fresh one otherwise (callers may
// retain results across calls by default).
func (tr *trainRuntime) callOutputs(reuse bool) []*tensor.Matrix {
	if !reuse {
		return make([]*tensor.Matrix, tr.cl.cfg.numWorkers())
	}
	if tr.outputs == nil {
		tr.outputs = make([]*tensor.Matrix, tr.cl.cfg.numWorkers())
	}
	return tr.outputs
}

func (rt *machineRuntime) fetchWorker() {
	for {
		select {
		case <-rt.quit:
			return
		case t := <-rt.fetchCh:
			t.r.doFetch(int(t.idx))
		}
	}
}

func (rt *machineRuntime) pieceWorker() {
	for {
		select {
		case <-rt.quit:
			return
		case t := <-rt.pieceCh:
			t.r.runPiece(int(t.idx))
		}
	}
}

func (rt *machineRuntime) pushWorker() {
	for {
		select {
		case <-rt.quit:
			return
		case t := <-rt.pushCh:
			t.r.doPush(int(t.idx))
		}
	}
}

// startStep enqueues a step's fetch wave and pieces. Channel capacities
// cover ring steps, so the sends never block.
func (rt *machineRuntime) startStep(r *stepRun) {
	for i := range rt.cl.needs[rt.m] {
		rt.fetchCh <- task{r, int32(i)}
	}
	for i := range rt.pieces {
		rt.pieceCh <- task{r, int32(i)}
	}
}

// reset prepares a ring slot for a new step. Must only run on a drained
// slot; leftover parts (error runs abandon delivered gradients) return
// to the pool here.
func (r *stepRun) reset(s int, final, phased, reuseOut bool) {
	rt := r.rt
	r.mu.Lock()
	r.s, r.final, r.phased = s, final, phased
	for i := range r.fetchDone {
		r.fetchDone[i] = false
		r.fetchErr[i] = nil
		r.fetchEx[i] = nil
	}
	r.fetchLeft = len(r.fetchDone)
	for i, g := range r.parts {
		if g != nil {
			moe.PutExpertGrad(g)
			r.parts[i] = nil
		}
	}
	copy(r.left, rt.slotCount)
	r.computed, r.computedOK, r.pushPending = 0, 0, 0
	r.enqueuedAll = len(rt.pieces) == 0 // no pieces → no pushes ever enqueued
	r.idle = false
	for lw := range r.outs {
		r.outs[lw] = nil
	}
	if final {
		cfg := rt.cl.cfg
		for lw := range r.outs {
			if reuseOut {
				m := rt.outMats[lw]
				if m == nil {
					m = tensor.New(cfg.TokensPerWorker, cfg.Hidden)
					rt.outMats[lw] = m
				} else {
					m.Zero()
				}
				r.outs[lw] = m
			} else {
				r.outs[lw] = tensor.New(cfg.TokensPerWorker, cfg.Hidden)
			}
		}
	}
	r.mu.Unlock()
}

func (r *stepRun) fail(err error) { r.rt.tr.cs.fail(err) }

// doFetch resolves fetch slot idx (expert cl.needs[m][idx] at version
// s-1) and publishes the result for waiting pieces.
func (r *stepRun) doFetch(idx int) {
	rt := r.rt
	e := rt.cl.needs[rt.m][idx]
	ex, err := r.resolveExpert(e)
	r.mu.Lock()
	r.fetchEx[idx], r.fetchErr[idx] = ex, err
	r.fetchDone[idx] = true
	r.fetchLeft--
	r.mu.Unlock()
	r.cond.Broadcast()
}

// waitFetch blocks until fetch slot idx resolved.
func (r *stepRun) waitFetch(idx int) (*moe.Expert, error) {
	r.mu.Lock()
	for !r.fetchDone[idx] {
		r.cond.Wait()
	}
	ex, err := r.fetchEx[idx], r.fetchErr[idx]
	r.mu.Unlock()
	return ex, err
}

// waitAllFetched blocks until every fetch slot resolved (phase 1 of the
// lockstep schedule).
func (r *stepRun) waitAllFetched() {
	r.mu.Lock()
	for r.fetchLeft > 0 {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// waitComputed blocks until every piece finished (with or without
// error).
func (r *stepRun) waitComputed() {
	r.mu.Lock()
	for r.computed < len(r.rt.pieces) {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

func (r *stepRun) computedOKCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.computedOK
}

func (r *stepRun) drainedLocked() bool {
	return r.idle || (r.enqueuedAll && r.pushPending == 0)
}

func (r *stepRun) drainedNow() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.drainedLocked()
}

// waitDrained blocks until the run's pushes drained (or the run never
// started). After it returns the ring slot is safe to reset.
func (r *stepRun) waitDrained() {
	r.mu.Lock()
	for !r.drainedLocked() {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// resolveExpert resolves expert e's version-(s-1) weights: the owner's
// live object when local, otherwise a versioned pull.
func (r *stepRun) resolveExpert(e int) (*moe.Expert, error) {
	cl := r.rt.cl
	want := uint64(r.s - 1)
	if cl.ownerFor(r.rt.m, e) == r.rt.m {
		return cl.stores[r.rt.m].waitLocalAt(transport.ExpertID{Expert: uint32(e)}, want)
	}
	return r.pullVersioned(e, want)
}

// pullVersioned pulls (e, version) from its current owner and decodes
// it straight out of the transport's receive buffer, re-resolving
// ownership on remote rejections and falling back to the freshest stale
// copy when the pull cannot complete and StaleFallback allows it. The
// decode runs under staleMu and records the result as the (machine,
// expert) stale copy; no wire bytes outlive the pull.
func (r *stepRun) pullVersioned(e int, want uint64) (*moe.Expert, error) {
	rt := r.rt
	cl := rt.cl
	m := rt.m
	id := transport.ExpertID{Expert: uint32(e)}
	owner := cl.ownerFor(m, e)

	var ex *moe.Expert
	decode := func(payload []byte) error {
		cl.staleMu.Lock()
		defer cl.staleMu.Unlock()
		ent := cl.stale[m][e]
		var err error
		if cl.staleInPlace && ent != nil && ent.ex != nil {
			// Decode into the cached object. Safe: the pull⟺contribute
			// invariant orders this strictly after every compute that
			// read the previous version on this machine, and the
			// staleInPlace gate rules out any path that aliases the
			// cached object elsewhere.
			ex, err = decodeExpertInto(ent.ex, payload)
		} else {
			ex, err = decodeExpert(payload)
		}
		if err != nil {
			return err
		}
		if ent == nil {
			ent = &staleEntry{}
			cl.stale[m][e] = ent
		}
		ent.ex, ent.step = ex, r.s
		return nil
	}
	var err error
	for resolve := 0; resolve < 3; resolve++ {
		if owner == m {
			// Ownership moved here mid-resolve: serve locally.
			return cl.stores[m].waitLocalAt(id, want)
		}
		err = cl.clients[m].PullVersionFunc(&rt.tr.cs.ctx, cl.addrs[owner], id, want, decode)
		if err == nil {
			return ex, nil
		}
		// Declared after the nil check so the escaping errors.As target
		// is only allocated on the error path, never per steady pull.
		var re *transport.RemoteError
		if !errors.As(err, &re) {
			break
		}
		next := cl.ownerFor(m, e)
		if next == owner {
			break
		}
		owner = next
	}
	var fe *transport.FencedEpochError
	if errors.As(err, &fe) {
		// The cluster's membership epoch moved past ours: freeze or
		// catch up (see noteFenced) and degrade this fetch.
		cl.noteFenced(m, fe)
	}
	// Lossless fallback first: a surviving in-sync replica at exactly
	// the wanted version holds the owner's own published bytes for that
	// version, so serving it is not degradation — no staleness, and no
	// StaleFallback opt-in required. Replica entries are replaced
	// wholesale and never mutated, so the shared object is safe to
	// compute with.
	if rep := cl.replicaServe(e, want); rep != nil {
		cl.clients[m].Robust.AddReplicaServe()
		return rep, nil
	}
	if cl.cfg.StaleFallback {
		cl.staleMu.Lock()
		old := cl.stale[m][e]
		cl.staleMu.Unlock()
		if old != nil && old.ex != nil {
			cl.clients[m].Robust.AddStaleServe()
			rt.tr.deg.noteStale(r.s-old.step, r.s)
			return old.ex, nil
		}
	}
	return nil, fmt.Errorf("livecluster: machine %d pull expert %d@%d: %w", m, e, want, err)
}

// runPiece computes piece idx and books its completion; in streamed
// mode the last computed piece marks the run fully enqueued (all
// delivers — and hence all push enqueues — happened before the last
// piece's completion was counted).
func (r *stepRun) runPiece(idx int) {
	rt := r.rt
	ok := r.computePiece(rt.pieces[idx], rt.pieceYs[idx])
	r.mu.Lock()
	r.computed++
	if ok {
		r.computedOK++
	}
	fin := r.computed == len(rt.pieces)
	if fin && !r.phased {
		r.enqueuedAll = true
	}
	r.mu.Unlock()
	if fin {
		r.cond.Broadcast()
	}
}

// computePiece is one (worker, microbatch) unit: for each expert with
// tokens in the range, wait for its weights, build the upstream
// gradient rows, run the fused forward/backward, and deliver the weight
// gradient into its fold slot. On the final step it also combines the
// outputs. ys is this piece's persistent output scratch.
func (r *stepRun) computePiece(p *workPiece, ys []*tensor.Matrix) bool {
	rt := r.rt
	cl := rt.cl
	dout := cl.train.douts[p.w]
	cleanup := func() {
		for i, y := range ys {
			if y != nil {
				tensor.Put(y)
				ys[i] = nil
			}
		}
	}
	for i, pe := range p.exps {
		ex, err := r.waitFetch(int(cl.needIdx[rt.m][pe.e]))
		if err != nil {
			cleanup()
			r.fail(err)
			return false
		}
		dy := tensor.Get(len(pe.toks), cl.cfg.Hidden)
		for j, t := range pe.toks {
			dy.AddScaledRow(j, dout.Row(t), pe.ws[j])
		}
		y, grad := ex.ForwardBackward(pe.x, dy)
		tensor.Put(dy)
		if r.final {
			ys[i] = y
		} else {
			tensor.Put(y)
		}
		r.deliver(pe, grad)
	}
	if r.final {
		out := r.outs[p.w-rt.m*cl.cfg.WorkersPerNode] // pieces write disjoint token rows
		for _, c := range p.comb {
			out.AddScaledRow(c.t, ys[c.expIdx].Row(c.row), c.weight)
		}
		cleanup()
	}
	return true
}

// deliver stores a piece's gradient in its fold slot; in streamed mode
// the last slot for an expert enqueues its fold-and-push immediately,
// overlapping the push with the remaining compute.
func (r *stepRun) deliver(pe *pieceExpert, g *moe.ExpertGrad) {
	rt := r.rt
	r.mu.Lock()
	r.parts[rt.slotBase[pe.pidx]+int32(pe.slot)] = g
	r.left[pe.pidx]--
	ready := r.left[pe.pidx] == 0 && !r.phased
	if ready {
		r.pushPending++
	}
	r.mu.Unlock()
	if ready {
		rt.pushCh <- task{r, pe.pidx}
	}
}

// doPush pre-reduces the machine's gradient slots for one expert in
// (worker, microbatch) order — the slice order of its dense slot range
// — and delivers the sum to the owner: locally when this machine owns
// it, otherwise over the wire with ownership re-resolution. A push that
// cannot reach the owner is a dropped contribution when StaleFallback
// degradation is on, fatal otherwise. The JGR1 encoding is written
// straight into the transport's request frame, once per owner tried.
//
// Reading parts without the run lock is safe: every deliver to this
// expert happened before the push was enqueued (mutex edges), and the
// enqueue's channel send happened before this worker's receive.
func (r *stepRun) doPush(pidx int) {
	defer r.pushDone()
	rt := r.rt
	cl := rt.cl
	e := int(rt.pushExperts[pidx])
	base, cnt := rt.slotBase[pidx], rt.slotCount[pidx]
	acc := foldGrads(r.parts[base : base+cnt]) // nil slots: pieces that errored out
	if acc == nil {
		acc = moe.GetExpertGrad(cl.cfg.Hidden)
	}
	id := transport.ExpertID{Expert: uint32(e)}
	step := uint64(r.s)
	owner := cl.ownerFor(rt.m, e)
	n := trainGradBytes(acc)
	encode := func(buf []byte) { encodeTrainGradInto(buf, step, rt.m, acc) }
	var err error
	for resolve := 0; resolve < 3; resolve++ {
		if owner == rt.m {
			// acc's ownership transfers to the store on success.
			if aerr := cl.stores[rt.m].addTrainGrad(id, step, rt.m, acc); aerr != nil {
				moe.PutExpertGrad(acc)
				r.fail(aerr)
			}
			return
		}
		err = cl.clients[rt.m].PushGradientFunc(&rt.tr.cs.ctx, cl.addrs[owner], id, n, encode)
		if err == nil {
			break
		}
		// Declared after the nil check so the escaping errors.As target
		// is only allocated on the error path, never per steady push.
		var re *transport.RemoteError
		if !errors.As(err, &re) {
			break
		}
		next := cl.ownerFor(rt.m, e)
		if next == owner {
			break
		}
		owner = next
	}
	moe.PutExpertGrad(acc)
	if err != nil {
		var fe *transport.FencedEpochError
		if errors.As(err, &fe) {
			// A fenced push is the split-brain guard working: the
			// receiver refused a stale-epoch gradient. Never fatal —
			// the contribution is dropped exactly like an
			// unreachable-owner push.
			cl.noteFenced(rt.m, fe)
			rt.tr.deg.noteDropped(r.s)
			return
		}
		if cl.cfg.StaleFallback {
			rt.tr.deg.noteDropped(r.s)
			return
		}
		r.fail(fmt.Errorf("livecluster: machine %d push grad expert %d step %d: %w", rt.m, e, r.s, err))
	}
}

func (r *stepRun) pushDone() {
	r.mu.Lock()
	r.pushPending--
	done := r.pushPending == 0 && r.enqueuedAll
	r.mu.Unlock()
	if done {
		r.cond.Broadcast()
	}
}

// runStepSynced drives one machine through one barriered step: phased
// (lockstep: fetch-all, compute-all, push-all) or streamed (phases
// overlap within the step). Returns with the run drained.
func (rt *machineRuntime) runStepSynced(r *stepRun) {
	cl := rt.cl
	if r.phased {
		for i := range cl.needs[rt.m] {
			rt.fetchCh <- task{r, int32(i)}
		}
		r.waitAllFetched()
		for i := range rt.pieces {
			rt.pieceCh <- task{r, int32(i)}
		}
		r.waitComputed()
		r.mu.Lock()
		r.pushPending = len(rt.pushExperts)
		r.enqueuedAll = true
		drained := r.pushPending == 0
		r.mu.Unlock()
		if drained {
			r.cond.Broadcast()
		}
		for i := range rt.pushExperts {
			rt.pushCh <- task{r, int32(i)}
		}
	} else {
		rt.startStep(r)
		r.waitComputed()
	}
	cl.train.pipe.AddMicrobatches(int64(r.computedOKCount()))
	r.waitDrained()
}

// driverLoop is a machine's free-running driver: it waits for whole
// overlap Train calls (callCh) or single synced steps (stepCh) and
// runs them. Synced steps go through the same persistent goroutine as
// overlap calls — spawning a per-step goroutine in the synced
// scheduler was one closure + stack allocation per machine per step.
func (rt *machineRuntime) driverLoop() {
	for {
		select {
		case <-rt.quit:
			return
		case c := <-rt.callCh:
			rt.runCall(c)
			rt.tr.callWG.Done()
		case r := <-rt.stepCh:
			rt.runStepSynced(r)
			rt.tr.stepWG.Done()
		}
	}
}

// runCall executes one Train call's steps on this machine: a machine
// may compute step s+depth only after step s's gradient pushes drained.
// Merges are count-triggered on the owners, so the only cross-machine
// synchronisation left is the versioned pulls themselves.
func (rt *machineRuntime) runCall(c trainCall) {
	cl := rt.cl
	tr := rt.tr
	st := cl.train
	cfg := cl.cfg
	ring := len(rt.runs)
	started := 0
	for i := 0; i < c.steps; i++ {
		if tr.cs.ctx.Err() != nil {
			break
		}
		depth := c.depth
		if depth > 1 && cfg.SlowAfter > 0 && cl.peerSlow(rt.m) {
			// Gray failure: a peer is flagged slow, so shrink the
			// in-flight window instead of queueing more work behind it —
			// the pipeline slows but never stalls on a dead-man timeout.
			// Scheduling-only: fold points and order are unchanged, so
			// outputs stay bitwise.
			depth = 1
			st.pipe.AddDepthShrink()
		}
		if j := i - depth; j >= 0 {
			// Backpressure: block until step j's pushes drained.
			rj := rt.runs[j%ring]
			if !rj.drainedNow() {
				start := time.Now()
				rj.waitDrained()
				st.pipe.AddDepthStall(time.Since(start).Nanoseconds())
			}
		}
		r := rt.runs[i%ring]
		r.waitDrained() // ring-slot reuse guard (a no-op past the window wait)
		final := i == c.steps-1
		r.reset(c.base+i+1, final, false, c.reuseOut)
		started = i + 1
		rt.startStep(r)
		r.waitComputed()
		st.pipe.AddMicrobatches(int64(r.computedOKCount()))
		if final {
			// Disjoint indices per machine; the caller's callWG.Wait
			// orders these writes before its reads.
			for lw, out := range r.outs {
				c.outputs[rt.m*cfg.WorkersPerNode+lw] = out
			}
		}
	}
	// Drain the tail before the machine retires from this call.
	for i := max(0, started-ring); i < started; i++ {
		rt.runs[i%ring].waitDrained()
	}
}

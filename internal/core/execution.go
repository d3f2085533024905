package core

import (
	"fmt"
	"strconv"

	"janus/internal/collective"
	"janus/internal/config"
	"janus/internal/costmodel"
	"janus/internal/fabric"
)

// spanName names block b's compute op: op followed by b. Only a traced
// run reads span names (the processors' OnSpan), so an untraced run
// builds none.
func (r *runner) spanName(op string, b int) string {
	if !r.cfg.Trace {
		return ""
	}
	return op + strconv.Itoa(b)
}

// expertSpanName is spanName for expert e of block b: op, b, ".e", e.
func (r *runner) expertSpanName(op string, b, e int) string {
	if !r.cfg.Trace {
		return ""
	}
	return op + strconv.Itoa(b) + ".e" + strconv.Itoa(e)
}

// --- per-worker forward chain -------------------------------------------

func (w *worker) startForward(b int) {
	r := w.r
	model := r.cfg.Model
	if b == len(model.Blocks) {
		w.fwdDoneAt = r.c.Engine.Now()
		if r.cfg.Trace && w.idx == 0 {
			r.tl.AddMark("fwd.done", w.fwdDoneAt)
		}
		if r.cfg.ForwardOnly {
			// Inference: the iteration ends when every worker's forward
			// pass completes; there is no gradient work.
			r.workerBackwardDone()
			return
		}
		r.startDenseAllReduce()
		if r.cfg.Prefetch {
			// Backward prefetch: all reload requests enter the queue at
			// backward start, in the order backward will need them.
			for i := len(model.Blocks) - 1; i >= 0; i-- {
				if model.Blocks[i].Kind == config.MoE && r.report.Paradigms[i] == config.DataCentric {
					w.enqueueBackwardReloads(i)
				}
			}
			w.pump()
		}
		w.startBackward(len(model.Blocks) - 1)
		return
	}
	blk := model.Blocks[b]
	done := func() {
		if r.cfg.Trace && w.idx == 0 {
			r.tl.AddMark(fmt.Sprintf("fwd.block%d.done", b), r.c.Engine.Now())
		}
		w.startForward(b + 1)
	}
	w.g.Compute.Submit(r.spanName("attn.fwd.", b), r.dur(w.idx, r.costs.AttentionFwd()), func() {
		if blk.Kind == config.Dense {
			w.g.Compute.Submit(r.spanName("ffn.fwd.", b), r.dur(w.idx, r.costs.DenseFFNFwd()), done)
			return
		}
		w.g.Compute.Submit(r.spanName("gate.fwd.", b), r.dur(w.idx, r.costs.GateFwd(blk.NumExperts)), func() {
			switch r.report.Paradigms[b] {
			case config.ExpertCentric:
				r.ecState(b).fwd.join(r, b, w, done, false)
			case config.DataCentric:
				w.runExpertPhaseForward(b, done)
			}
		})
	})
}

// neededExperts lists this worker's experts for a block, split by
// residency.
func (w *worker) neededExperts(b int) (own, fetched []int) {
	a := w.r.assign[b]
	for e := 0; e < a.NumExperts; e++ {
		if !w.r.needs(w.idx, b, e) {
			continue
		}
		if w.r.ownerOf(b, e) == w.idx {
			own = append(own, e)
		} else {
			fetched = append(fetched, e)
		}
	}
	return own, fetched
}

// runExpertPhaseForward executes a data-centric block's expert layer on
// one worker: each needed expert's compute is submitted as soon as the
// expert is resident, the used expert is offloaded to the host and its
// credit released, and the block finishes with the weighted combine.
func (w *worker) runExpertPhaseForward(b int, done func()) {
	r := w.r
	if !r.cfg.Prefetch {
		w.enqueueForwardFetches(b)
		w.pump()
	}
	own, fetched := w.neededExperts(b)
	phaseStart := r.c.Engine.Now()
	pending := len(own) + len(fetched)
	computeSum := 0.0
	combineDur := r.dur(w.idx, r.costs.Combine())
	finishPhase := func() {
		w.g.Compute.Submit(r.spanName("combine.fwd.", b), combineDur, func() {
			stall := (r.c.Engine.Now() - phaseStart) - computeSum - combineDur
			if stall > 0 {
				w.stallTime += stall
			}
			done()
		})
	}
	if pending == 0 {
		finishPhase()
		return
	}
	a := r.assign[b]
	runExpert := func(e int, isFetched bool) {
		key := expertKey{b, e}
		dur := r.dur(w.idx, r.costs.ExpertFwd(a.Counts[w.idx][e]))
		if isFetched {
			dur += r.fetchOpTime()
		}
		w.g.Compute.Submit(r.expertSpanName("expert.fwd.", b, e), dur, func() {
			computeSum += dur
			if isFetched {
				// Offload to host memory for backward reuse; the buffer
				// slot frees as soon as the compute finishes (§5.1.1).
				w.releaseCredit()
				key := key
				r.memcpyFlow(fmt.Sprintf("offload.b%d.e%d.%v", b, e, w.g),
					r.expertBytes(), r.c.PathGPUToLocalCPU(w.g), func() {
						w.offloaded.get(key).fire()
					})
			}
			pending--
			if pending == 0 {
				finishPhase()
			}
		})
	}
	for _, e := range own {
		runExpert(e, false)
	}
	for _, e := range fetched {
		e := e
		w.onGPUFwd.get(expertKey{b, e}).wait(func() { runExpert(e, true) })
	}
}

// --- per-worker backward chain --------------------------------------------

func (w *worker) startBackward(b int) {
	r := w.r
	if b < 0 {
		r.workerBackwardDone()
		return
	}
	blk := r.cfg.Model.Blocks[b]
	next := func() { w.startBackward(b - 1) }
	if blk.Kind == config.Dense {
		w.g.Compute.Submit(r.spanName("dense.bwd.", b),
			r.dur(w.idx, r.costs.AttentionBwd()+r.costs.DenseFFNBwd()), next)
		return
	}
	afterExperts := func() {
		w.g.Compute.Submit(r.spanName("attn.bwd.", b), r.dur(w.idx, r.costs.AttentionBwd()), next)
	}
	switch r.report.Paradigms[b] {
	case config.ExpertCentric:
		r.ecState(b).bwd.join(r, b, w, afterExperts, true)
	case config.DataCentric:
		w.runExpertPhaseBackward(b, afterExperts)
	}
}

// runExpertPhaseBackward mirrors the forward phase: experts are
// reloaded from the host (credit-gated), each expert's gradient is
// computed over this worker's token slice and shipped toward the
// expert's owner, with external gradients pre-reduced per machine.
func (w *worker) runExpertPhaseBackward(b int, done func()) {
	r := w.r
	if !r.cfg.Prefetch {
		w.enqueueBackwardReloads(b)
		w.pump()
	}
	own, fetched := w.neededExperts(b)
	phaseStart := r.c.Engine.Now()
	pending := len(own) + len(fetched)
	computeSum := 0.0
	finishPhase := func() {
		stall := (r.c.Engine.Now() - phaseStart) - computeSum
		if stall > 0 {
			w.stallTime += stall
		}
		done()
	}
	if pending == 0 {
		finishPhase()
		return
	}
	a := r.assign[b]
	runExpert := func(e int, isFetched bool) {
		dur := r.dur(w.idx, r.costs.ExpertBwd(a.Counts[w.idx][e]))
		if isFetched {
			dur += r.fetchOpTime()
		}
		w.g.Compute.Submit(r.expertSpanName("expert.bwd.", b, e), dur, func() {
			computeSum += dur
			if isFetched {
				w.releaseCredit()
			}
			w.sendGrad(b, e)
			pending--
			if pending == 0 {
				finishPhase()
			}
		})
	}
	for _, e := range own {
		runExpert(e, false)
	}
	for _, e := range fetched {
		e := e
		w.onGPUBwd.get(expertKey{b, e}).wait(func() { runExpert(e, true) })
	}
}

// sendGrad routes one expert gradient toward its owner: accumulated
// locally for own experts, pushed over NVLink for internal experts,
// and staged through the Inter-Node Scheduler's pre-reduce for
// external ones (§5.1.2 backward).
func (w *worker) sendGrad(b, e int) {
	r := w.r
	owner := r.ownerOf(b, e)
	if owner == w.idx {
		return
	}
	key := expertKey{b, e}
	bytes := r.expertBytes()
	ownerGPU := r.c.GPU(owner)
	if ownerGPU.Machine == w.g.Machine {
		r.pendingGrads++
		r.pendingNow = append(r.pendingNow, fabric.FlowSpec{
			Name: fmt.Sprintf("grad.b%d.e%d.%v", b, e, w.g),
			Size: bytes, Eff: r.cfg.Spec.PullEfficiency,
			Path:       r.c.PathGPUToGPU(w.g, ownerGPU),
			OnComplete: func(*fabric.Flow) { r.gradDelivered() },
		})
		if r.batchDepth == 0 {
			r.flushFlows()
		}
		return
	}
	r.pendingGrads++
	ms := w.machine()
	r.memcpyFlow(fmt.Sprintf("gradstage.b%d.e%d.%v", b, e, w.g),
		bytes, r.c.PathGPUToLocalCPU(w.g), func() {
			ms.gradArrive(key)
			r.gradDelivered()
		})
}

// --- expert-centric blocks inside Janus ------------------------------------

// ecBlock coordinates the synchronous All-to-All phases of a block the
// policy kept expert-centric.
type ecBlock struct {
	fwd ecPhase
	bwd ecPhase
}

type ecPhase struct {
	workers []*worker
	conts   []func()
	joinAt  []float64
}

func (r *runner) ecState(b int) *ecBlock {
	eb, ok := r.ec[b]
	if !ok {
		eb = &ecBlock{}
		r.ec[b] = eb
	}
	return eb
}

// join registers a worker at the phase barrier; the last arrival runs
// the A2A → expert compute → A2A sequence and then releases everyone.
func (p *ecPhase) join(r *runner, b int, w *worker, cont func(), backward bool) {
	p.workers = append(p.workers, w)
	p.conts = append(p.conts, cont)
	p.joinAt = append(p.joinAt, r.c.Engine.Now())
	if len(p.workers) < len(r.workers) {
		return
	}
	r.runECPhase(b, p, backward)
}

func (r *runner) runECPhase(b int, p *ecPhase, backward bool) {
	a := r.assign[b]
	nw := r.c.NumGPUs()
	tokB := costmodel.TokenBytes(r.cfg.Model.H)
	dispatch := make([][]float64, nw)
	recv := make([]int, nw)
	for w := 0; w < nw; w++ {
		dispatch[w] = make([]float64, nw)
		for e := 0; e < a.NumExperts; e++ {
			v := r.ownerOf(b, e)
			if v != w {
				dispatch[w][v] += float64(a.Counts[w][e]) * tokB
			}
		}
	}
	computeDur := make([]float64, nw)
	for e := 0; e < a.NumExperts; e++ {
		owner := r.ownerOf(b, e)
		load := a.ExpertLoad(e)
		recv[owner] += load
		if backward {
			computeDur[owner] += r.costs.ExpertBwd(load)
		} else {
			computeDur[owner] += r.costs.ExpertFwd(load)
		}
	}
	phase := "fwd"
	if backward {
		phase = "bwd"
	}
	name := "a2a." + phase + "." + strconv.Itoa(b)
	start := r.c.Engine.Now()
	release := func() {
		now := r.c.Engine.Now()
		if r.cfg.Trace {
			r.tl.AddSpan("net", name, start, now)
		}
		for i, w := range p.workers {
			stall := (now - p.joinAt[i]) - computeDur[w.idx]
			if stall > 0 {
				w.stallTime += stall
			}
		}
		conts := p.conts
		for _, c := range conts {
			c()
		}
	}
	collective.AllToAll(r.c, r.c.GPUs(), dispatch, name+".in", func() {
		barrier := len(r.workers)
		for _, w := range p.workers {
			w.g.Compute.Submit(r.spanName("expert."+phase+".", b),
				r.dur(w.idx, computeDur[w.idx]), func() {
					barrier--
					if barrier == 0 {
						collective.AllToAll(r.c, r.c.GPUs(), transpose(dispatch), name+".out", release)
					}
				})
		}
	})
}

func transpose(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range out {
		out[i] = make([]float64, len(m))
		for j := range m {
			out[i][j] = m[j][i]
		}
	}
	return out
}

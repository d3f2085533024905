// Training-side state of the live cluster: versioned expert weights,
// deterministic gradient merging, and the static microbatch plan the
// pipelined trainer streams through.
//
// Bit-identity discipline (the contract the differential tests pin):
// an expert's weights advance through integer versions, version s being
// the weights after the step-s merge. A merge folds the per-machine
// pre-reduced gradients in ascending source-machine order, and each
// machine pre-reduces its partial gradients in ascending (worker,
// microbatch) order — both orders are fixed by the static plan, never
// by arrival timing. Forward outputs are microbatch-invariant bitwise
// (every kernel is per-output-row), but gradient sums are not float-
// reassociation-free, so lockstep and pipelined runs must use the same
// microbatch count to compare bitwise — they then do, by construction,
// because timing can only reorder work between the fixed fold points.
//
// Allocation discipline (the contract the zero-alloc gates pin): the
// steady-state merge path allocates nothing. Wire gradients decode into
// pooled ExpertGrads, contributions collect in reusable dense
// pendingMerge slots (indexed by the shared expect table), the merge
// accumulator is the first present contribution itself rather than a
// fresh zeroed gradient (see foldGrads), and the published encodings
// live in a per-store refcounted buffer freelist (see livecluster.go).
package livecluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"janus/internal/metrics"
	"janus/internal/moe"
	"janus/internal/tensor"
	"janus/internal/transport"
)

// trainGradMagic prefixes training gradient payloads on the wire.
const trainGradMagic = 0x4A475231 // "JGR1"

// trainGradHeaderBytes is magic + step (u64) + source machine (u32).
const trainGradHeaderBytes = 4 + 8 + 4

// trainGradBytes is the length of g's JGR1 encoding.
func trainGradBytes(g *moe.ExpertGrad) int {
	return trainGradHeaderBytes + 4*(len(g.DW1.Data)+len(g.DW2.Data))
}

// encodeTrainGradInto serialises one pre-reduced gradient contribution
// into buf (grown only when too small): header, then DW1 and DW2 as
// little-endian float32 bit patterns, so a decode reproduces the exact
// bits that were folded on the sender. Returns the filled slice.
func encodeTrainGradInto(buf []byte, step uint64, source int, g *moe.ExpertGrad) []byte {
	n1 := len(g.DW1.Data)
	need := trainGradBytes(g)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	binary.BigEndian.PutUint32(buf[0:4], trainGradMagic)
	binary.BigEndian.PutUint64(buf[4:12], step)
	binary.BigEndian.PutUint32(buf[12:16], uint32(source))
	transport.PutFloat32s(buf[trainGradHeaderBytes:], g.DW1.Data)
	transport.PutFloat32s(buf[trainGradHeaderBytes+4*n1:], g.DW2.Data)
	return buf
}

// parseTrainGradHeader validates a training gradient payload for hidden
// size h and returns its header fields without decoding the floats.
func parseTrainGradHeader(payload []byte, h int) (step uint64, source int, err error) {
	if len(payload) < trainGradHeaderBytes || binary.BigEndian.Uint32(payload[0:4]) != trainGradMagic {
		return 0, 0, fmt.Errorf("livecluster: bad training gradient magic")
	}
	n1 := h * 4 * h
	n2 := n1
	if len(payload) != trainGradHeaderBytes+4*(n1+n2) {
		return 0, 0, fmt.Errorf("livecluster: training gradient %d bytes, want %d",
			len(payload), trainGradHeaderBytes+4*(n1+n2))
	}
	return binary.BigEndian.Uint64(payload[4:12]), int(binary.BigEndian.Uint32(payload[12:16])), nil
}

// decodeTrainGradInto fills g (already the right shape) with the float
// payload of a validated training gradient. Every element is
// overwritten, so g may come from GetExpertGradUninit.
func decodeTrainGradInto(g *moe.ExpertGrad, payload []byte) {
	transport.Float32s(g.DW1.Data, payload[trainGradHeaderBytes:])
	transport.Float32s(g.DW2.Data, payload[trainGradHeaderBytes+4*len(g.DW1.Data):])
}

// foldGrads sums the non-nil gradients of parts in slice order, clearing
// every slot, and returns the sum (nil when every slot is nil). The
// first present contribution is the accumulator; the rest are added
// into it and recycled. That is bitwise what adding every contribution
// into a fresh zeroed gradient gives, one pass cheaper: an honest
// gradient is arithmetic started from +0 (MatMulTransAInto onto a
// zeroed matrix, or a fold of such sums), so it never holds −0 or a
// signalling NaN, and +0 + g == g bit for bit.
func foldGrads(parts []*moe.ExpertGrad) *moe.ExpertGrad {
	var acc *moe.ExpertGrad
	for i, g := range parts {
		if g == nil {
			continue
		}
		parts[i] = nil
		if acc == nil {
			acc = g
			continue
		}
		acc.Accumulate(g)
		moe.PutExpertGrad(g)
	}
	return acc
}

// pendingMerge collects the contributions for one (expert, step) merge
// in a dense slice indexed by the expert's expect-table position, so the
// fold order is the slice order and the buffer is reusable step after
// step. Inactive entries stay on the expert's list for reuse.
type pendingMerge struct {
	step   uint64
	got    []*moe.ExpertGrad // dense by expect index; pooled, store-owned
	n      int               // contributions present
	active bool
}

// enableTraining switches the store into versioned-training mode.
// expect is the shared contributor table (expert index → ascending
// machines that route tokens to it — ownership-independent, so it
// survives failover re-homes) and expectIdx its dense inverse (expert →
// machine → position in expect, -1 when absent); startVer seeds every
// hosted expert's version on first enable (later calls keep the
// versions already reached). countTrigger selects the merge trigger:
// true applies a step's merge the moment every expected contribution
// arrived (the free-running overlap mode), false leaves merging to
// flushTo at the step barrier (lockstep and step-synced modes).
func (s *machineStore) enableTraining(expect [][]int, expectIdx [][]int32, lr float32, countTrigger bool, pipe *metrics.Pipeline, startVer uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trainOn = true
	s.aborted = false
	s.countTrigger = countTrigger
	s.lr = lr
	s.expect = expect
	s.expectIdx = expectIdx
	s.pipe = pipe
	if s.ver == nil {
		s.ver = make(map[transport.ExpertID]uint64, len(s.experts))
		s.pending = make(map[transport.ExpertID][]*pendingMerge)
		for id := range s.experts {
			s.ver[id] = startVer
		}
	}
	s.cond.Broadcast()
}

// abortTraining permanently unblocks every version waiter with an
// error; the next enableTraining call re-arms the store.
func (s *machineStore) abortTraining() {
	s.mu.Lock()
	s.aborted = true
	if s.cond != nil {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// detachExperts replaces every hosted expert with a deep copy, so SGD
// updates never write through to the seed layer the expert-centric
// reference computes from.
func (s *machineStore) detachExperts() {
	s.mu.Lock()
	for id, e := range s.experts {
		s.experts[id] = e.Clone()
	}
	s.mu.Unlock()
}

var errTrainAborted = errors.New("livecluster: training aborted")

// ExpertBytesAt implements transport.VersionedStore: it serves the
// expert's encoded weights at exactly the requested version, parking
// the caller until the owner's merge publishes it. The park is the
// pipeline's backpressure — a puller one step ahead waits here, inside
// its own server handler goroutine, instead of receiving torn weights.
// The returned buffer is refcounted; the transport releases it after
// the copy to the wire (see ReleaseExpertBytes).
func (s *machineStore) ExpertBytesAt(id transport.ExpertID, version uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var waitStart time.Time
	for {
		if s.aborted || !s.trainOn {
			return nil, errTrainAborted
		}
		e, ok := s.experts[id]
		if !ok {
			// Surfaces as a RemoteError so the puller re-resolves
			// ownership (the expert may have been re-homed).
			return nil, fmt.Errorf("livecluster: expert %v not hosted", id)
		}
		switch v := s.ver[id]; {
		case v == version:
			if !waitStart.IsZero() {
				s.pipe.AddVersionWait(time.Since(waitStart).Nanoseconds())
			}
			return s.encRefLocked(id, e), nil
		case v > version:
			// The pull⟺contribute invariant makes this unreachable in a
			// correct run: a version can only pass `version` after the
			// puller's own contribution for version+1 arrived, which it
			// sends only after this pull returns.
			return nil, fmt.Errorf("livecluster: expert %v version %d superseded by %d", id, version, v)
		}
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		s.cond.Wait()
	}
}

// waitLocalAt is the owner-local analogue of ExpertBytesAt: it blocks
// until the expert reaches the version, then returns the live object.
// Safe to compute with without a copy: the next merge that would mutate
// it cannot apply until this machine's own contribution for that merge
// is delivered, which happens only after the compute using this object
// finished.
func (s *machineStore) waitLocalAt(id transport.ExpertID, version uint64) (*moe.Expert, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var waitStart time.Time
	for {
		if s.aborted || !s.trainOn {
			return nil, errTrainAborted
		}
		e, ok := s.experts[id]
		if !ok {
			return nil, fmt.Errorf("livecluster: expert %v not hosted", id)
		}
		switch v := s.ver[id]; {
		case v == version:
			if !waitStart.IsZero() {
				s.pipe.AddVersionWait(time.Since(waitStart).Nanoseconds())
			}
			return e, nil
		case v > version:
			return nil, fmt.Errorf("livecluster: expert %v version %d superseded by %d", id, version, v)
		}
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		s.cond.Wait()
	}
}

// claimPendingLocked returns the active pendingMerge for (id, step),
// reviving an inactive buffer from the expert's list (or appending one)
// when none is. want is the expert's expected contributor count.
func (s *machineStore) claimPendingLocked(id transport.ExpertID, step uint64, want int) *pendingMerge {
	var free *pendingMerge
	for _, pm := range s.pending[id] {
		if pm.active && pm.step == step {
			return pm
		}
		if !pm.active && free == nil {
			free = pm
		}
	}
	if free == nil {
		free = &pendingMerge{}
		s.pending[id] = append(s.pending[id], free)
	}
	free.step = step
	free.active = true
	free.n = 0
	if cap(free.got) < want {
		free.got = make([]*moe.ExpertGrad, want)
	} else {
		free.got = free.got[:want]
		for i := range free.got {
			free.got[i] = nil
		}
	}
	return free
}

// findPendingLocked returns the active merge buffer for (id, step), or
// nil when no contribution for that step has arrived.
func (s *machineStore) findPendingLocked(id transport.ExpertID, step uint64) *pendingMerge {
	for _, pm := range s.pending[id] {
		if pm.active && pm.step == step {
			return pm
		}
	}
	return nil
}

// releasePendingLocked drops every buffered contribution for id,
// returning the pooled gradients — the install/remove/re-home path.
func (s *machineStore) releasePendingLocked(id transport.ExpertID) {
	for _, pm := range s.pending[id] {
		if !pm.active {
			continue
		}
		for i, g := range pm.got {
			if g != nil {
				moe.PutExpertGrad(g)
				pm.got[i] = nil
			}
		}
		pm.n = 0
		pm.active = false
	}
}

// addTrainGrad records one machine's pre-reduced contribution for
// (expert, step). On success the store owns g (it is recycled by the
// merge); on error the caller keeps ownership. In count-trigger mode it
// applies the merge chain as soon as a step's expected set completes.
func (s *machineStore) addTrainGrad(id transport.ExpertID, step uint64, source int, g *moe.ExpertGrad) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.trainOn || s.aborted {
		return errTrainAborted
	}
	if _, ok := s.experts[id]; !ok {
		return fmt.Errorf("livecluster: expert %v not hosted", id)
	}
	if step <= s.ver[id] {
		return fmt.Errorf("livecluster: gradient for step %d but expert %v already at version %d", step, id, s.ver[id])
	}
	e := int(id.Expert)
	if e >= len(s.expectIdx) {
		return fmt.Errorf("livecluster: gradient for unknown expert %v", id)
	}
	row := s.expectIdx[e]
	if source < 0 || source >= len(row) || row[source] < 0 {
		// A contributor outside the static expect set (a corrupted or
		// forged source field) can never complete a merge — reject it
		// instead of burying it in a buffer that would skew the count
		// trigger.
		return fmt.Errorf("livecluster: machine %d is not an expected contributor for expert %v", source, id)
	}
	di := row[source]
	pm := s.claimPendingLocked(id, step, len(s.expect[e]))
	if pm.got[di] != nil {
		return fmt.Errorf("livecluster: duplicate gradient from machine %d for %v step %d", source, id, step)
	}
	pm.got[di] = g
	pm.n++
	if s.countTrigger {
		s.advanceLocked(id)
	}
	return nil
}

// AddGradient implements transport.Store: it decodes a pushed JGR1
// training gradient into a pooled buffer and records it. The payload is
// only valid during the call (transport contract), so the floats are
// copied out here.
func (s *machineStore) AddGradient(id transport.ExpertID, payload []byte) error {
	step, source, err := parseTrainGradHeader(payload, s.h)
	if err != nil {
		return err
	}
	g := moe.GetExpertGradUninit(s.h)
	decodeTrainGradInto(g, payload)
	if err := s.addTrainGrad(id, step, source, g); err != nil {
		moe.PutExpertGrad(g)
		return err
	}
	return nil
}

// advanceLocked applies complete pending merges in step order: version
// v+1 applies once every machine in the expert's expected contributor
// set has delivered its step-(v+1) gradient.
func (s *machineStore) advanceLocked(id transport.ExpertID) {
	e := int(id.Expert)
	for {
		next := s.ver[id] + 1
		pm := s.findPendingLocked(id, next)
		if pm == nil || pm.n < len(s.expect[e]) {
			return
		}
		s.applyMergeLocked(id, pm, true)
	}
}

// applyMergeLocked folds one step's contributions in ascending source-
// machine order (the dense buffer's slice order — the deterministic
// merge), applies SGD, and publishes the next version. A nil or empty
// buffer (contributions lost to faults or a dead sender) publishes the
// version with unchanged weights — the trainer's analogue of a skipped
// micro-update, and what keeps parked pullers from deadlocking on a
// step whose gradients died with a machine.
func (s *machineStore) applyMergeLocked(id transport.ExpertID, pm *pendingMerge, countTriggered bool) {
	next := s.ver[id] + 1
	if pm != nil && pm.n > 0 {
		acc := foldGrads(pm.got)
		s.experts[id].ApplySGD(acc, s.lr)
		moe.PutExpertGrad(acc)
		s.invalidateEncLocked(id)
	}
	if pm != nil {
		pm.n = 0
		pm.active = false
	}
	s.ver[id] = next
	if countTriggered {
		s.pipe.AddMerge()
	} else {
		s.pipe.AddFlush()
	}
	s.cond.Broadcast()
}

// flushTo advances every hosted expert to the target version at a step
// barrier, folding whatever contributions arrived (ascending expert
// order for a deterministic iteration). This is the lockstep merge and
// the step-synced pipeline's merge; under count-trigger mode it is a
// no-op for experts that already advanced.
func (s *machineStore) flushTo(target uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.trainOn || s.aborted {
		return
	}
	for _, id := range s.sortedLocked() {
		for s.ver[id] < target {
			s.applyMergeLocked(id, s.findPendingLocked(id, s.ver[id]+1), false)
		}
	}
}

// sortedLocked returns the hosted expert ids in ascending order,
// rebuilt only when hosting changed (install/remove/commit invalidate
// it) so the per-step flush does not re-sort an unchanged set.
func (s *machineStore) sortedLocked() []transport.ExpertID {
	if s.sorted == nil {
		s.sorted = make([]transport.ExpertID, 0, len(s.experts))
		for id := range s.experts {
			s.sorted = append(s.sorted, id)
		}
		sort.Slice(s.sorted, func(i, j int) bool {
			if s.sorted[i].Block != s.sorted[j].Block {
				return s.sorted[i].Block < s.sorted[j].Block
			}
			return s.sorted[i].Expert < s.sorted[j].Expert
		})
	}
	return s.sorted
}

// installAt is install plus version bookkeeping: the failover re-home
// path during training publishes the restored (possibly stale) weights
// at the current step's expected version so parked pullers proceed
// deterministically.
func (s *machineStore) installAt(id transport.ExpertID, e *moe.Expert, ver uint64) {
	s.mu.Lock()
	s.experts[id] = e
	s.invalidateEncLocked(id)
	s.sorted = nil
	if s.trainOn {
		s.ver[id] = ver
		s.releasePendingLocked(id)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// trainState is the cluster's cross-call training bookkeeping.
type trainState struct {
	steps    int // training steps completed (the version clock)
	detached bool
	douts    []*tensor.Matrix // per worker: deterministic upstream gradient
	expect   [][]int          // expert -> ascending contributor machines
	// expectIdx is expect's dense inverse: expert -> machine -> position
	// in expect[e], -1 when the machine is not a contributor. Shared by
	// every store so the wire-gradient fast path is an array lookup.
	expectIdx [][]int32
	plan      *microPlan
	pipe      metrics.Pipeline

	// rt is the persistent execution runtime (worker pools, step-run
	// rings, scratch) the per-step drivers schedule onto; rebuilt only
	// when the plan shape or depth window changes (see runtime.go).
	rt *trainRuntime

	// lr and countTrigger mirror the last trainInit's arming arguments,
	// so a machine joining mid-Train can arm its store identically.
	lr           float32
	countTrigger bool
}

// microPlan is the static decomposition of every worker's batch into M
// contiguous-token microbatches, with everything the per-step loop
// needs precomputed: sliced inputs, combine terms, per-expert gradient
// slot assignments in the deterministic (worker, microbatch) fold
// order.
type microPlan struct {
	m      int
	pieces [][]*workPiece // machine -> its pieces, (worker asc, microbatch asc)
	slots  []map[int]int  // machine -> expert -> number of contributing pieces
}

// workPiece is one (worker, microbatch) unit of streamed work.
type workPiece struct {
	w      int // global worker index
	lo, hi int // token range [lo, hi)
	exps   []*pieceExpert
	comb   []combOp // output combine ops, (token asc, expert asc)
}

// pieceExpert is one expert's share of a piece.
type pieceExpert struct {
	e    int
	x    *tensor.Matrix // view into the pre-gathered xes rows for this range
	toks []int          // the tokens of those rows (ascending)
	ws   []float32      // combine weight of (token, e), aligned with toks
	slot int            // index in the machine's per-expert fold order
	pidx int32          // index into the machine runtime's pushExperts
}

// combOp adds one weighted expert-output row into an output token row.
type combOp struct {
	t, expIdx, row int
	weight         float32
}

// buildMicroPlan cuts every worker's batch into m contiguous token
// ranges and precomputes each range's per-expert input views, combine
// terms and gradient fold slots. Pure function of the static routing —
// identical across modes, which is half the bit-identity argument.
func (cl *Cluster) buildMicroPlan(m int) *microPlan {
	cfg := cl.cfg
	plan := &microPlan{
		m:      m,
		pieces: make([][]*workPiece, cfg.Machines),
		slots:  make([]map[int]int, cfg.Machines),
	}
	for mach := 0; mach < cfg.Machines; mach++ {
		slots := make(map[int]int)
		for lw := 0; lw < cfg.WorkersPerNode; lw++ {
			w := mach*cfg.WorkersPerNode + lw
			ri := cl.rindex[w]
			routing := cl.routings[w]
			T := cfg.TokensPerWorker
			for b := 0; b < m; b++ {
				lo, hi := b*T/m, (b+1)*T/m
				if hi == lo {
					continue
				}
				p := &workPiece{w: w, lo: lo, hi: hi}
				epos := make(map[int]int) // expert -> index in p.exps
				xlos := make(map[int]int) // expert -> row offset of the slice
				for _, e := range ri.needed {
					toks := ri.tokens[e]
					xlo := sort.SearchInts(toks, lo)
					xhi := sort.SearchInts(toks, hi)
					if xhi == xlo {
						continue
					}
					pe := &pieceExpert{
						e:    e,
						x:    cl.xes[w][e].RowSlice(xlo, xhi),
						toks: toks[xlo:xhi],
						slot: slots[e],
					}
					slots[e]++
					for _, t := range pe.toks {
						for k, te := range routing.Experts[t] {
							if te == e {
								pe.ws = append(pe.ws, routing.Weights[t][k])
							}
						}
					}
					epos[e] = len(p.exps)
					xlos[e] = xlo
					p.exps = append(p.exps, pe)
				}
				for t := lo; t < hi; t++ {
					for _, c := range ri.byToken[t] {
						p.comb = append(p.comb, combOp{
							t:      t,
							expIdx: epos[c.expert],
							row:    c.row - xlos[c.expert],
							weight: c.weight,
						})
					}
				}
				plan.pieces[mach] = append(plan.pieces[mach], p)
			}
		}
		plan.slots[mach] = slots
	}
	return plan
}

// trainInit builds (or refreshes) the cluster's training state for one
// Train call: detach store weights from the seed layer (once), build
// the contributor table and upstream gradients (once), (re)build the
// microbatch plan and execution runtime when their shape changed, and
// arm every store.
func (cl *Cluster) trainInit(opts TrainOptions, countTrigger bool) {
	cfg := cl.cfg
	if cl.train == nil {
		st := &trainState{}
		st.douts = make([]*tensor.Matrix, cfg.numWorkers())
		for w := range st.douts {
			st.douts[w] = tensor.NewRandom(cfg.TokensPerWorker, cfg.Hidden, 1, cfg.Seed+5000+int64(w))
		}
		st.expect = make([][]int, cfg.NumExperts)
		for m := 0; m < cfg.Machines; m++ {
			for _, e := range cl.needs[m] {
				st.expect[e] = append(st.expect[e], m)
			}
		}
		st.expectIdx = make([][]int32, cfg.NumExperts)
		for e := range st.expectIdx {
			row := make([]int32, cfg.Machines)
			for i := range row {
				row[i] = -1
			}
			for di, m := range st.expect[e] {
				row[m] = int32(di)
			}
			st.expectIdx[e] = row
		}
		cl.train = st
	}
	st := cl.train
	if st.plan == nil || st.plan.m != opts.Microbatches {
		st.plan = cl.buildMicroPlan(opts.Microbatches)
		if st.rt != nil {
			st.rt.shutdown()
			st.rt = nil
		}
	}
	if st.rt == nil || st.rt.depthCap < opts.Depth {
		if st.rt != nil {
			st.rt.shutdown()
		}
		st.rt = newTrainRuntime(cl, st.plan, max(opts.Depth, DefaultPipelineDepth))
	}
	if !st.detached {
		for _, s := range cl.stores {
			s.detachExperts()
		}
		st.detached = true
	}
	st.lr = opts.LR
	st.countTrigger = countTrigger
	for _, s := range cl.stores {
		s.enableTraining(st.expect, st.expectIdx, opts.LR, countTrigger, &st.pipe, uint64(st.steps))
	}
	st.rt.cs.reset()
	st.rt.deg.reset()
}

// ExpertState returns every expert's current encoded weights, read from
// its current owner — the differential tests' bitwise comparison point.
// Each encoding is a fresh copy the caller owns outright (the pooled
// serving buffers stay inside the stores).
func (cl *Cluster) ExpertState() ([][]byte, error) {
	out := make([][]byte, cl.cfg.NumExperts)
	for e := range out {
		owner := cl.currentOwner(e)
		b, err := cl.stores[owner].expertBytesCopy(transport.ExpertID{Expert: uint32(e)})
		if err != nil {
			return nil, err
		}
		out[e] = b
	}
	return out, nil
}

// TrainSteps returns how many training steps the cluster has completed.
func (cl *Cluster) TrainSteps() int {
	if cl.train == nil {
		return 0
	}
	return cl.train.steps
}

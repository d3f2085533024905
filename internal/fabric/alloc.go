// Rate allocation. A "settle" resolves every arrival and completion
// that occurred at one virtual instant with a single progressive-filling
// pass and re-anchors only what actually changed.
//
// Bit-identity invariants (enforced by differential_test.go):
//
//  1. Component restriction is exact, not approximate. Progressive
//     filling touches a link's residual/nActive only through flows that
//     cross it, so the fill restricted to the connected component of
//     the perturbed links performs the identical float operations the
//     full fill performs on that component; flows outside it would
//     recompute to bitwise-equal rates, which re-anchoring then skips.
//
//     Three shortcuts rest on it. After a settle whose scope was every
//     active flow, a settle with only retirements since fills the whole
//     active set, a union of components that holds the perturbed one,
//     without walking it. A link's rate sums are recomputed only if it
//     is a trigger link or a re-anchored flow crosses it: any other link
//     has the same flows in the same order at the same rates, so its
//     sums would be the same bits. The oracle recomputes every sum, so
//     the differential checks the skip.
//
//     And that whole-set fill resumes where a retirement first changes
//     it (scopeResume). Until the first round that froze a retiring
//     flow, the old fill's bottlenecks carried no retiring flow, so
//     their keys are unchanged; every link a retiring flow crossed keeps
//     its residual over a smaller unfrozen count, so its (share, index)
//     key can only grow (its residual is positive while it has unfrozen
//     flows, or the zero-goodput panic below fires); no other key moves.
//     Those rounds therefore repeat bit for bit, so the resume restores
//     rather than replays them: each link a later round crosses takes
//     the residual logged just before the first later freeze that
//     crossed it, the result of the same clamped steps in log order (a
//     log entry's predecessors never change while it is kept), and an
//     unfrozen count of the still-active later flows that cross it. That
//     is where a fresh fill has every link when it reaches the round.
//     The round is the unit: its share changes, so every flow it froze
//     is filled again.
//
//  2. Bottleneck selection order within a component matches the naive
//     scan. The naive scan picks the first link (in flow-ord × path
//     order) achieving the minimum share, i.e. the lexicographic
//     minimum of (share, link index). The indexed bottleneck heap uses
//     exactly that key and re-keys every link a freeze batch touches
//     before the next pop. Selection order *across* components never
//     affects any computed value.
//
//  3. Accounting is anchored. A flow's remaining bytes and a link's
//     carried/busy integrals are closed-form between rate changes; the
//     anchors move only when a rate (or a link's rate sum) changes
//     bitwise. The settle and the oracle therefore move anchors at
//     identical instants with identical values, making lazy and eager
//     evaluation indistinguishable.
package fabric

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// settle recomputes max-min rates for the scope perturbed by the
// arrivals/completions batched at the current instant, re-anchors what
// changed, reschedules the completion event, and fires the completion
// callbacks of flows retired at this instant.
func (n *Network) settle() {
	now := n.eng.Now()
	finished, trig := n.pendingDone, n.trigLinks
	n.pendingDone, n.trigLinks = n.doneSpare, n.trigSpare

	var scopeF []*Flow
	var scopeL []*Link
	var gen uint64 // stamps the links whose rate sums can change; 0 for the oracle
	if n.oracle {
		scopeF, scopeL = n.scopeOracle(trig)
		n.resetFill(scopeF, scopeL)
		fillOracle(scopeF)
	} else {
		var pathSum int
		if n.wholeValid {
			scopeF, scopeL, pathSum = n.scopeResume(finished)
		} else {
			scopeF, scopeL, pathSum = n.scopeComponent(trig)
		}
		if n.nDead > 64 && n.nDead > n.nActive {
			n.compact()
		}
		n.fillComponent(scopeF, scopeL, pathSum)
		n.compGen++
		gen = n.compGen
		for _, l := range trig {
			l.compGen = gen
		}
	}

	// Re-anchor exactly the flows whose rate changed bitwise. Using the
	// old goodput for the catch-up keeps the arithmetic identical to an
	// eager per-event integration at the same instants.
	for _, f := range scopeF {
		if f.newRate == f.rate {
			continue
		}
		rem := f.anchorRem - float64(f.goodput*(now-f.anchorAt))
		if rem < 0 {
			rem = 0
		}
		f.anchorRem = rem
		f.anchorAt = now
		f.rate = f.newRate
		f.goodput = f.newRate * f.eff
		if f.goodput <= 0 {
			// Progressive filling always grants a positive share on
			// positive-capacity links; reaching here means the fill
			// terminated early and the flow would never complete.
			panic(fmt.Sprintf("fabric: flow %q settled with zero goodput", f.name))
		}
		f.finishAt = now + rem/f.goodput
		if f.heapIdx < 0 {
			n.pushCompletion(f)
		} else {
			n.fixCompletion(f)
		}
		if gen != 0 {
			for _, l := range f.path {
				l.compGen = gen
			}
		}
	}

	// Recompute the rate sums of scope links; sync the carried/busy
	// integrals only where a sum changed bitwise, so the integration
	// points coincide under the settle and the oracle. The settle skips
	// the links gen does not stamp (invariant 1); the oracle sums all.
	for _, l := range scopeL {
		if gen != 0 && l.compGen != gen {
			continue
		}
		var sr, sg float64
		for _, ref := range l.flows {
			sr += ref.f.rate
			sg += ref.f.goodput
		}
		if sr != l.sumRate || sg != l.sumGoodput {
			dt := now - l.lastSync
			l.carried += float64(l.sumGoodput * dt)
			l.busyInt += float64(l.sumRate * dt)
			l.lastSync = now
			l.sumRate = sr
			l.sumGoodput = sg
		}
	}

	// After a scope of every active flow (or a resume, which refilled
	// the rest of it) the log holds the fill of the whole active set, so
	// the next settle may resume if only retirements come before it.
	n.wholeValid = n.wholeValid || len(scopeF) == n.nActive
	n.scopeFlows = scopeF[:0]
	n.scopeLinks = scopeL[:0]

	n.rescheduleCompletion()

	for _, f := range finished {
		n.finish(f)
	}
	clear(finished)
	clear(trig)
	n.doneSpare, n.trigSpare = finished[:0], trig[:0]
}

// scopeOracle is the reference scope: every active flow and every link
// they (or the retiring flows) cross.
func (n *Network) scopeOracle(trig []*Link) ([]*Flow, []*Link) {
	n.compGen++
	gen := n.compGen
	scopeF := n.scopeFlows[:0]
	scopeL := n.scopeLinks[:0]
	n.compact()
	for _, f := range n.active {
		f.compGen = gen
		scopeF = append(scopeF, f)
		for _, l := range f.path {
			if l.compGen != gen {
				l.compGen = gen
				scopeL = append(scopeL, l)
			}
		}
	}
	for _, l := range trig {
		if l.compGen != gen {
			l.compGen = gen
			scopeL = append(scopeL, l)
		}
	}
	return scopeF, scopeL
}

// scopeComponent closes the connected component of the trigger links:
// flows are the hyperedges joining links, so a BFS over link→flows→links
// closes the scope. The returned flows are in activation (ord) order.
//
// The walk also resets the fill state (what resetFill does for the
// oracle's scope): a component holds every flow crossing any of its
// links, so a link's unfrozen count is its whole flow list the moment
// it is discovered. pathSum is the scope's Σ path lengths, the same
// count summed over links. The fill log starts afresh.
func (n *Network) scopeComponent(trig []*Link) (scopeF []*Flow, scopeL []*Link, pathSum int) {
	clear(n.flog)
	n.flog = n.flog[:0]
	n.fpre = n.fpre[:0]
	n.compGen++
	gen := n.compGen
	scopeF = n.scopeFlows[:0]
	scopeL = n.scopeLinks[:0]
	queue := n.bfsQueue[:0]
	for _, l := range trig {
		if l.compGen != gen {
			l.compGen = gen
			l.startFill(len(l.flows))
			pathSum += len(l.flows)
			scopeL = append(scopeL, l)
			queue = append(queue, l)
		}
	}
	for len(queue) > 0 {
		l := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ref := range l.flows {
			f := ref.f
			if f.compGen == gen {
				continue
			}
			f.compGen = gen
			f.frozen = false
			f.newRate = 0
			scopeF = append(scopeF, f)
			for _, pl := range f.path {
				if pl.compGen != gen {
					pl.compGen = gen
					pl.startFill(len(pl.flows))
					pathSum += len(pl.flows)
					scopeL = append(scopeL, pl)
					queue = append(queue, pl)
				}
			}
		}
	}
	n.bfsQueue = queue[:0]
	scopeF = n.orderScope(scopeF, gen)
	n.scopeFlows = scopeF // keep the (possibly regrown) backing array
	return scopeF, scopeL, pathSum
}

// freeze is one fill-log entry: f froze in the round whose first entry
// is at log index round, and fpre[pre+i] is the residual f.path[i] had
// just before.
type freeze struct {
	f     *Flow
	round int
	pre   int
}

// scopeResume is the scope of a settle that follows a whole-set settle
// with only retirements in between (invariant 1). The log holds the fill
// of every flow active at that settle, the finished ones included, each
// at its logIdx. The fill restarts at the earliest round that froze a
// finished flow; the scope is the still-active flows of that round and
// the later ones, over every link their entries cross (the retired
// flows' too, so it holds this instant's triggers). A link takes the
// residual logged at its first entry there: no entry between the start
// and that one crosses it, so it is the residual a fresh fill gives it
// at the start. Its unfrozen count is counted from the scope, never
// logged: a retirement whose resume started later leaves a logged count
// before that start stale. Like scopeComponent, it resets the fill state
// and sums the scope's path lengths, and it cuts both logs at the start,
// clearing the tail so it keeps no retired flow.
func (n *Network) scopeResume(finished []*Flow) (scopeF []*Flow, scopeL []*Link, pathSum int) {
	n.resumes++
	log := n.flog
	start := len(log)
	for _, f := range finished {
		start = min(start, log[f.logIdx].round)
	}
	n.compGen++
	gen := n.compGen
	scopeF = n.scopeFlows[:0]
	scopeL = n.scopeLinks[:0]
	for _, e := range log[start:] {
		f := e.f
		for i, pl := range f.path {
			if pl.compGen != gen {
				pl.compGen = gen
				pl.residual = n.fpre[e.pre+i]
				pl.nActive = 0
				scopeL = append(scopeL, pl)
			}
			if f.active {
				pl.nActive++
			}
		}
		if f.active {
			f.frozen = false
			f.newRate = 0
			pathSum += len(f.path)
			scopeF = append(scopeF, f)
		}
	}
	if start < len(log) {
		n.fpre = n.fpre[:log[start].pre]
	}
	clear(log[start:])
	n.flog = log[:start]
	return scopeF, scopeL, pathSum
}

// orderScope puts a discovered scope-flow set into activation order.
// The naive scan visits flows in activation order; restricting it to a
// scope means iterating the scope's flows in that same (sub)order. When
// the scope covers most of the active population, re-collecting from
// the ord-ordered active list is cheaper than sorting the discovery
// order. (slices.SortFunc, unlike sort.Slice, boxes nothing: the
// comparison stays on the stack and the steady-state settle path stays
// allocation-free.)
func (n *Network) orderScope(scopeF []*Flow, gen uint64) []*Flow {
	if 4*len(scopeF) >= n.nActive+n.nDead {
		scopeF = scopeF[:0]
		for _, f := range n.active {
			if f.compGen == gen {
				scopeF = append(scopeF, f)
			}
		}
	} else {
		slices.SortFunc(scopeF, func(a, b *Flow) int {
			if a.ord < b.ord {
				return -1
			}
			if a.ord > b.ord {
				return 1
			}
			return 0
		})
	}
	return scopeF
}

// resetFill resets link fill state for the oracle's waterfill, counting
// each link's unfrozen flows from scopeF.
func (n *Network) resetFill(scopeF []*Flow, scopeL []*Link) {
	for _, l := range scopeL {
		l.startFill(0)
	}
	for _, f := range scopeF {
		f.frozen = false
		f.newRate = 0
		for _, l := range f.path {
			l.nActive++
		}
	}
}

// startFill gives l full capacity and nActive unfrozen flows for a new
// waterfill.
func (l *Link) startFill(nActive int) {
	l.nActive = nActive
	l.residual = l.capacity
}

// scanHeapC weighs the scan's cost bound against the heap's in
// scanFits. It was fixed once on the two fabric probe shapes: the
// 32-machine dense All-to-All (72 links, 2 976 path entries at
// admission) must scan and the 256-machine sparse one fused by 64
// trunks (576 links, 6 144 path entries) must take the heap, which
// brackets c in [0.25, 5.4); TestFillSelector pins both sides. Within
// the bracket, c = 1 kept the dense shape as fast as a forced scan and
// the sparse one as fast as a forced heap.
const scanHeapC = 1

// scanFits reports whether fillScan is the cheaper exact fill for a
// scope of the given size. A scan round costs one pass over the links
// and a fill has at most one round per link, so links² bounds it; the
// heap re-keys each path entry of a frozen flow once, at log₂(links)
// per re-key (bit length as the integer log).
func scanFits(links, pathSum int) bool {
	return links*links <= scanHeapC*pathSum*bits.Len(uint(links))
}

// fillComponent runs the exact fill whose cost bound is smaller for the
// component: fillScan for dense scopes (flows crowd few links, the
// All-to-All shape), the indexed heap for wide sparse ones. Both compute
// bit-identical rates.
func (n *Network) fillComponent(scopeF []*Flow, scopeL []*Link, pathSum int) {
	if scanFits(len(scopeL), pathSum) {
		n.fillScan(scopeF, scopeL)
	} else {
		n.fillHeap(scopeF, scopeL)
	}
}

// fillOracle is the original naive progressive filling: rescan every
// flow's path for the minimum fair share, freeze the crossing flows,
// repeat. Kept verbatim as the reference oracle.
func fillOracle(scopeF []*Flow) {
	unfrozen := len(scopeF)
	for unfrozen > 0 {
		share := math.Inf(1)
		var bottleneck *Link
		for _, f := range scopeF {
			for _, l := range f.path {
				if l.nActive == 0 {
					continue
				}
				s := l.residual / float64(l.nActive)
				if s < share || (s == share && (bottleneck == nil || l.index < bottleneck.index)) {
					share = s
					bottleneck = l
				}
			}
		}
		if bottleneck == nil {
			break
		}
		for _, f := range scopeF {
			if f.frozen {
				continue
			}
			crosses := false
			for _, l := range f.path {
				if l == bottleneck {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			f.frozen = true
			unfrozen--
			f.newRate = share
			for _, l := range f.path {
				l.residual -= share
				if l.residual < 0 {
					l.residual = 0
				}
				l.nActive--
			}
		}
	}
}

// fillScan is progressive filling over the component only: each round
// picks the lexicographic (share, link index) minimum across the scope
// links — the same tie-break the oracle's rescan implements — and
// freezes the flows crossing it. Freezing via the link's flow list
// instead of a scopeF rescan is value-identical: every frozen flow
// gets the same share, and the residual decrements it applies commute
// bitwise (same subtrahend, integer nActive).
func (n *Network) fillScan(scopeF []*Flow, scopeL []*Link) {
	unfrozen := len(scopeF)
	for unfrozen > 0 {
		share := math.Inf(1)
		var bottleneck *Link
		for _, l := range scopeL {
			if l.nActive == 0 {
				continue
			}
			s := l.residual / float64(l.nActive)
			if s < share || (s == share && (bottleneck == nil || l.index < bottleneck.index)) {
				share, bottleneck = s, l
			}
		}
		if bottleneck == nil {
			break
		}
		unfrozen -= n.freezeRound(bottleneck, share)
	}
}

// freezeRound is one round of either fill: it freezes every unfrozen
// flow crossing bottleneck at share and returns how many it froze. Each
// freeze is appended to the fill log, and the residual each of its path
// links had just before it to fpre. A round that froze no flow would
// leave every key as it was and repeat forever, so it panics instead.
func (n *Network) freezeRound(bottleneck *Link, share float64) int {
	log, pre := n.flog, n.fpre
	round := len(log)
	for _, ref := range bottleneck.flows {
		f := ref.f
		if f.frozen {
			continue
		}
		f.frozen = true
		f.newRate = share
		f.logIdx = len(log)
		log = append(log, freeze{f, round, len(pre)})
		for _, pl := range f.path {
			pre = append(pre, pl.residual)
			pl.residual -= share
			if pl.residual < 0 {
				pl.residual = 0
			}
			pl.nActive--
			pl.allocVer++
		}
	}
	if len(log) == round {
		panic(fmt.Sprintf("fabric: fill round at link %q froze no flow", bottleneck.name))
	}
	n.flog, n.fpre = log, pre
	return len(log) - round
}

// fillHeap is fillScan with the bottleneck taken off the indexed
// (share, index) link heap instead of a rescan. Every link a freeze
// batch touches is re-keyed before the next pop, so the top is the
// exact link the scan would pick and the freezes are the same float
// operations. Each path entry of a flow the round froze (its log
// entries) costs one O(log links) re-key, and each link leaves the heap
// once its nActive reaches zero.
func (n *Network) fillHeap(scopeF []*Flow, scopeL []*Link) {
	n.hheapInit(scopeL)
	unfrozen := len(scopeF)
	for unfrozen > 0 && len(n.hheap) > 0 {
		bottleneck := n.hheap[0]
		round := len(n.flog)
		unfrozen -= n.freezeRound(bottleneck, bottleneck.hshare)
		for _, e := range n.flog[round:] {
			for _, pl := range e.f.path {
				if pl.pushVer != pl.allocVer {
					pl.pushVer = pl.allocVer
					n.hheapFix(pl)
				}
			}
		}
	}
}

// rescheduleCompletion keeps exactly one engine event pending, at the
// completion heap's minimum predicted finish time.
func (n *Network) rescheduleCompletion() {
	if len(n.fheap) == 0 {
		n.eng.Cancel(n.nextEv)
		if n.nActive > 0 {
			// Active flows with zero rate can only happen if filling
			// terminated without freezing everything, which progressive
			// filling never does. Guard against silent deadlock anyway.
			panic("fabric: active flows but no completion schedulable")
		}
		return
	}
	if at := n.fheap[0].finishAt; !n.nextEv.Pending() || n.nextEv.At() != at {
		n.eng.Schedule(n.nextEv, at)
	}
}

// --- completion min-heap, keyed (finishAt, ord) ---------------------------

func flowLess(a, b *Flow) bool {
	if a.finishAt != b.finishAt {
		return a.finishAt < b.finishAt
	}
	return a.ord < b.ord
}

func (n *Network) pushCompletion(f *Flow) {
	f.heapIdx = len(n.fheap)
	n.fheap = append(n.fheap, f)
	n.siftUp(f.heapIdx)
}

func (n *Network) fixCompletion(f *Flow) {
	i := f.heapIdx
	if !n.siftDown(i) {
		n.siftUp(i)
	}
}

func (n *Network) popCompletion() *Flow {
	f := n.fheap[0]
	last := len(n.fheap) - 1
	n.fheap[0] = n.fheap[last]
	n.fheap[0].heapIdx = 0
	n.fheap[last] = nil
	n.fheap = n.fheap[:last]
	if last > 0 {
		n.siftDown(0)
	}
	f.heapIdx = -1
	return f
}

func (n *Network) siftUp(i int) {
	h := n.fheap
	for i > 0 {
		parent := (i - 1) / 2
		if !flowLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].heapIdx = i
		h[parent].heapIdx = parent
		i = parent
	}
}

// siftDown restores heap order below i; reports whether i moved.
func (n *Network) siftDown(i int) bool {
	h := n.fheap
	start := i
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			break
		}
		if r := kid + 1; r < len(h) && flowLess(h[r], h[kid]) {
			kid = r
		}
		if !flowLess(h[kid], h[i]) {
			break
		}
		h[i], h[kid] = h[kid], h[i]
		h[i].heapIdx = i
		h[kid].heapIdx = kid
		i = kid
	}
	return i > start
}

// --- indexed bottleneck heap, keyed (share, index) ------------------------
//
// fillHeap's bottleneck heap. Every scope link occupies at most one slot
// (Link.hpos) with its key cached in Link.hshare; a freeze batch re-keys
// the links it touched in place, so a pop never meets a stale entry.
// The order — (residual/nActive, index) — matches the naive rescan
// bit-for-bit.

func hlinkLess(a, b *Link) bool {
	if a.hshare != b.hshare {
		return a.hshare < b.hshare
	}
	return a.index < b.index
}

// hheapInit builds the heap over the scope links that still carry
// unfrozen flows. O(len(scopeL)).
func (n *Network) hheapInit(scopeL []*Link) {
	hh := n.hheap[:0]
	for _, l := range scopeL {
		l.pushVer = l.allocVer
		if l.nActive > 0 {
			l.hshare = l.residual / float64(l.nActive)
			l.hpos = int32(len(hh))
			hh = append(hh, l)
		} else {
			l.hpos = -1
		}
	}
	for i := len(hh)/2 - 1; i >= 0; i-- {
		hheapDown(hh, i)
	}
	n.hheap = hh
}

func hheapDown(hh []*Link, i int) {
	for {
		kid := 2*i + 1
		if kid >= len(hh) {
			break
		}
		if r := kid + 1; r < len(hh) && hlinkLess(hh[r], hh[kid]) {
			kid = r
		}
		if !hlinkLess(hh[kid], hh[i]) {
			break
		}
		hh[i], hh[kid] = hh[kid], hh[i]
		hh[i].hpos = int32(i)
		hh[kid].hpos = int32(kid)
		i = kid
	}
}

func hheapUp(hh []*Link, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !hlinkLess(hh[i], hh[parent]) {
			break
		}
		hh[i], hh[parent] = hh[parent], hh[i]
		hh[i].hpos = int32(i)
		hh[parent].hpos = int32(parent)
		i = parent
	}
}

// hheapFix re-keys l after a freeze batch changed its residual or
// nActive, removing it once no unfrozen flows remain. Links never
// re-enter within a fill: nActive only decreases. No-op for links not
// currently in the heap.
func (n *Network) hheapFix(l *Link) {
	i := int(l.hpos)
	if i < 0 {
		return
	}
	hh := n.hheap
	if l.nActive == 0 {
		last := len(hh) - 1
		l.hpos = -1
		if i != last {
			hh[i] = hh[last]
			hh[i].hpos = int32(i)
		}
		hh[last] = nil
		n.hheap = hh[:last]
		if i != last {
			hheapDown(n.hheap, i)
			hheapUp(n.hheap, i)
		}
		return
	}
	l.hshare = l.residual / float64(l.nActive)
	hheapDown(hh, i)
	hheapUp(hh, i)
}

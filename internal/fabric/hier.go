// Hierarchical allocation (ModeHierarchical). The incremental settle
// restricts the fill to the connected component of the perturbed links;
// once shared trunk links fuse the cluster into one component, that
// restriction is vacuous and every settle re-waterfills nearly the whole
// active flow population — the superlinear wall the 1024-machine scale
// benches hit. This file replaces the component closure with a two-level
// decomposition:
//
//   - The link set is partitioned into edge domains and a trunk core.
//     Flows that stay off the trunk (MarkTrunk) union their links into
//     one edge domain; flows that cross a trunk merge nothing, so the
//     trunk is the only coupling between domains. The partition is a
//     monotone union-find: domains never split when flows complete — a
//     stale merge only widens a future settle's scope, never changes a
//     computed value.
//
//   - Every link carries a committed bottleneck level: the share at
//     which it last froze flows (or, if it was never selected as a
//     bottleneck, a bound on the level it would have frozen at), +Inf
//     while it constrains nobody. A settle waterfills only the domains
//     of the trigger links; a boundary flow — one that also crosses
//     out-of-scope links — participates as a "macro-flow": its demand
//     is capped at the minimum cached level among its external links,
//     the one-float aggregate of everything outside the scope.
//
//   - Every trunk link also carries a freeze profile: the sorted
//     multiset of its crossing flows' committed rates (the "macro-flow"
//     aggregate), maintained exactly at commit time. An in-scope trunk
//     does not enumerate its mostly-unperturbed population — each
//     committed crossing flow replays from the profile as a phantom cap
//     event at its committed rate, carrying the (level, index) key of
//     the external link that would freeze it (its source). A phantom
//     whose committed rate sits at no external selected level is a
//     sentinel: it loses every event-order tie, and it firing at all
//     proves the replay invalid and fails the attempt.
//
//   - The capped fill merges two event streams in nondecreasing share
//     order: live bottleneck rounds over the scope links (the exact
//     fillScan arithmetic, off an indexed (share, index) link heap that
//     is eagerly re-keyed after every freeze batch — stale keys are NOT
//     lower bounds, because a batched subtraction can dip a share by an
//     ulp) and external freezes of boundary flows and phantoms at their
//     caps. Cap events are laid out by counting rather than comparison
//     sort: entries bucket under their source link, sources sort by
//     (level, index) through packed keys, and a bucket — one bitwise
//     value — finishes with a near-linear ord insertion pass. After the
//     fill, every boundary flow or phantom whose computed rate differs
//     bitwise from its pre-settle rate disproves the assumption that
//     the outside is unperturbed: its external links' domains join the
//     scope and the fill restarts (converged domain sets are memoised
//     per trigger set, so recurring settles skip the widening walk).
//     The iteration terminates at the exact max-min fixpoint — a fill
//     in which every boundary value is bitwise unchanged — or widens to
//     the full component, which is exactly the incremental mode's
//     settle.
//
// Bit-identity argument (the §6 proof sketch in DESIGN.md): at a
// converged attempt, (1) all external links' level trajectories are
// untouched — each of their crossing flows either kept its rate
// bitwise (validated boundary flows and phantoms) or lies entirely
// outside, where rates are unchanged by induction on previous settles;
// (2) therefore the caps equal the shares the global fill would have
// frozen those flows at, and replaying them in (share, index, ord)
// order interleaves the scope's live rounds exactly as the global
// fill would, because progressive filling's round shares are
// nondecreasing; (3) equal-share events commute bitwise (identical
// subtrahends, integer nActive decrements), so replay order within a
// tie is free — except a tie between a live round and an external
// freeze, where the global tie-break needs the external link's scan
// rank: a sourced cap carries that rank and compares directly, while a
// sentinel (no source) must lose, and an in-layer ambiguity about an
// external link's pop population replays through the journaled
// (popRes, popN) drift snapshots, widening on any bitwise mismatch.
// A float-nonmonotone event order (possible only within an ulp, where
// real-arithmetic monotonicity rounds away) aborts to the
// full-component fill rather than guess. differential_test.go and
// hier_test.go enforce the result on seeded workloads engineered to
// hit bitwise ties, against both the incremental mode and the oracle.
package fabric

import (
	"math"
	"slices"
)

// maxHierAttempts bounds the fixpoint iteration's scope expansions per
// settle before falling back to the full component. Expansion strictly
// grows the domain set, so this is a guard against pathological churn,
// not a correctness bound.
const maxHierAttempts = 32

// ensureHier sizes the union-find and domain-list arrays to the current
// link count. Links created after the mode was selected join lazily as
// singleton domains.
func (n *Network) ensureHier() {
	for i := len(n.dsuParent); i < len(n.links); i++ {
		n.dsuParent = append(n.dsuParent, int32(i))
		n.dsuSize = append(n.dsuSize, 1)
		n.domNext = append(n.domNext, -1)
		n.domTail = append(n.domTail, int32(i))
		n.domMark = append(n.domMark, 0)
	}
}

// find returns the domain root of link index i, with path halving. A
// root is also the head of its domain's member list.
func (n *Network) find(i int32) int32 {
	for n.dsuParent[i] != i {
		n.dsuParent[i] = n.dsuParent[n.dsuParent[i]]
		i = n.dsuParent[i]
	}
	return i
}

// unionDomains merges the edge domains of an activating flow's path.
// A flow that crosses a trunk link merges nothing: its edge domains
// stay separate and couple only through the trunk's cached level.
func (n *Network) unionDomains(path []*Link) {
	if len(path) < 2 {
		return
	}
	for _, l := range path {
		if l.trunk {
			return
		}
	}
	r0 := n.find(int32(path[0].index))
	for _, l := range path[1:] {
		r := n.find(int32(l.index))
		if r == r0 {
			continue
		}
		if n.dsuSize[r0] < n.dsuSize[r] {
			r0, r = r, r0
		}
		n.dsuParent[r] = r0
		n.dsuSize[r0] += n.dsuSize[r]
		n.domNext[n.domTail[r0]] = r
		n.domTail[r0] = n.domTail[r]
	}
}

// addDomain appends l's domain root to doms unless it is already in
// this settle's domain set (marked under domMarkGen).
func (n *Network) addDomain(doms []int32, l *Link) []int32 {
	r := n.find(int32(l.index))
	if n.domMark[r] == n.domMarkGen {
		return doms
	}
	n.domMark[r] = n.domMarkGen
	return append(doms, r)
}

// settleHier computes the settle's scope and rates under the
// hierarchical decomposition and returns them for the shared re-anchor
// tail. It iterates scope expansion to the exact max-min fixpoint.
func (n *Network) settleHier(trig []*Link) ([]*Flow, []*Link) {
	n.ensureHier()
	if n.nDead > 64 && n.nDead > n.nActive {
		n.compact()
	}
	n.domMarkGen++
	doms := n.domList[:0]
	for _, l := range trig {
		doms = n.addDomain(doms, l)
	}
	// Scope memo: settles with the same trigger set (for a completion,
	// the finished flow's path — a pattern that recurs every round of a
	// collective) tend to converge on the same domain set, so seed this
	// settle with the set the last same-trigger settle converged on and
	// skip the widening walk that would rediscover it. Any seed is
	// sound — convergence is validated the same way regardless — so a
	// stale or colliding seed costs only scope size, never exactness.
	memoKey := uint64(1469598103934665603)
	for _, l := range trig {
		memoKey = (memoKey ^ uint64(l.index)) * 1099511628211
	}
	if n.hierMemoMap == nil {
		n.hierMemoMap = make(map[uint64][]int32)
	}
	for _, li := range n.hierMemoMap[memoKey] {
		doms = n.addDomain(doms, n.links[li])
	}
	for attempt := 0; attempt < maxHierAttempts; attempt++ {
		n.compGen++
		gen := n.compGen
		scopeF, scopeL := n.scopeDomains(doms, gen)
		n.resetFill(scopeF, scopeL)
		converged, fallback := n.hierFill(scopeF, scopeL, gen)
		if converged {
			n.hierMut = n.hierMut[:0]
			n.commitLevels(scopeL)
			n.hierMemoMap[memoKey] = append(n.hierMemoMap[memoKey][:0], doms...)
			n.domList = doms[:0]
			return scopeF, scopeL
		}
		// The attempt is discarded: restore the external pop-state
		// snapshots its drift checks advanced, in reverse order so
		// repeated mutations of one link unwind exactly.
		for i := len(n.hierMut) - 1; i >= 0; i-- {
			m := n.hierMut[i]
			m.l.popRes = m.res
			m.l.popN = m.n
		}
		n.hierMut = n.hierMut[:0]
		if fallback {
			break
		}
		n.hierRestarts++
		prev := len(doms)
		for _, l := range n.growLinks {
			doms = n.addDomain(doms, l)
		}
		for _, l := range n.growTrunks {
			doms = n.addDomain(doms, l)
		}
		if len(doms) == prev {
			// Every offending link was already in scope — nothing left
			// to widen; resolve at the component.
			break
		}
	}
	// Fallback: the full connected component — the incremental mode's
	// exact settle — run through the level-recording fill so the
	// bottleneck cache stays current. With the whole component live
	// there are no boundary flows, no caps and no validation, and the
	// fill is fillScan arithmetic verbatim.
	n.hierFallbacks++
	n.domList = doms[:0]
	scopeF, scopeL, _ := n.scopeComponent(trig)
	for _, f := range scopeF {
		f.hierBoundary = false
	}
	n.hierFill(scopeF, scopeL, n.compGen)
	n.commitLevels(scopeL)
	return scopeF, scopeL
}

// scopeDomains collects the links of the given domains, the flows
// crossing them (in activation order, the rank-assignment order the
// naive scan uses), and classifies each flow's boundary status and
// external demand cap.
func (n *Network) scopeDomains(doms []int32, gen uint64) ([]*Flow, []*Link) {
	scopeF := n.scopeFlows[:0]
	scopeL := n.scopeLinks[:0]
	for _, r := range doms {
		for li := r; li >= 0; li = n.domNext[li] {
			l := n.links[li]
			l.compGen = gen
			scopeL = append(scopeL, l)
		}
	}
	for _, l := range scopeL {
		if l.trunk {
			// Profiled link: its committed crossing flows replay from
			// the freeze profile as phantom cap events (see hierFill)
			// instead of joining the live scope. Two exceptions fill
			// live: flows that have never settled (no profile entry
			// yet), and flows whose whole path is in scope — a phantom's
			// committed rate is anchored by its out-of-scope links, and
			// with none left the rate is simply this fill's to compute.
			for _, ref := range l.flows {
				f := ref.f
				if f.compGen == gen {
					continue
				}
				if f.profOn {
					ext := false
					for _, pl := range f.path {
						if pl.compGen != gen {
							ext = true
							break
						}
					}
					if ext {
						continue
					}
				}
				f.compGen = gen
				scopeF = append(scopeF, f)
			}
			continue
		}
		for _, ref := range l.flows {
			f := ref.f
			if f.compGen != gen {
				f.compGen = gen
				scopeF = append(scopeF, f)
			}
		}
	}
	scopeF = n.orderScope(scopeF, gen)
	for _, f := range scopeF {
		f.hierBoundary = false
		f.hierCap = math.Inf(1)
		f.hierCapIdx = int(^uint(0) >> 1)
		f.hierCapL = nil
		for _, pl := range f.path {
			if pl.compGen != gen {
				f.hierBoundary = true
				// Only links that were actually selected as bottlenecks
				// exert external pressure — every flow's freezer is by
				// definition a selected link, so a never-selected
				// external link cannot be the one that freezes f. The
				// (level, index) argmin is exactly the global fill's
				// key for f's first external freeze opportunity.
				if pl.levelSel && (pl.level < f.hierCap || (pl.level == f.hierCap && pl.index < f.hierCapIdx)) {
					f.hierCap = pl.level
					f.hierCapIdx = pl.index
					f.hierCapL = pl
				}
			}
		}
	}
	n.scopeFlows = scopeF
	return scopeF, scopeL
}

// commitLevels publishes the levels computed by a converged fill as the
// links' cached bottleneck levels.
func (n *Network) commitLevels(scopeL []*Link) {
	for _, l := range scopeL {
		l.level = l.newLevel
		l.levelSel = l.hierSel
		l.popRes = l.newPopRes
		l.popN = l.newPopN
	}
}

// hierFill is the capped progressive fill: live bottleneck rounds over
// the scope links merged, in nondecreasing share order, with external
// freezes of boundary flows at their cached caps. Live rounds come off
// an indexed (share, index) link heap — each in-scope link sits in one
// slot and is re-keyed in place when a freeze batch touches it, so the
// event loop never wades through superseded entries; the valid minimum
// is exactly the link a naive rescan would pick. Caps are static for
// the whole attempt, so they are sorted once and consumed by a cursor
// that skips flows already frozen live. Returns converged when every
// boundary flow's rate is bitwise unchanged (the fixpoint witness),
// otherwise leaves the links to widen by in n.growLinks; fallback is
// set when the merge order cannot be trusted and the settle must
// resolve at the full component.
func (n *Network) hierFill(scopeF []*Flow, scopeL []*Link, gen uint64) (converged, fallback bool) {
	// The cap event stream must replay the global fill's (value, index,
	// ord) order, but almost every entry's (value, index) is a committed
	// external link's (level, index) — its SOURCE — so instead of a
	// comparison sort the stream is laid out by counting: tag each
	// entry with its source, sort the handful of distinct sources by
	// (level, index), and scatter entries into per-source buckets. A
	// bucket shares one bitwise value, so within it only ord matters,
	// and entries arrive as a few ord-sorted runs (boundary flows in
	// activation order, then each trunk profile's same-value span) that
	// a near-linear insertion pass finishes. Sentinel entries (no
	// source at their value, idx -1) are collected apart and merged by
	// value at consumption; their order among themselves is
	// unobservable — they lose every tie and fire only to fail.
	raw := n.capHeap[:0]
	sent := n.capSent[:0]
	srcs := n.capSrcs[:0]
	for _, f := range scopeF {
		if f.hierBoundary && !math.IsInf(f.hierCap, 1) {
			e := f.hierCapL
			if e.srcGen != gen {
				e.srcGen = gen
				e.srcCnt = 0
				srcs = append(srcs, e)
			}
			e.srcCnt++
			raw = append(raw, capEntry{cap: f.hierCap, idx: f.hierCapIdx, f: f})
		}
	}
	// Phantom build: every in-scope trunk contributes its out-of-scope
	// committed flows as cap events at their current rates, straight
	// from the freeze profile. A converged attempt proves those rates
	// are bitwise fixed-point values (each phantom freezes at exactly
	// its profile value), so skipping their enumeration loses nothing;
	// any phantom that a live round would re-price fails validation and
	// widens the scope like a boundary flow. The entry's source replays
	// the external freezer's (level, index) key when the profile value
	// sits exactly at an external selected level, so drift bookkeeping
	// calls match the enumerated fill's.
	nPhantom := 0
	for _, l := range scopeL {
		if !l.trunk {
			continue
		}
		for _, e := range l.prof {
			f := e.f
			if f.compGen == gen || f.phGen == gen {
				continue
			}
			f.phGen = gen
			f.frozen = false
			nPhantom++
			if e2 := phantomSrc(f, e.v, gen); e2 != nil {
				if e2.srcGen != gen {
					e2.srcGen = gen
					e2.srcCnt = 0
					srcs = append(srcs, e2)
				}
				e2.srcCnt++
				raw = append(raw, capEntry{cap: e.v, idx: e2.index, f: f})
			} else {
				sent = append(sent, capEntry{cap: e.v, idx: -1, f: f})
			}
			for _, pl := range f.path {
				if pl.compGen == gen {
					pl.nActive++
				}
			}
		}
	}
	// Sort the sources by (level, index) through packed value keys — a
	// positive float's bit pattern is order-preserving, and keeping the
	// keys contiguous spares the comparator a pointer chase per probe.
	keys := n.srcKeys[:0]
	for _, e := range srcs {
		keys = append(keys, srcKey{bits: math.Float64bits(e.level), idx: int32(e.index)})
	}
	slices.SortFunc(keys, func(a, b srcKey) int {
		if a.bits != b.bits {
			if a.bits < b.bits {
				return -1
			}
			return 1
		}
		return int(a.idx) - int(b.idx)
	})
	slices.SortFunc(sent, func(a, b capEntry) int {
		switch {
		case a.cap < b.cap:
			return -1
		case a.cap > b.cap:
			return 1
		}
		return 0
	})
	base := int32(0)
	for _, k := range keys {
		e := n.links[k.idx]
		e.srcSlot = base
		base += e.srcCnt
	}
	caps := n.capArr
	if cap(caps) < len(raw) {
		caps = make([]capEntry, len(raw), len(raw)*2)
	} else {
		caps = caps[:len(raw)]
	}
	for _, e := range raw {
		s := n.links[e.idx]
		caps[s.srcSlot] = e
		s.srcSlot++
	}
	for _, e := range srcs {
		ordSort(caps[e.srcSlot-e.srcCnt : e.srcSlot])
	}
	ci, zi := 0, 0
	n.hheapInit(scopeL)
	grow := n.growLinks[:0]
	growT := n.growTrunks[:0]
	converged = true
	sawCap := len(caps) > 0 || len(sent) > 0
	lastShare := math.Inf(-1)
	unfrozen := len(scopeF)
	for unfrozen > 0 || nPhantom > 0 {
		// Every freeze batch eagerly re-keys the links it touched, so the
		// heap always stores true (share, index) keys and the top is the
		// exact link a naive rescan would pick — including the ulp-scale
		// share DIPS a batch subtraction can produce, which a lazily
		// deferred re-key would bury behind the stale higher key and
		// reorder the fill. The dirty-top loop below is a safety net for
		// that invariant, not a fast path.
		share := math.Inf(1)
		var bottleneck *Link
		for len(n.hheap) > 0 {
			top := n.hheap[0]
			if top.pushVer != top.allocVer {
				top.pushVer = top.allocVer
				n.hheapFix(top)
				continue
			}
			share, bottleneck = top.hshare, top
			break
		}
		for ci < len(caps) && caps[ci].f.frozen {
			ci++
		}
		for zi < len(sent) && sent[zi].f.frozen {
			zi++
		}
		capShare := math.Inf(1)
		capIdx := 0
		fromSent := false
		if ci < len(caps) {
			capShare, capIdx = caps[ci].cap, caps[ci].idx
		}
		if zi < len(sent) && sent[zi].cap <= capShare {
			// A sentinel precedes every sourced cap at its value (idx -1
			// is below any real index), matching the sorted-stream order.
			capShare, capIdx, fromSent = sent[zi].cap, -1, true
		}
		if bottleneck == nil && ci >= len(caps) && zi >= len(sent) {
			break
		}
		// A bitwise share tie between a cap and a live round replays the
		// global fill's (share, index) order: the cap carries its external
		// source link's index, directly comparable with the live link's.
		// A phantom sentinel (idx -1: no external source at this value)
		// must lose every tie — if its rate is still right, an in-scope
		// pop at this value freezes it in its batch, exactly as the
		// enumerated fill would; the sentinel firing at all means nothing
		// froze the flow at its committed rate and the attempt fails.
		capFirst := capShare < share || (capShare == share && capIdx >= 0 && capIdx < bottleneck.index)
		ev := share
		if capFirst {
			ev = capShare
		}
		if sawCap && ev < lastShare {
			// The value-merge reproduces the global round order only
			// while event shares are nondecreasing. Real-arithmetic
			// progressive filling is monotone; a float can dip below a
			// previous round by an ulp, and then we refuse to guess.
			n.capHeap = raw[:0]
			n.capArr = caps[:0]
			n.capSent = sent[:0]
			n.capSrcs = srcs[:0]
			n.growLinks = grow[:0]
			n.growTrunks = growT[:0]
			return false, true
		}
		lastShare = ev
		if capFirst {
			var f *Flow
			if fromSent {
				f = sent[zi].f
				zi++
			} else {
				f = caps[ci].f
				ci++
			}
			phantom := f.compGen != gen
			if phantom && capIdx < 0 {
				// Sentinel fired: no selected external link sits at this
				// flow's committed rate, and no in-scope round froze it
				// live before its value came up — whatever constraint set
				// the rate has moved, so the profile replay is invalid
				// here. Settle the flow live next attempt.
				converged = false
				grow, growT = appendExternal(grow, growT, f, gen)
			}
			if capShare != f.rate {
				// The outside would freeze this flow at a different
				// share than it last did: the perturbation crosses the
				// boundary. Widen to its external links' domains.
				converged = false
				grow, growT = appendExternal(grow, growT, f, gen)
			}
			var driftOK bool
			grow, growT, driftOK = n.checkExternalDrift(f, capShare, capIdx, gen, grow, growT)
			if !driftOK {
				converged = false
			}
			f.frozen = true
			if phantom {
				nPhantom--
			} else {
				unfrozen--
			}
			f.newRate = capShare
			for _, pl := range f.path {
				if pl.compGen != gen {
					continue
				}
				if pl.residual/float64(pl.nActive) == capShare {
					// pl sits exactly at this event's value: it is a
					// member of the same equal-value layer, and in the
					// global fill it pops at this value too (its own
					// round, or a would-freeze had its flows not been
					// taken first). Record the level now — if its flows
					// are all frozen by other layer events it never pops,
					// and without the mark it would lose its cap validity
					// for future settles.
					pl.hierSel = true
					pl.newLevel = capShare
					pl.newPopRes = pl.residual
					pl.newPopN = int32(pl.nActive)
				}
				pl.residual -= capShare
				if pl.residual < 0 {
					pl.residual = 0
				}
				pl.nActive--
				pl.allocVer++
			}
			for _, pl := range f.path {
				if pl.compGen == gen && pl.pushVer != pl.allocVer {
					pl.pushVer = pl.allocVer
					n.hheapFix(pl)
				}
			}
			continue
		}
		bottleneck.hierSel = true
		bottleneck.newLevel = share
		bottleneck.newPopRes = bottleneck.residual
		bottleneck.newPopN = int32(bottleneck.nActive)
		for _, ref := range bottleneck.flows {
			f := ref.f
			if f.frozen {
				continue
			}
			// A phantom frozen by a live pop is the normal fate of a
			// trunk-constrained committed flow: the trunk's round freezes
			// its whole unfrozen population in one batch, phantoms
			// included, exactly as the enumerated fill would. Validation
			// is the same as a boundary flow's (every phantom has
			// out-of-scope links, by the scopeDomains whole-path rule).
			phantom := f.compGen != gen
			if f.hierBoundary || phantom {
				if share != f.rate {
					// This flow's rate changes, and it crosses the scope
					// boundary: its external links see a perturbed
					// contribution and must be settled live.
					converged = false
					grow, growT = appendExternal(grow, growT, f, gen)
				}
				var driftOK bool
				grow, growT, driftOK = n.checkExternalDrift(f, share, -1, gen, grow, growT)
				if !driftOK {
					converged = false
				}
			}
			f.frozen = true
			if phantom {
				nPhantom--
			} else {
				unfrozen--
			}
			f.newRate = share
			for _, pl := range f.path {
				if pl.compGen != gen {
					continue
				}
				if pl != bottleneck && pl.residual/float64(pl.nActive) == share {
					// Same layer-membership rule as the cap branch: a
					// link tied at the event value keeps a committed
					// would-freeze level even if this round takes its
					// last flows.
					pl.hierSel = true
					pl.newLevel = share
					pl.newPopRes = pl.residual
					pl.newPopN = int32(pl.nActive)
				}
				pl.residual -= share
				if pl.residual < 0 {
					pl.residual = 0
				}
				pl.nActive--
				pl.allocVer++
			}
		}
		for _, ref := range bottleneck.flows {
			for _, pl := range ref.f.path {
				if pl.compGen == gen && pl.pushVer != pl.allocVer {
					pl.pushVer = pl.allocVer
					n.hheapFix(pl)
				}
			}
		}
	}
	n.capHeap = raw[:0]
	n.capArr = caps[:0]
	n.capSent = sent[:0]
	n.capSrcs = srcs[:0]
	n.srcKeys = keys[:0]
	n.growLinks = grow
	n.growTrunks = growT
	return converged, false
}

// srcKey is a cap-source link's packed (level, index) stream position:
// the level's raw bits compare like the (nonnegative) float.
type srcKey struct {
	bits uint64
	idx  int32
}

// ordSort finishes a source bucket: entries share one bitwise value, so
// activation order is the only remaining key, and the bucket is a
// concatenation of a few already-ord-sorted runs — insertion sort is
// near-linear here.
func ordSort(b []capEntry) {
	for i := 1; i < len(b); i++ {
		e := b[i]
		j := i - 1
		for j >= 0 && b[j].f.ord > e.f.ord {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = e
	}
}

// linkMut journals an external link's cached pop state before an
// in-settle mutation, so a failed fill attempt can restore it exactly.
type linkMut struct {
	l   *Link
	res float64
	n   int32
}

// checkExternalDrift handles the one in-layer ambiguity a scoped fill
// cannot replay: boundary flow f is frozen at value v by some agent
// other than external link E while E's cached level ties v bitwise. In
// the global fill, f's freeze may now precede E's bottleneck round
// (last settle it may not have), shifting E's pop value to
// (popRes-v)/(popN-1). If that share is still exactly v the committed
// cap stays valid and the snapshot advances (journaled for undo on a
// failed attempt); if it drifts by even an ulp, every remaining cap
// sourced from E is stale and the scope must widen to E's domain.
// srcIdx is the cap's source link index (or -1 for a live freeze): the
// source replays E's own round, so it is exempt.
func (n *Network) checkExternalDrift(f *Flow, v float64, srcIdx int, gen uint64, grow, growT []*Link) ([]*Link, []*Link, bool) {
	ok := true
	for _, pl := range f.path {
		if pl.compGen == gen || pl.index == srcIdx || !pl.levelSel || pl.level != v {
			continue
		}
		if pl.popN <= 1 {
			// f was E's whole remaining pop set; no other flow's cap
			// depends on E's post-freeze share.
			continue
		}
		if (pl.popRes-v)/float64(pl.popN-1) != v {
			ok = false
			if pl.trunk {
				growT = append(growT, pl)
			} else {
				grow = append(grow, pl)
			}
			continue
		}
		n.hierMut = append(n.hierMut, linkMut{l: pl, res: pl.popRes, n: pl.popN})
		pl.popRes -= v
		pl.popN--
	}
	return grow, growT, ok
}

// appendExternal appends f's out-of-scope links to the widening lists:
// edge links to grow, trunks to growT (widened only when edge-side
// widening stalls — see settleHier).
func appendExternal(grow, growT []*Link, f *Flow, gen uint64) ([]*Link, []*Link) {
	for _, pl := range f.path {
		if pl.compGen != gen {
			if pl.trunk {
				growT = append(growT, pl)
			} else {
				grow = append(grow, pl)
			}
		}
	}
	return grow, growT
}

// HierStats reports the hierarchical allocator's fixpoint behaviour
// since the network was created: scope-expansion restarts and
// full-component fallbacks. Both are perf counters, not errors — every
// path computes bit-identical rates.
func (n *Network) HierStats() (restarts, fallbacks uint64) {
	return n.hierRestarts, n.hierFallbacks
}

// --- cap events: boundary caps and phantom replays, sorted (cap, idx, ord) --
//
// The cap set is fixed for a whole fill attempt, so it is materialized
// once, sorted, and consumed by a cursor instead of heap-popped.

type capEntry struct {
	cap float64
	idx int // index of the external link whose round this cap replays; -1 = sentinel
	f   *Flow
}

// phantomSrc computes the source link whose round a phantom's cap
// replays: the (level, index)-argmin over the flow's out-of-scope
// selected links — the same key scopeDomains assigns an enumerated
// boundary flow's cap. If that minimum level is not bitwise the flow's
// committed rate, no external round sits at the replay value and the
// cap is a sentinel (nil source, idx -1): it loses every tie against
// live rounds, and it firing at all fails the attempt.
func phantomSrc(f *Flow, v float64, gen uint64) *Link {
	var best *Link
	for _, pl := range f.path {
		if pl.compGen == gen || !pl.levelSel {
			continue
		}
		if best == nil || pl.level < best.level || (pl.level == best.level && pl.index < best.index) {
			best = pl
		}
	}
	if best != nil && best.level == v {
		return best
	}
	return nil
}

// --- trunk freeze profiles ------------------------------------------------
//
// A trunk link's profile is the sorted multiset of its crossing flows'
// committed rates — the aggregate a scoped fill replays instead of
// enumerating the flows. Maintained at commit time (profUpdate) and on
// completion, so it is exact between settles by construction.

type profEntry struct {
	v   float64
	ord uint64
	f   *Flow
}

func profCmp(a, b profEntry) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	switch {
	case a.ord < b.ord:
		return -1
	case a.ord > b.ord:
		return 1
	}
	return 0
}

func (l *Link) profIns(v float64, f *Flow) {
	i, _ := slices.BinarySearchFunc(l.prof, profEntry{v: v, ord: f.ord}, profCmp)
	l.prof = slices.Insert(l.prof, i, profEntry{v: v, ord: f.ord, f: f})
}

func (l *Link) profDel(v float64, ord uint64) {
	i, ok := slices.BinarySearchFunc(l.prof, profEntry{v: v, ord: ord}, profCmp)
	if !ok {
		panic("fabric: freeze-profile entry missing")
	}
	l.prof = slices.Delete(l.prof, i, i+1)
}

// profUpdate moves a flow whose committed rate just changed to its new
// position in every trunk profile on its path. Called from the settle
// commit tail, before f.rate is overwritten.
func (n *Network) profUpdate(f *Flow) {
	for _, l := range f.path {
		if !l.trunk {
			continue
		}
		if f.profOn {
			l.profDel(f.rate, f.ord)
		}
		l.profIns(f.newRate, f)
	}
	f.profOn = true
}

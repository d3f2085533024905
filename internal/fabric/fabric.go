// Package fabric implements a flow-level network simulator with max-min
// fair bandwidth sharing.
//
// The model is the classic fluid approximation used in flow-level
// simulators: a Flow carries a fixed number of bytes across an ordered
// path of directed Links; at every instant, the set of active flows is
// assigned rates by progressive filling (max-min fairness); rates only
// change when a flow starts or finishes, so the simulation advances in
// O(flow events) rather than O(packets).
//
// Max-min fairness is the right abstraction for this repository: both
// NVLink/NVSwitch traffic and RDMA traffic on a congestion-controlled
// fabric converge to approximately fair shares per flow, and every
// contention effect the Janus paper reports (egress hot-spots when all
// workers pull from the same GPU, PCIe-switch bottlenecks, NIC sharing
// between GPU pairs) is reproduced by fair sharing on the real link
// graph.
//
// Determinism: flows and links carry explicit activation ordinals and
// all iteration is over ord-ordered slices, never over maps, so a given
// sequence of StartFlow/StartFlows calls always produces the identical
// timeline. Every product that feeds a sum is written float64(a*b),
// which forbids the fused multiply-add arm64's compiler would otherwise
// emit, so the timeline is the same bits on every architecture
// (internal/tensor's TestNoFusedMultiplyAdd checks the assembly).
//
// Performance: rate recomputation ("settling") is batched — any number
// of arrivals and completions at one virtual instant trigger a single
// settle — and restricted to the connected component of links and flows
// actually perturbed, filled by a scan or an indexed bottleneck heap
// whichever the component's size makes cheaper. Flow and link byte
// accounting is anchor-based (see alloc.go), so nothing is integrated
// eagerly per event; completions are tracked in a min-heap of exact
// predicted finish times. The original naive full-rescan progressive
// filling stays in the package as the test oracle; the production
// settle produces bit-identical results (rates, completion times, link
// utilization), which differential_test.go enforces on seeded random
// workloads.
package fabric

import (
	"fmt"
	"math"

	"janus/internal/sim"
)

// Link is a directed, fixed-capacity network resource.
type Link struct {
	name     string
	capacity float64 // bytes per second
	latency  float64 // seconds, charged once per flow traversing the link
	class    string  // free-form label used for traffic accounting

	index int
	net   *Network

	// flows crossing this link right now (activated, unfinished), in
	// arrival order perturbed by swap-removal on completion. The order
	// is itself deterministic (same event sequence => same order), and
	// identical under the settle and the oracle, which is all
	// bit-identity needs.
	flows []linkRef

	// Lazily synced accounting. carried/busyInt integrate delivered
	// bytes and allocated rate up to lastSync; the current regime
	// (sumRate/sumGoodput, constant between rate changes) extends them
	// to any later read point. A link is synced only when its sums
	// change bitwise, so the settle and the oracle sync at identical
	// instants with identical values.
	carried    float64
	busyInt    float64
	lastSync   sim.Time
	sumRate    float64
	sumGoodput float64

	// settle scratch (see alloc.go). hpos/hshare are the link's slot and
	// cached key in the indexed bottleneck heap; hpos is -1 while the
	// link is not in the heap. allocVer counts the link's changes in a
	// fill and pushVer is the count its heap key reflects.
	nActive  int
	residual float64
	compGen  uint64
	allocVer uint32
	pushVer  uint32
	hpos     int32
	hshare   float64
}

// linkRef locates a flow on a link together with the index of this link
// in the flow's path, so swap-removal can fix the flow's back-pointer.
type linkRef struct {
	f       *Flow
	pathIdx int
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// MarkTrunk returns l unchanged.
//
// Deprecated: the fabric has one allocator, which needs no trunk
// marks. The method remains only for existing callers.
func (l *Link) MarkTrunk() *Link { return l }

// Class returns the traffic-accounting class assigned at creation.
func (l *Link) Class() string { return l.class }

// Capacity returns the link capacity in bytes per second.
func (l *Link) Capacity() float64 { return l.capacity }

// Latency returns the per-flow latency in seconds.
func (l *Link) Latency() float64 { return l.latency }

// CarriedBytes returns the total bytes the link has carried up to the
// current virtual time.
func (l *Link) CarriedBytes() float64 {
	return l.carried + float64(l.sumGoodput*(l.net.eng.Now()-l.lastSync))
}

// BusySeconds returns the capacity-normalised busy time: the integral of
// allocated rate over time divided by capacity. A link saturated for 2s
// reports 2.0 regardless of how many flows shared it.
func (l *Link) BusySeconds() float64 {
	if l.capacity == 0 {
		return 0
	}
	return (l.busyInt + float64(l.sumRate*(l.net.eng.Now()-l.lastSync))) / l.capacity
}

// Flow is a transfer of a fixed number of bytes across a path of links.
type Flow struct {
	name       string
	size       float64
	path       []*Link
	eff        float64  // goodput fraction of the allocated rate
	started    sim.Time // when StartFlow was called
	activated  sim.Time // when the latency elapsed and bandwidth use began
	finished   sim.Time
	active     bool
	done       bool
	onComplete func(*Flow)
	net        *Network

	ord       uint64 // activation ordinal; all deterministic iteration keys off it
	rate      float64
	goodput   float64 // rate * eff, cached
	remaining float64 // valid only while not active (pre-activation size, post-completion residue)

	// Anchor accounting: while active, the delivered-byte state is
	// remaining(t) = anchorRem - goodput*(t-anchorAt). The anchor moves
	// only when the flow's rate changes bitwise, so eager and lazy
	// evaluation produce the same floats.
	anchorAt  sim.Time
	anchorRem float64
	finishAt  sim.Time // anchorAt + anchorRem/goodput, exact predicted completion

	heapIdx   int   // index in Network.fheap, -1 when not queued
	posInLink []int // posInLink[i] = index of this flow in path[i].flows

	// settle scratch (see alloc.go)
	compGen uint64
	newRate float64
	frozen  bool
}

// Name returns the flow's name.
func (f *Flow) Name() string { return f.name }

// Size returns the total size in bytes.
func (f *Flow) Size() float64 { return f.size }

// Remaining returns the bytes not yet delivered as of the current
// virtual time.
func (f *Flow) Remaining() float64 {
	if !f.active {
		return f.remaining
	}
	rem := f.anchorRem - float64(f.goodput*(f.net.eng.Now()-f.anchorAt))
	if rem < 0 {
		return 0
	}
	return rem
}

// Rate returns the currently allocated rate in bytes per second.
func (f *Flow) Rate() float64 { return f.rate }

// Goodput returns the current delivery rate: allocated rate times the
// flow's protocol efficiency.
func (f *Flow) Goodput() float64 { return f.rate * f.eff }

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// StartedAt returns the virtual time StartFlow was called.
func (f *Flow) StartedAt() sim.Time { return f.started }

// FinishedAt returns the completion time; valid only once Done.
func (f *Flow) FinishedAt() sim.Time { return f.finished }

// FlowSpec describes one flow for batched admission via StartFlows.
type FlowSpec struct {
	Name       string
	Size       float64 // bytes; <= 0 means a pure-latency flow
	Eff        float64 // protocol efficiency in (0,1]; 0 defaults to 1
	Path       []*Link
	OnComplete func(*Flow) // may be nil
}

// Network owns links and active flows and drives the fluid model.
type Network struct {
	eng   *sim.Engine
	links []*Link

	// active holds activated, unfinished flows in ord order. Completed
	// flows are compacted out lazily (the component settle never scans
	// this slice; the oracle compacts before each settle).
	active  []*Flow
	nActive int // live flow count (excludes compacted-out dead entries)
	nDead   int // dead entries still occupying active
	ordCtr  uint64

	// settle batching: all arrivals/completions at one instant mark
	// trigger links and are resolved by a single settle event.
	settlePending bool
	trigLinks     []*Link
	pendingDone   []*Flow

	// completion tracking: min-heap keyed (finishAt, ord) plus the one
	// scheduled engine event for the heap minimum.
	fheap  []*Flow
	nextEv *sim.Event
	nextAt sim.Time

	// settle scratch, reused across settles (see alloc.go)
	compGen    uint64
	scopeFlows []*Flow
	scopeLinks []*Link
	bfsQueue   []*Link
	hheap      []*Link

	// oracle routes every settle through the naive reference fill; only
	// the package's tests set it (see export_test.go).
	oracle bool

	// OnFlowDone, if set, is invoked for every completed flow after its
	// own onComplete callback. Used by the metrics recorder.
	OnFlowDone func(*Flow)
}

// NewNetwork returns an empty network bound to eng.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{eng: eng}
}

// Engine returns the simulation engine the network is bound to.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Links returns all links in creation order. The slice is shared; do not
// modify it.
func (n *Network) Links() []*Link { return n.links }

// ActiveFlows returns the number of flows currently consuming bandwidth.
func (n *Network) ActiveFlows() int { return n.nActive }

// NewLink creates a directed link. class is a free-form label ("nvlink",
// "nic", "pcie", ...) used by traffic accounting. It panics unless the
// capacity is positive and finite and the latency non-negative and
// finite; a NaN in either would otherwise reach the event engine as an
// event time.
func (n *Network) NewLink(name, class string, capacityBps, latency float64) *Link {
	if !(capacityBps > 0) || math.IsInf(capacityBps, 1) {
		panic(fmt.Sprintf("fabric: link %q capacity must be positive and finite, got %v", name, capacityBps))
	}
	if !(latency >= 0) || math.IsInf(latency, 1) {
		panic(fmt.Sprintf("fabric: link %q latency must be non-negative and finite, got %v", name, latency))
	}
	l := &Link{name: name, class: class, capacity: capacityBps, latency: latency, index: len(n.links), net: n}
	n.links = append(n.links, l)
	return l
}

// StartFlow begins a transfer of size bytes along path. The flow first
// waits the sum of the path's latencies, then competes for bandwidth.
// onComplete (may be nil) fires when the last byte is delivered. A flow
// with an empty path or zero size completes after the latency alone.
// The returned Flow can be inspected but not cancelled (the training
// workloads in this repository never abort transfers).
func (n *Network) StartFlow(name string, size float64, path []*Link, onComplete func(*Flow)) *Flow {
	return n.StartFlowEff(name, size, 1, path, onComplete)
}

// StartFlowEff is StartFlow with an explicit protocol efficiency in
// (0, 1]: the flow's goodput is eff times its allocated max-min share,
// while the full share stays reserved on every link it crosses. This is
// how the model expresses transport inefficiency — a collective that
// reaches only a fraction of line rate (e.g. NCCL All-to-All, §3.1 of
// the Janus paper) keeps the links busy but delivers fewer bytes per
// second. Link CarriedBytes accounts goodput (delivered bytes);
// BusySeconds accounts the reservation.
func (n *Network) StartFlowEff(name string, size, eff float64, path []*Link, onComplete func(*Flow)) *Flow {
	f := n.newFlow(FlowSpec{Name: name, Size: size, Eff: eff, Path: path, OnComplete: onComplete})
	lat := pathLatency(path)
	if size <= 0 || len(path) == 0 {
		// Pure-latency flow (control message, local no-op copy).
		n.eng.After(lat, func() { n.finish(f) })
		return f
	}
	n.eng.After(lat, func() { n.activate([]*Flow{f}) })
	return f
}

// StartFlows admits a batch of flows in one call. All flows sharing the
// same path latency activate in a single event and are settled by one
// rate recomputation, so an All-to-All wave of n(n-1) flows costs one
// reallocation instead of n(n-1). Specs are admitted in slice order;
// the returned flows are in the same order.
func (n *Network) StartFlows(specs []FlowSpec) []*Flow {
	flows := make([]*Flow, len(specs))
	// Group bandwidth flows by activation latency, preserving first-seen
	// order of distinct latencies so event seq order is deterministic.
	var lats []float64
	var groups [][]*Flow
	for i, sp := range specs {
		if sp.Eff == 0 {
			sp.Eff = 1
		}
		f := n.newFlow(sp)
		flows[i] = f
		lat := pathLatency(sp.Path)
		if sp.Size <= 0 || len(sp.Path) == 0 {
			n.eng.After(lat, func() { n.finish(f) })
			continue
		}
		gi := -1
		for j, l := range lats {
			if l == lat {
				gi = j
				break
			}
		}
		if gi < 0 {
			lats = append(lats, lat)
			groups = append(groups, nil)
			gi = len(lats) - 1
		}
		groups[gi] = append(groups[gi], f)
	}
	for gi, g := range groups {
		g := g
		n.eng.After(lats[gi], func() { n.activate(g) })
	}
	return flows
}

func (n *Network) newFlow(sp FlowSpec) *Flow {
	eff := sp.Eff
	if sp.Size < 0 || math.IsNaN(sp.Size) || math.IsInf(sp.Size, 0) {
		panic(fmt.Sprintf("fabric: flow %q has invalid size %v", sp.Name, sp.Size))
	}
	if eff <= 0 || eff > 1 || math.IsNaN(eff) {
		panic(fmt.Sprintf("fabric: flow %q has invalid efficiency %v", sp.Name, eff))
	}
	return &Flow{
		name:       sp.Name,
		size:       sp.Size,
		remaining:  sp.Size,
		eff:        eff,
		path:       sp.Path,
		started:    n.eng.Now(),
		onComplete: sp.OnComplete,
		net:        n,
		heapIdx:    -1,
	}
}

func pathLatency(path []*Link) float64 {
	var lat float64
	for _, l := range path {
		lat += l.latency
	}
	return lat
}

// activate inserts a batch of latency-elapsed flows into the fluid model
// and requests a settle. Flows start at rate zero; the settle at this
// same instant assigns their first max-min share.
func (n *Network) activate(batch []*Flow) {
	now := n.eng.Now()
	for _, f := range batch {
		f.active = true
		f.activated = now
		f.ord = n.ordCtr
		n.ordCtr++
		f.anchorAt = now
		f.anchorRem = f.size
		f.posInLink = make([]int, len(f.path))
		for i, l := range f.path {
			f.posInLink[i] = len(l.flows)
			l.flows = append(l.flows, linkRef{f: f, pathIdx: i})
			n.trigLinks = append(n.trigLinks, l)
		}
		n.active = append(n.active, f)
		n.nActive++
	}
	n.ensureSettle()
}

// onCompletionEvent fires at the exact predicted finish time of the
// completion-heap minimum. It retires every flow whose finish time has
// arrived and requests a settle; completion callbacks run at the end of
// that settle, after rates are consistent again.
func (n *Network) onCompletionEvent() {
	n.nextEv = nil
	now := n.eng.Now()
	for len(n.fheap) > 0 && n.fheap[0].finishAt <= now {
		f := n.popCompletion()
		f.active = false
		f.rate = 0
		f.goodput = 0
		f.remaining = 0
		n.removeFromLinks(f)
		for _, l := range f.path {
			n.trigLinks = append(n.trigLinks, l)
		}
		n.nActive--
		n.nDead++
		n.pendingDone = append(n.pendingDone, f)
	}
	if len(n.pendingDone) > 0 {
		n.ensureSettle()
	}
}

// removeFromLinks swap-removes f from every link on its path, fixing the
// displaced flow's back-pointer. The resulting link-list orders depend
// only on the event sequence, so the settle and the oracle see the same.
func (n *Network) removeFromLinks(f *Flow) {
	for i, l := range f.path {
		pos := f.posInLink[i]
		last := len(l.flows) - 1
		moved := l.flows[last]
		l.flows[pos] = moved
		moved.f.posInLink[moved.pathIdx] = pos
		l.flows[last] = linkRef{}
		l.flows = l.flows[:last]
	}
}

// ensureSettle schedules the single settle event for the current instant
// if one is not already pending. After(0) gets the largest seq at this
// instant, so every already-queued same-time arrival/completion fires
// first and is folded into the one settle.
func (n *Network) ensureSettle() {
	if n.settlePending {
		return
	}
	n.settlePending = true
	n.eng.After(0, n.settle)
}

// compact removes completed flows from the ord-ordered active slice.
func (n *Network) compact() {
	if n.nDead == 0 {
		return
	}
	keep := n.active[:0]
	for _, f := range n.active {
		if f.active {
			keep = append(keep, f)
		}
	}
	for i := len(keep); i < len(n.active); i++ {
		n.active[i] = nil
	}
	n.active = keep
	n.nDead = 0
}

func (n *Network) finish(f *Flow) {
	if f.done {
		return
	}
	f.done = true
	f.active = false
	f.rate = 0
	f.goodput = 0
	f.finished = n.eng.Now()
	if f.onComplete != nil {
		f.onComplete(f)
	}
	if n.OnFlowDone != nil {
		n.OnFlowDone(f)
	}
}

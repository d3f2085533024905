package metrics

import (
	"fmt"
	"sync/atomic"
)

// Degradation-ladder rungs. Every answered request is counted at the
// rung that produced its bytes (the worst rung any of its expert pulls
// used); shed requests never produce an answer and are counted once at
// RungShed. The rungs are ordered best-first so "max rung" is the
// natural fold across a request's expert pulls.
const (
	RungFull    = 0 // full quality: every pull answered by the owner
	RungReplica = 1 // at least one pull served from an in-sync replica
	RungStale   = 2 // stale local weights within MaxStalenessSteps
	RungTop1    = 3 // routed top-1 instead of top-k under pressure
	RungShed    = 4 // rejected with retry-after; never answered
)

// ServingRungs is the number of ladder rungs.
const ServingRungs = 5

// servingShards spreads the per-request counters across cache lines,
// the same treatment the transport's wire counters get: every request
// on every front-end worker bumps these, so a single atomic set would
// become a contended line under a flash crowd. Writers add through a
// per-worker handle; readers fold the shards.
const servingShards = 8

type servingShard struct {
	admitted        atomic.Int64
	shed            atomic.Int64
	deadlineExpired atomic.Int64
	hedged          atomic.Int64
	canaryServed    atomic.Int64
	rolledBack      atomic.Int64
	answered        [ServingRungs]atomic.Int64
	_               [40]byte // pad the 88-byte shard to two cache lines
}

// Serving tracks the request plane's counter family, usable
// concurrently. Hot-path writers go through a Handle (one per worker);
// reads fold the shards into an immutable ServingSnapshot.
type Serving struct {
	shards [servingShards]servingShard
	seq    atomic.Uint32
}

// Handle returns a write handle bound to one shard, round-robin across
// callers. A worker keeps its handle for its lifetime so its adds stay
// on one cache line.
func (s *Serving) Handle() *ServingHandle {
	return &ServingHandle{shard: &s.shards[s.seq.Add(1)%servingShards]}
}

// ServingHandle is one worker's write port into a Serving family.
type ServingHandle struct{ shard *servingShard }

// AddAdmitted counts a request accepted past admission control.
func (h *ServingHandle) AddAdmitted() { h.shard.admitted.Add(1) }

// AddShed counts a request rejected with retry-after. The caller also
// records the terminal rung via AddAnswered(RungShed) — kept separate
// so "shed and never answered" is checkable as an invariant.
func (h *ServingHandle) AddShed() { h.shard.shed.Add(1) }

// AddDeadlineExpired counts work cancelled because its budget ran out
// (at admission, batching, the remote store, or answer emission).
func (h *ServingHandle) AddDeadlineExpired() { h.shard.deadlineExpired.Add(1) }

// AddHedged counts an expert pull that opened a hedge leg against a
// gray-slow owner.
func (h *ServingHandle) AddHedged() { h.shard.hedged.Add(1) }

// AddAnswered counts a request's terminal state at the ladder rung that
// produced it. Out-of-range rungs are clamped to RungShed.
func (h *ServingHandle) AddAnswered(rung int) {
	if rung < 0 || rung >= ServingRungs {
		rung = RungShed
	}
	h.shard.answered[rung].Add(1)
}

// AddCanaryServed counts an answer computed from the canary checkpoint.
func (h *ServingHandle) AddCanaryServed() { h.shard.canaryServed.Add(1) }

// AddRolledBack counts a canary generation fenced off after an SLO
// regression.
func (h *ServingHandle) AddRolledBack() { h.shard.rolledBack.Add(1) }

// Snapshot folds the shards into an immutable view.
func (s *Serving) Snapshot() ServingSnapshot {
	var out ServingSnapshot
	for i := range s.shards {
		sh := &s.shards[i]
		out.Admitted += sh.admitted.Load()
		out.Shed += sh.shed.Load()
		out.DeadlineExpired += sh.deadlineExpired.Load()
		out.Hedged += sh.hedged.Load()
		out.CanaryServed += sh.canaryServed.Load()
		out.RolledBack += sh.rolledBack.Load()
		for r := 0; r < ServingRungs; r++ {
			out.Answered[r] += sh.answered[r].Load()
		}
	}
	return out
}

// ServingSnapshot is an immutable view of a Serving counter family.
type ServingSnapshot struct {
	Admitted        int64
	Shed            int64
	DeadlineExpired int64
	Hedged          int64
	CanaryServed    int64
	RolledBack      int64
	Answered        [ServingRungs]int64
}

// Sub returns the events accumulated since an earlier snapshot.
func (s ServingSnapshot) Sub(earlier ServingSnapshot) ServingSnapshot {
	out := ServingSnapshot{
		Admitted:        s.Admitted - earlier.Admitted,
		Shed:            s.Shed - earlier.Shed,
		DeadlineExpired: s.DeadlineExpired - earlier.DeadlineExpired,
		Hedged:          s.Hedged - earlier.Hedged,
		CanaryServed:    s.CanaryServed - earlier.CanaryServed,
		RolledBack:      s.RolledBack - earlier.RolledBack,
	}
	for r := 0; r < ServingRungs; r++ {
		out.Answered[r] = s.Answered[r] - earlier.Answered[r]
	}
	return out
}

// Add returns the element-wise sum of two snapshots.
func (s ServingSnapshot) Add(o ServingSnapshot) ServingSnapshot {
	out := ServingSnapshot{
		Admitted:        s.Admitted + o.Admitted,
		Shed:            s.Shed + o.Shed,
		DeadlineExpired: s.DeadlineExpired + o.DeadlineExpired,
		Hedged:          s.Hedged + o.Hedged,
		CanaryServed:    s.CanaryServed + o.CanaryServed,
		RolledBack:      s.RolledBack + o.RolledBack,
	}
	for r := 0; r < ServingRungs; r++ {
		out.Answered[r] = s.Answered[r] + o.Answered[r]
	}
	return out
}

// IsZero reports whether no serving events were recorded.
func (s ServingSnapshot) IsZero() bool { return s == ServingSnapshot{} }

// AnsweredTotal returns the answers across the non-shed rungs.
func (s ServingSnapshot) AnsweredTotal() int64 {
	var n int64
	for r := 0; r < RungShed; r++ {
		n += s.Answered[r]
	}
	return n
}

// DegradedTotal returns the answers produced below full quality.
func (s ServingSnapshot) DegradedTotal() int64 {
	var n int64
	for r := RungReplica; r < RungShed; r++ {
		n += s.Answered[r]
	}
	return n
}

func (s ServingSnapshot) String() string {
	return fmt.Sprintf("admitted=%d shed=%d deadline-expired=%d hedged=%d full=%d replica=%d stale=%d top1=%d shed-terminal=%d canary=%d rolled-back=%d",
		s.Admitted, s.Shed, s.DeadlineExpired, s.Hedged,
		s.Answered[RungFull], s.Answered[RungReplica], s.Answered[RungStale],
		s.Answered[RungTop1], s.Answered[RungShed], s.CanaryServed, s.RolledBack)
}

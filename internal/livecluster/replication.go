// Synchronous hot-expert replication: lossless failover, in-sync
// fallback serving, and anti-entropy repair.
//
// The planner assigns each replicated expert Replicas machines besides
// its owner — popularity-ordered (the hottest experts claim capacity
// first, reusing the rebalancer's routed-token signal), capacity-aware,
// seeded-rendezvous scored, and entirely deterministic. After every
// step's gradient merge the owner streams each replicated expert's
// post-merge weights to its replica set on the REPL wire message:
// versioned, acked, epoch-fenced like every other frame, with a bounded
// in-flight window so replication lag is capped and observable.
//
// Failover promotes an in-sync replica: when the dead owner's last
// merged version survives on a replica, that replica becomes the owner
// inside the same quorum-gated, epoch-fenced recompute PR 5 failover
// uses — and the run continues bit-for-bit as if the owner had never
// died. Only when no replica acked that version does recovery fall back
// to the lossy stale-replica/checkpoint path. Failed pulls prefer an
// in-sync replica over the stale cache too, and serve it without any
// staleness accounting.
//
// The anti-entropy sweep runs on a seeded cadence: it repairs replica
// membership (dead or promoted holders are replaced deterministically)
// and compares per-expert version digests owner-vs-replica, re-streaming
// any replica that lags — a torn stream was rejected whole at apply
// time, so divergence always surfaces as a version gap the sweep closes.
package livecluster

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"janus/internal/moe"
	"janus/internal/transport"
)

// DefaultReplWindow bounds concurrent in-flight replica streams per
// sync round when Config.ReplWindow is zero.
const DefaultReplWindow = 4

// DefaultAntiEntropyEvery is the anti-entropy sweep cadence, in steps,
// when Config.AntiEntropyEvery is zero.
const DefaultAntiEntropyEvery = 4

// replicaEntry is one in-sync copy of an expert this machine replicates
// but does not own: decoded weights, the owner's canonical wire
// encoding, and the merge version they belong to. Entries are replaced
// wholesale and never mutated in place, so an object handed out to
// compute stays immutable even as newer versions arrive.
type replicaEntry struct {
	ex  *moe.Expert
	enc []byte
	ver uint64
}

// promotionRecord is one in-sync replica promotion, kept for the
// ViewConsistency invariant: a promotion must happen inside a fenced
// epoch (epoch > 0, never ahead of the authoritative view's).
type promotionRecord struct {
	expert  int
	machine int
	epoch   uint64
}

// AcceptReplica implements transport.ReplicationSink: it applies one
// whole versioned snapshot to this machine's replica store,
// monotonically — a delayed retransmission can never roll a replica
// backwards, and a torn stream was already rejected whole by the REPL
// framing, so a replica is always at some exact owner version.
func (s *machineStore) AcceptReplica(id transport.ExpertID, payload []byte) error {
	ver, raw, err := transport.DecodeRepl(payload)
	if err != nil {
		return err
	}
	enc := make([]byte, len(raw))
	copy(enc, raw) // raw aliases the frame buffer, which is recycled
	ex, err := decodeExpert(enc)
	if err != nil {
		return fmt.Errorf("livecluster: replica stream for %v: %w", id, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replicas == nil {
		s.replicas = make(map[transport.ExpertID]*replicaEntry)
	}
	if cur, ok := s.replicas[id]; ok && ver < cur.ver {
		return nil // stale retransmission: idempotent, version-monotone
	}
	s.replicas[id] = &replicaEntry{ex: ex, enc: enc, ver: ver}
	return nil
}

// replicaAt returns this machine's replica entry for an expert, if any.
func (s *machineStore) replicaAt(id transport.ExpertID) (*replicaEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.replicas[id]
	return ent, ok
}

// setReplica installs a replica entry locally — the migration RELEASE
// path, where the outgoing owner's copy fills the replica slot the
// FENCE vacated, already at the transferred version.
func (s *machineStore) setReplica(id transport.ExpertID, ex *moe.Expert, enc []byte, ver uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replicas == nil {
		s.replicas = make(map[transport.ExpertID]*replicaEntry)
	}
	if cur, ok := s.replicas[id]; ok && ver < cur.ver {
		return
	}
	s.replicas[id] = &replicaEntry{ex: ex, enc: enc, ver: ver}
}

// dropReplica discards a replica entry — a machine that starts owning
// an expert stops backing it up.
func (s *machineStore) dropReplica(id transport.ExpertID) {
	s.mu.Lock()
	delete(s.replicas, id)
	s.mu.Unlock()
}

// versionOf reads an expert's merge version (0 when not training or
// not hosted).
func (s *machineStore) versionOf(id transport.ExpertID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ver[id]
}

// replicationOn reports whether the replication subsystem is armed.
func (cl *Cluster) replicationOn() bool { return cl.cfg.Replicas > 0 }

// setReplAcked records owner-side that replica r acked expert e at ver
// — the skip signal that keeps the sync loop from re-streaming an
// already in-sync replica.
func (cl *Cluster) setReplAcked(e, r int, ver uint64) {
	cl.replMu.Lock()
	m := cl.replAcked[e]
	if m == nil {
		m = make(map[int]uint64)
		cl.replAcked[e] = m
	}
	if cur, ok := m[r]; !ok || ver >= cur {
		m[r] = ver
	}
	cl.replMu.Unlock()
}

// replAckedVer returns the newest version replica r has acked for
// expert e, and whether it ever acked at all.
func (cl *Cluster) replAckedVer(e, r int) (uint64, bool) {
	cl.replMu.Lock()
	defer cl.replMu.Unlock()
	v, ok := cl.replAcked[e][r]
	return v, ok
}

// stripReplicaLocked removes machine m from expert e's replica set.
// Callers hold viewMu and invoke this wherever ownership lands on m, so
// a machine never backs up an expert it owns — the failure domain the
// replica exists to widen would otherwise silently collapse.
func (cl *Cluster) stripReplicaLocked(e, m int) {
	set := cl.replicas[e]
	for i, r := range set {
		if r == m {
			cl.replicas[e] = append(set[:i], set[i+1:]...)
			return
		}
	}
}

// PlanReplicas assigns each replicated expert Replicas machines:
// popularity-ordered (hottest experts claim capacity first, by the same
// routed-token counts the rebalancer plans from), owner-disjoint,
// capacity-aware (the candidate carrying the fewest experts plus
// already-planned replicas wins), with seeded rendezvous scores
// breaking capacity ties. Fully deterministic — remaining ties break
// toward the lower machine id, and expert order ties toward the lower
// expert index — so seeded runs plan identical replica sets.
func (cl *Cluster) PlanReplicas() map[int][]int {
	n := cl.cfg.Replicas
	if n <= 0 {
		return nil
	}
	counts := cl.load.Counts()
	cl.viewMu.Lock()
	rep := cl.repViewLocked()
	owner := append([]int(nil), rep.owner...)
	alive := append([]bool(nil), rep.alive...)
	cl.viewMu.Unlock()

	order := make([]int, len(owner))
	for e := range order {
		order[e] = e
	}
	sort.SliceStable(order, func(i, j int) bool {
		ei, ej := order[i], order[j]
		if counts[ei] != counts[ej] {
			return counts[ei] > counts[ej]
		}
		return ei < ej
	})
	if top := cl.cfg.ReplicateTop; top > 0 && top < len(order) {
		order = order[:top]
	}

	// Capacity signal: experts hosted now plus replicas planned so far.
	assigned := make([]int, len(alive))
	for _, o := range owner {
		if o >= 0 && o < len(assigned) {
			assigned[o]++
		}
	}
	plan := make(map[int][]int, len(order))
	for _, e := range order {
		o := owner[e]
		var cand []int
		for m, a := range alive {
			if a && m != o {
				cand = append(cand, m)
			}
		}
		sort.SliceStable(cand, func(i, j int) bool {
			mi, mj := cand[i], cand[j]
			if assigned[mi] != assigned[mj] {
				return assigned[mi] < assigned[mj]
			}
			si := cl.replicaScore(e, mi)
			sj := cl.replicaScore(e, mj)
			if si != sj {
				return si > sj
			}
			return mi < mj
		})
		k := n
		if k > len(cand) {
			k = len(cand)
		}
		if k == 0 {
			continue
		}
		set := append([]int(nil), cand[:k]...)
		for _, m := range set {
			assigned[m]++
		}
		sort.Ints(set)
		plan[e] = set
	}
	return plan
}

// replicaScore is the seeded rendezvous score of (expert, machine) for
// replica placement — a different stream than ownership rendezvous so
// replica picks do not shadow the owner assignment.
func (cl *Cluster) replicaScore(e, m int) uint64 {
	return mix64(uint64(cl.cfg.Seed)*0xD6E8FEB86659FD93 ^
		uint64(e)<<32 ^ uint64(m) ^ 0xA5A5A5A5A5A5A5A5)
}

// ensureReplicaPlan arms the replica plan exactly once, lazily at the
// first sync round — after at least one step's routing counts exist, so
// popularity ordering has a real signal. Seeded runs arm identically.
func (cl *Cluster) ensureReplicaPlan() {
	cl.viewMu.Lock()
	planned := cl.replicaPlanned
	cl.viewMu.Unlock()
	if planned {
		return
	}
	plan := cl.PlanReplicas()
	cl.viewMu.Lock()
	if !cl.replicaPlanned {
		cl.replicaPlanned = true
		for e, set := range plan {
			cl.replicas[e] = set
		}
	}
	cl.viewMu.Unlock()
}

// replicateStep is the synchronous sync round, run at the step barrier
// after every store merged to the step's version: each replicated
// expert's owner streams its post-merge weights to every replica that
// has not already acked them, bounded by the in-flight window. The
// round blocks until every stream acked or failed, so "in-sync" is a
// property the owner can assert at the barrier, and a failed stream is
// observable lag (ReplFailures) the anti-entropy sweep repairs — never
// silent divergence.
func (cl *Cluster) replicateStep() {
	if !cl.replicationOn() {
		return
	}
	cl.ensureReplicaPlan()
	cl.viewMu.Lock()
	rep := cl.repViewLocked()
	owner := append([]int(nil), rep.owner...)
	alive := append([]bool(nil), rep.alive...)
	plan := make(map[int][]int, len(cl.replicas))
	for e, set := range cl.replicas {
		plan[e] = append([]int(nil), set...)
	}
	cl.viewMu.Unlock()

	window := cl.cfg.ReplWindow
	if window <= 0 {
		window = DefaultReplWindow
	}
	sem := make(chan struct{}, window)
	var wg sync.WaitGroup
	for e := 0; e < cl.cfg.NumExperts; e++ {
		set := plan[e]
		if len(set) == 0 {
			continue
		}
		o := owner[e]
		if o < 0 || o >= len(alive) || !alive[o] {
			continue // a dead owner's experts are promotion's problem
		}
		id := transport.ExpertID{Expert: uint32(e)}
		payload, ver, err := cl.stores[o].exportExpert(id)
		if err != nil {
			continue // not hosted (unrecoverable expert): nothing to sync
		}
		stream, err := transport.EncodeRepl(ver, payload)
		if err != nil {
			continue
		}
		for _, r := range set {
			if r == o || r < 0 || r >= len(alive) || !alive[r] {
				continue
			}
			if av, ok := cl.replAckedVer(e, r); ok && av >= ver {
				continue // already in sync: nothing to stream
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(e, o, r int, ver uint64, stream []byte) {
				defer func() { <-sem; wg.Done() }()
				if err := cl.clients[o].Replicate(context.Background(), cl.addrs[r], id, stream); err != nil {
					cl.robust.AddReplFailure()
					return
				}
				cl.robust.AddReplPush()
				cl.setReplAcked(e, r, ver)
			}(e, o, r, ver, stream)
		}
	}
	wg.Wait()
}

// antiEntropy runs the seeded repair sweep on its configured cadence.
func (cl *Cluster) antiEntropy(step int) {
	if !cl.replicationOn() {
		return
	}
	every := cl.cfg.AntiEntropyEvery
	if every <= 0 {
		every = DefaultAntiEntropyEvery
	}
	if step%every != 0 {
		return
	}
	cl.sweepReplicas(step)
}

// sweepReplicas walks every replicated expert — scan origin rotated by
// the seed and step, so over time each expert is swept first equally
// often — repairing replica membership and re-streaming any replica
// whose version digest diverged from the owner's.
func (cl *Cluster) sweepReplicas(step int) {
	cl.viewMu.Lock()
	rep := cl.repViewLocked()
	owner := append([]int(nil), rep.owner...)
	alive := append([]bool(nil), rep.alive...)
	exps := make([]int, 0, len(cl.replicas))
	for e := range cl.replicas {
		exps = append(exps, e)
	}
	cl.viewMu.Unlock()
	if len(exps) == 0 {
		return
	}
	sort.Ints(exps)
	off := int(mix64(uint64(cl.cfg.Seed)^uint64(step)*0x9E3779B97F4A7C15) % uint64(len(exps)))
	for i := range exps {
		cl.repairExpert(exps[(i+off)%len(exps)], owner, alive)
	}
}

// repairExpert is one expert's anti-entropy pass: membership repair
// under viewMu (dead or promoted-away holders are dropped, the set is
// topped back up to Replicas with a deterministic seeded pick), then a
// version-digest exchange against the owner — any replica missing the
// owner's version gets the snapshot re-streamed. Direct store reads
// stand in for the digest RPC of a multi-process deployment; the repair
// stream itself goes over the fenced wire like every sync.
func (cl *Cluster) repairExpert(e int, owner []int, alive []bool) {
	o := owner[e]
	if o < 0 || o >= len(alive) || !alive[o] {
		return // ownerless experts are failover's problem, not repair's
	}
	id := transport.ExpertID{Expert: uint32(e)}

	cl.viewMu.Lock()
	set := cl.replicas[e]
	keep := make([]int, 0, len(set))
	for _, r := range set {
		if r != o && r >= 0 && r < len(alive) && alive[r] {
			keep = append(keep, r)
		}
	}
	retargets := len(set) - len(keep)
	if len(keep) < cl.cfg.Replicas {
		in := make(map[int]bool, len(keep))
		for _, r := range keep {
			in[r] = true
		}
		var cand []int
		for m, a := range alive {
			if a && m != o && !in[m] {
				cand = append(cand, m)
			}
		}
		sort.SliceStable(cand, func(i, j int) bool {
			si, sj := cl.replicaScore(e, cand[i]), cl.replicaScore(e, cand[j])
			if si != sj {
				return si > sj
			}
			return cand[i] < cand[j]
		})
		for _, m := range cand {
			if len(keep) >= cl.cfg.Replicas {
				break
			}
			keep = append(keep, m)
			retargets++
		}
		sort.Ints(keep)
	}
	cl.replicas[e] = keep
	cl.viewMu.Unlock()
	for i := 0; i < retargets; i++ {
		cl.robust.AddReplRetarget()
	}

	payload, ver, err := cl.stores[o].exportExpert(id)
	if err != nil {
		return
	}
	var stream []byte
	for _, r := range keep {
		if ent, ok := cl.stores[r].replicaAt(id); ok && ent.ver >= ver {
			cl.setReplAcked(e, r, ent.ver)
			continue // digests agree: in sync
		}
		if stream == nil {
			if stream, err = transport.EncodeRepl(ver, payload); err != nil {
				return
			}
		}
		if err := cl.clients[o].Replicate(context.Background(), cl.addrs[r], id, stream); err != nil {
			cl.robust.AddReplFailure()
			continue
		}
		cl.robust.AddReplRepair()
		cl.setReplAcked(e, r, ver)
	}
}

// promoteInSync attempts the lossless failover path for expert e, whose
// owner `dead` was just declared lost inside the fenced epoch: a
// surviving replica that acked the dead owner's last merged version is
// promoted to owner. The promoted weights are exactly the bytes the
// owner last published, so pulls parked on the step's expected version
// proceed with zero staleness and the run stays bit-identical to an
// unfailed one. Returns the promoted machine, or -1 when no in-sync
// replica survives (recovery then falls back to the lossy
// stale-replica/checkpoint path). The first quorum viewer to process
// the loss commits the promotion through the migration-style override —
// atomic with the ownership flip under viewMu — and later viewers adopt
// it; the replica scan is ascending, so every viewer picks identically.
func (cl *Cluster) promoteInSync(e, dead, step int, aliveList []int, epoch uint64) int {
	if !cl.replicationOn() {
		return -1
	}
	id := transport.ExpertID{Expert: uint32(e)}
	alive := make(map[int]bool, len(aliveList))
	for _, m := range aliveList {
		alive[m] = true
	}
	cl.viewMu.Lock()
	if o, ok := cl.overrides[e]; ok && o != dead && alive[o] {
		cl.viewMu.Unlock()
		if _, hosted := cl.stores[o].get(id); hosted {
			return o // an earlier viewer already promoted this round
		}
		return -1
	}
	set := append([]int(nil), cl.replicas[e]...)
	cl.viewMu.Unlock()
	if len(set) == 0 {
		return -1
	}
	var want uint64
	if cl.train != nil {
		want = uint64(step - 1)
	}
	pick := -1
	var ent *replicaEntry
	for _, r := range set {
		if r == dead || !alive[r] || r < 0 || r >= len(cl.stores) {
			continue
		}
		if re, ok := cl.stores[r].replicaAt(id); ok && re.ver == want {
			pick, ent = r, re
			break
		}
	}
	if pick < 0 {
		return -1
	}
	// Install a clone: the replica entry's object may still be handed
	// out by replica serves, and the promoted copy is about to be
	// mutated by merges.
	ex := ent.ex.Clone()
	if cl.train != nil {
		cl.stores[pick].installAt(id, ex, ent.ver)
	} else {
		cl.stores[pick].install(id, ex)
	}
	cl.stores[pick].dropReplica(id)
	cl.viewMu.Lock()
	cl.overrides[e] = pick
	cl.stripReplicaLocked(e, pick)
	cl.promotions = append(cl.promotions, promotionRecord{expert: e, machine: pick, epoch: epoch})
	cl.viewMu.Unlock()
	cl.robust.AddPromotion()
	return pick
}

// replicaServe returns a surviving replica's copy of expert e at
// exactly version want, or nil. The serve is lossless — the bytes are
// the owner's own published snapshot for that version — so callers
// account no staleness and do not enter degradation mode.
func (cl *Cluster) replicaServe(e int, want uint64) *moe.Expert {
	if !cl.replicationOn() {
		return nil
	}
	cl.viewMu.Lock()
	rep := cl.repViewLocked()
	set := make([]int, 0, len(cl.replicas[e]))
	for _, r := range cl.replicas[e] {
		if r >= 0 && r < len(rep.alive) && rep.alive[r] {
			set = append(set, r)
		}
	}
	cl.viewMu.Unlock()
	id := transport.ExpertID{Expert: uint32(e)}
	for _, r := range set {
		if ent, ok := cl.stores[r].replicaAt(id); ok && ent.ver == want {
			return ent.ex
		}
	}
	return nil
}

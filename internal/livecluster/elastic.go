// Elastic membership: live machine join and fenced expert migration.
//
// Join protocol: a new machine comes up empty, dials any current member
// and sends JOIN; a member with quorum answers ADMIT with its epoch and
// membership snapshot. The joiner adopts that epoch and view (excluding
// itself from the ownership recompute — it becomes a rendezvous
// candidate only once the majority observes it). The running heartbeat
// does the rest without restart: the next round, every quorum machine
// sees the newcomer answering and runs the standard rejoin transition —
// epoch bump, canonical recompute — and the round after that the joiner
// reconciles onto the new epoch. Pre-join views are fenced by the epoch
// bump exactly like a zombie ex-member's.
//
// Migration protocol (three-phase fenced handoff):
//
//	TRANSFER  the source streams the expert's weights (checkpoint wire
//	          format) to the target, which stages them without serving.
//	          Any failure here rolls back cleanly: staged bytes are
//	          inert, no view changed.
//	COMMIT    the target installs the staged weights at the transferred
//	          version. Still before the fence — views route every pull
//	          and gradient to the source, so the copy is invisible.
//	FENCE     one critical section bumps every authoritative view's
//	          epoch and flips the expert's owner, and the override pins
//	          the expert to its new home. The old owner is fenced before
//	          the new owner can accept its first gradient; a crash
//	          before this line leaves ownership exactly as it was.
//	RELEASE   the source demotes its copy to a stale replica (the
//	          freshest recovery point should the target die) and stops
//	          hosting. A crash before this leaves an un-routed copy on
//	          the source — never served, eventually overwritten.
package livecluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"janus/internal/checkpoint"
	"janus/internal/moe"
	"janus/internal/transport"
)

// numMachines is the current membership size: the configured machines
// plus every machine admitted by Join. Compute paths stay on
// cfg.Machines (joined machines host experts but run no workers, which
// is what keeps the gradient fold schedule — and therefore the final
// weights — bitwise identical to a static run).
func (cl *Cluster) numMachines() int { return len(cl.stores) }

// errMigrationAbandoned marks a test-injected driver crash mid-handoff.
var errMigrationAbandoned = errors.New("livecluster: migration abandoned")

// stagedExpert is a migrated-in expert parked between TRANSFER and
// COMMIT: decoded weights, the canonical wire encoding (so the target
// serves byte-identical payloads to what the source served), and the
// version the weights are at.
type stagedExpert struct {
	ex  *moe.Expert
	enc []byte
	ver uint64
}

// AcceptMigration implements transport.MigrationSink: it validates and
// stages a migration stream carrying exactly one expert. Staging is
// idempotent (a retried TRANSFER overwrites) and inert — nothing is
// served or merged until commitStaged.
func (s *machineStore) AcceptMigration(id transport.ExpertID, payload []byte) error {
	snap, err := checkpoint.DecodeStream(payload)
	if err != nil {
		return err
	}
	if len(snap.Experts) != 1 {
		return fmt.Errorf("livecluster: migration stream carries %d experts, want 1", len(snap.Experts))
	}
	raw, ok := snap.Experts[id.Expert]
	if !ok {
		return fmt.Errorf("livecluster: migration stream does not carry expert %v", id)
	}
	ex, err := decodeExpert(raw)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.staged == nil {
		s.staged = make(map[transport.ExpertID]*stagedExpert)
	}
	s.staged[id] = &stagedExpert{ex: ex, enc: raw, ver: uint64(snap.Step)}
	return nil
}

// commitStaged installs a staged expert at its transferred version.
// Runs strictly before the ownership fence, so no request can route
// here until the weights are in place.
func (s *machineStore) commitStaged(id transport.ExpertID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.staged[id]
	if !ok {
		return fmt.Errorf("livecluster: no staged weights for %v", id)
	}
	delete(s.staged, id)
	s.experts[id] = st.ex
	s.invalidateEncLocked(id) // next serve re-encodes into a pooled buffer
	s.sorted = nil
	if s.trainOn {
		if s.ver == nil {
			s.ver = make(map[transport.ExpertID]uint64)
			s.pending = make(map[transport.ExpertID][]*pendingMerge)
		}
		s.ver[id] = st.ver
		s.releasePendingLocked(id)
	}
	s.cond.Broadcast()
	return nil
}

// exportExpert returns the canonical encoding and current version of a
// hosted expert — the TRANSFER phase's source read. Always a fresh
// copy: migration and replication callers retain the bytes past the
// call, which the refcounted serving memo does not allow.
func (s *machineStore) exportExpert(id transport.ExpertID) ([]byte, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.experts[id]
	if !ok {
		return nil, 0, fmt.Errorf("livecluster: expert %v not hosted", id)
	}
	return encodeExpert(e), s.ver[id], nil
}

// joinGate adapts one machine's membership view to the transport
// server's JOIN handler: a machine may admit a joiner only while it is
// on the authoritative side (quorum, not fenced, not catching up).
type joinGate struct {
	cl *Cluster
	m  int
}

func (g *joinGate) AdmitJoin(sender uint32, payload []byte) (uint64, []byte, error) {
	cl := g.cl
	cl.viewMu.Lock()
	v := cl.views[g.m]
	if !v.quorum || v.frozen || v.catch {
		cl.viewMu.Unlock()
		return 0, nil, fmt.Errorf("livecluster: machine %d cannot admit joins outside the authoritative side", g.m)
	}
	members := make([]transport.MemberInfo, len(v.alive))
	for t := range v.alive {
		addr := ""
		if t < len(cl.addrs) {
			addr = cl.addrs[t]
		}
		members[t] = transport.MemberInfo{ID: uint32(t), Addr: addr, Alive: v.alive[t]}
	}
	epoch := v.epoch
	cl.viewMu.Unlock()
	admit, err := transport.EncodeAdmit(members)
	if err != nil {
		return 0, nil, err
	}
	return epoch, admit, nil
}

// Join admits one new machine into the running cluster, seeded through
// the member with the given index, and returns the new machine's index.
// The joiner comes up hosting nothing and running no workers; it starts
// heartbeating immediately and becomes a migration target once the
// majority has observed it (one heartbeat round later). Requires
// FailoverEnabled — membership is meaningless without the heartbeat.
//
// Not safe for concurrent use with a running step; call it between
// steps (the trainer's JoinAfterStep hook does exactly that).
func (cl *Cluster) Join(seed int) (int, error) {
	cfg := cl.cfg
	if !cfg.FailoverEnabled {
		return -1, errors.New("livecluster: join requires FailoverEnabled")
	}
	if seed < 0 || seed >= cl.numMachines() {
		return -1, fmt.Errorf("livecluster: join seed machine %d out of range", seed)
	}
	j := cl.numMachines()
	store := &machineStore{
		experts: make(map[transport.ExpertID]*moe.Expert),
		enc:     make(map[transport.ExpertID]*encEntry),
		h:       cfg.Hidden,
	}
	store.cond = sync.NewCond(&store.mu)
	srv := transport.NewServer(store)
	addr, err := cl.startServer(srv, j)
	if err != nil {
		srv.Close()
		return -1, err
	}
	client := cl.newClient(j)

	// Register before the wire JOIN: the admitting member's handler
	// snapshots membership under viewMu, so the joiner must already be
	// a (not-yet-alive) row in every view when ADMIT is built.
	cl.viewMu.Lock()
	cl.stores = append(cl.stores, store)
	cl.servers = append(cl.servers, srv)
	cl.addrs = append(cl.addrs, addr)
	cl.clients = append(cl.clients, client)
	cl.stale = append(cl.stale, make(map[int]*staleEntry))
	for _, v := range cl.views {
		v.alive = append(v.alive, false)
		v.missed = append(v.missed, 0)
	}
	jv := &memberView{
		self:   j,
		alive:  make([]bool, j+1),
		missed: make([]int, j+1),
		owner:  make([]int, cfg.NumExperts),
	}
	cl.views = append(cl.views, jv)
	seedAddr := cl.addrs[seed]
	cl.viewMu.Unlock()

	info, err := client.Join(context.Background(), seedAddr, addr)
	if err != nil {
		// Roll back the registration: the cluster is exactly as it was.
		cl.viewMu.Lock()
		cl.stores = cl.stores[:j]
		cl.servers = cl.servers[:j]
		cl.addrs = cl.addrs[:j]
		cl.clients = cl.clients[:j]
		cl.stale = cl.stale[:j]
		cl.views = cl.views[:j]
		for _, v := range cl.views {
			v.alive = v.alive[:j]
			v.missed = v.missed[:j]
		}
		cl.viewMu.Unlock()
		client.Close()
		srv.Close()
		return -1, fmt.Errorf("livecluster: join via machine %d: %w", seed, err)
	}

	// Adopt the admitter's epoch and liveness, and recompute ownership
	// excluding ourselves: the joiner becomes a rendezvous candidate
	// only when the majority's rejoin transition observes it, so until
	// then its view matches the majority's bit for bit.
	cl.viewMu.Lock()
	jv.epoch = info.Epoch
	for _, mem := range info.Members {
		if int(mem.ID) < len(jv.alive) {
			jv.alive[mem.ID] = mem.Alive
		}
	}
	jv.alive[j] = true
	var aliveList []int
	for mm, a := range jv.alive {
		if a && mm != j {
			aliveList = append(aliveList, mm)
		}
	}
	for e := range jv.owner {
		jv.owner[e] = cl.canonicalOwnerLocked(e, aliveList)
	}
	jv.quorum = true
	cl.viewMu.Unlock()
	client.SetEpoch(info.Epoch)
	srv.SetJoinHandler(&joinGate{cl: cl, m: j})
	if !cfg.FencingDisabled {
		srv.SetEpochGate(&epochGate{cl: cl, m: j})
	}
	if cl.train != nil {
		// Mid-training join: arm the store so migrated-in experts merge
		// gradients under the same contributor table and version clock
		// as everyone else.
		st := cl.train
		store.enableTraining(st.expect, st.expectIdx, st.lr, st.countTrigger, &st.pipe, uint64(st.steps))
	}
	cl.robust.AddJoin()
	return j, nil
}

// abandonAt consults the test-only crash hook after a migration phase.
func (cl *Cluster) abandonAt(phase int) bool {
	return cl.migrateAbandon != nil && cl.migrateAbandon(phase)
}

// MigrateExpert moves one expert to a new owner through the fenced
// three-phase handoff documented at the top of this file. A failure (or
// injected crash) before the fence rolls back completely; after the
// fence the handoff is already in effect and only the source-side
// cleanup can be lost. Ownership never forks either way.
func (cl *Cluster) MigrateExpert(e, to int) error {
	if from := cl.currentOwner(e); from == to {
		return nil // already there
	}
	fenced, err := cl.migrateExpert(e, to)
	if err != nil {
		if fenced {
			cl.robust.AddMigration()
		} else {
			cl.robust.AddMigrationRollback()
		}
		return err
	}
	cl.robust.AddMigration()
	return nil
}

// migrateExpert runs the handoff; fenced reports whether the FENCE
// phase committed (after which the move is in effect regardless of err).
func (cl *Cluster) migrateExpert(e, to int) (fenced bool, err error) {
	cfg := cl.cfg
	if e < 0 || e >= cfg.NumExperts {
		return false, fmt.Errorf("livecluster: expert %d out of range", e)
	}
	if to < 0 || to >= cl.numMachines() {
		return false, fmt.Errorf("livecluster: migration target %d out of range", to)
	}
	from := cl.currentOwner(e)
	if !cl.isAlive(from) || !cl.isAlive(to) {
		return false, fmt.Errorf("livecluster: migration %d->%d needs both ends alive", from, to)
	}
	id := transport.ExpertID{Expert: uint32(e)}

	// TRANSFER: stream the source's current weights to the target.
	payload, ver, err := cl.stores[from].exportExpert(id)
	if err != nil {
		return false, err
	}
	stream, err := checkpoint.EncodeStream(&checkpoint.Snapshot{
		Step:    int(ver),
		Experts: map[uint32][]byte{uint32(e): payload},
	})
	if err != nil {
		return false, err
	}
	if err := cl.clients[from].Migrate(context.Background(), cl.addrs[to], id, stream); err != nil {
		return false, fmt.Errorf("livecluster: transfer expert %d to machine %d: %w", e, to, err)
	}
	if cl.abandonAt(1) {
		return false, errMigrationAbandoned
	}

	// COMMIT: install the staged weights at the transferred version —
	// before the fence, so a pull can never race an empty target.
	if err := cl.stores[to].commitStaged(id); err != nil {
		return false, err
	}
	if cl.abandonAt(2) {
		return false, errMigrationAbandoned
	}

	// FENCE: one critical section transitions every authoritative view,
	// so the old owner is fenced before the new owner can be asked for
	// its first gradient; stale-epoch traffic bounces off the wire gate.
	cl.viewMu.Lock()
	cl.overrides[e] = to
	// Atomic replica-set retarget, inside the same critical section as
	// the ownership flip: the new owner cannot back itself up, so it
	// leaves the replica set and the old owner takes the vacated slot —
	// RELEASE fills it with the copy it just streamed, and if the
	// handoff dies before RELEASE the anti-entropy sweep re-streams the
	// missing entry. Either way the set never forks.
	retargeted := false
	if set := cl.replicas[e]; len(set) > 0 {
		for i, r := range set {
			if r == to {
				set[i] = from
				retargeted = true
			}
		}
		if retargeted {
			sort.Ints(set)
		}
	}
	type bumped struct {
		m     int
		epoch uint64
	}
	var bumps []bumped
	for m, v := range cl.views {
		if v.quorum && !v.frozen && !v.catch {
			v.epoch++
			v.owner[e] = to
			bumps = append(bumps, bumped{m, v.epoch})
		}
	}
	cl.viewMu.Unlock()
	for _, b := range bumps {
		cl.clients[b.m].SetEpoch(b.epoch)
	}
	if retargeted {
		// The new owner's live copy supersedes its replica entry the
		// moment the fence commits.
		cl.stores[to].dropReplica(id)
		cl.robust.AddReplRetarget()
	}
	if cl.abandonAt(3) {
		return true, errMigrationAbandoned
	}

	// RELEASE: demote the source copy to a stale replica — the freshest
	// recovery point if the new owner dies — and stop hosting it.
	if ex, ok := cl.stores[from].get(id); ok {
		cl.staleMu.Lock()
		cl.stale[from][e] = &staleEntry{ex: ex, payload: payload, step: int(ver)}
		cl.staleMu.Unlock()
		if retargeted {
			// Fill the vacated replica slot immediately: the source's
			// copy is exactly the transferred version, so the new
			// replica starts in sync instead of waiting for a stream.
			cl.stores[from].setReplica(id, ex, payload, ver)
			cl.setReplAcked(e, from, ver)
		}
		cl.stores[from].remove(id)
	}
	return true, nil
}

// ViewConsistency verifies the elastic-membership safety invariant at
// a step boundary: no two machines on the authoritative side (quorum,
// not fenced, not catching up) that share a membership epoch disagree
// on any expert's owner. A non-nil error means ownership forked — the
// one thing the fenced handoff and the epoch bump exist to prevent.
func (cl *Cluster) ViewConsistency() error {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	auth := func(v *memberView) bool { return v.quorum && !v.frozen && !v.catch }
	for i, vi := range cl.views {
		if !auth(vi) {
			continue
		}
		for j := i + 1; j < len(cl.views); j++ {
			vj := cl.views[j]
			if !auth(vj) || vi.epoch != vj.epoch {
				continue
			}
			for e := range vi.owner {
				if vi.owner[e] != vj.owner[e] {
					return fmt.Errorf("livecluster: ownership fork at epoch %d: machines %d and %d disagree on expert %d (%d vs %d)",
						vi.epoch, i, j, e, vi.owner[e], vj.owner[e])
				}
			}
		}
	}
	// Replica invariants: a replica set never contains its expert's
	// owner (the failure domain would silently collapse), a replica's
	// version never leads the owner's (a replica cannot hold merges the
	// owner has not published), and every recorded promotion happened
	// inside a fenced epoch no newer than the authoritative view's.
	rep := cl.repViewLocked()
	for e, set := range cl.replicas {
		o := rep.owner[e]
		for _, r := range set {
			if r == o {
				return fmt.Errorf("livecluster: expert %d replica set %v contains owner %d", e, set, o)
			}
		}
		if o < 0 || o >= len(cl.stores) || o >= len(rep.alive) || !rep.alive[o] {
			continue // an ownerless expert has no version to lag behind
		}
		id := transport.ExpertID{Expert: uint32(e)}
		over := cl.stores[o].versionOf(id)
		for _, r := range set {
			if r < 0 || r >= len(cl.stores) {
				return fmt.Errorf("livecluster: expert %d replica set %v references unknown machine %d", e, set, r)
			}
			if ent, ok := cl.stores[r].replicaAt(id); ok && ent.ver > over {
				return fmt.Errorf("livecluster: expert %d replica on machine %d at version %d leads owner %d at %d",
					e, r, ent.ver, o, over)
			}
		}
	}
	for _, p := range cl.promotions {
		if p.epoch == 0 || p.epoch > rep.epoch {
			return fmt.Errorf("livecluster: promotion of expert %d to machine %d outside the fenced epoch (%d vs view %d)",
				p.expert, p.machine, p.epoch, rep.epoch)
		}
	}
	return nil
}

// recordExpertLoad folds one executed step's routing counts into the
// popularity signal: every token a running machine's workers routed to
// an expert counts toward that expert.
func (cl *Cluster) recordExpertLoad() {
	// Routing is static, so each machine's per-expert totals are
	// precomputed at Start (cl.loadTotals) — the per-step work is one
	// add per (running machine, routed expert).
	for m := 0; m < cl.cfg.Machines; m++ {
		if !cl.machineRuns(m) {
			continue
		}
		for _, lc := range cl.loadTotals[m] {
			cl.load.AddRouted(int(lc.e), lc.n)
		}
	}
}

// Move is one planned expert handoff.
type Move struct {
	Expert, From, To int
}

// PlanRebalance plans up to maxMoves migrations greedily: repeatedly
// take the hottest expert off the most-loaded alive machine and hand it
// to the least-loaded one, as long as the move strictly shrinks the
// gap. Entirely deterministic — ties break toward the lowest machine
// and expert index — so seeded runs replay identical schedules.
func (cl *Cluster) PlanRebalance(maxMoves int) []Move {
	counts := cl.load.Counts()
	cl.viewMu.Lock()
	rep := cl.repViewLocked()
	owner := append([]int(nil), rep.owner...)
	alive := append([]bool(nil), rep.alive...)
	reps := make(map[int][]int, len(cl.replicas))
	for e, set := range cl.replicas {
		reps[e] = append([]int(nil), set...)
	}
	cl.viewMu.Unlock()

	load := make([]int64, len(alive))
	owned := make([][]int, len(alive))
	for e, o := range owner {
		if o >= 0 && o < len(alive) && alive[o] {
			load[o] += counts[e]
			owned[o] = append(owned[o], e)
		}
	}
	var moves []Move
	for len(moves) < maxMoves {
		hi, lo := -1, -1
		for m := range alive {
			if !alive[m] {
				continue
			}
			if hi == -1 || load[m] > load[hi] {
				hi = m
			}
			if lo == -1 || load[m] < load[lo] {
				lo = m
			}
		}
		if hi == -1 || hi == lo {
			break
		}
		best, bestAt, bestW := -1, -1, int64(-1)
		for i, e := range owned[hi] {
			// Never migrate an expert onto a machine holding its replica:
			// owner and backup on one machine silently collapses the
			// failure domain replication paid for.
			holdsReplica := false
			for _, r := range reps[e] {
				if r == lo {
					holdsReplica = true
					break
				}
			}
			if holdsReplica {
				continue
			}
			if w := counts[e]; w > bestW && load[lo]+w < load[hi] {
				best, bestAt, bestW = e, i, w
			}
		}
		if best == -1 {
			break
		}
		moves = append(moves, Move{Expert: best, From: hi, To: lo})
		load[hi] -= bestW
		load[lo] += bestW
		owned[hi] = append(owned[hi][:bestAt], owned[hi][bestAt+1:]...)
		owned[lo] = append(owned[lo], best)
	}
	return moves
}

// Rebalance plans and executes up to maxMoves popularity-weighted
// migrations, returning how many completed. A failed handoff rolls back
// and does not stop the rest.
func (cl *Cluster) Rebalance(maxMoves int) (int, error) {
	done := 0
	var firstErr error
	for _, mv := range cl.PlanRebalance(maxMoves) {
		if err := cl.MigrateExpert(mv.Expert, mv.To); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		done++
	}
	return done, firstErr
}

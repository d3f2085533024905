// Permanent-failure handling: heartbeat-driven membership, quorum-gated
// deterministic expert re-homing, and checkpoint-backed recovery.
//
// The data-centric paradigm (§3.2) is what makes this tractable: an
// expert is an independently pullable object, not a participant in a
// collective, so losing a machine for good means re-homing its experts
// — not rebuilding a world-sized communicator. Every transition here is
// a pure function of the config seed and the injected fault schedule,
// so a failover scenario replays identically run after run.
//
// Partition model (DESIGN.md §4): each machine keeps its *own*
// membership view and may only declare peers dead — and re-home their
// experts — when it can reach a strict majority of the configured
// cluster (with a deterministic lowest-id tiebreak for even splits). A
// minority side freezes its dead-man clocks and keeps computing in the
// stale-weights degradation mode instead of forking ownership. Every
// transition bumps the view's epoch; clients stamp their epoch into
// every request and servers fence anything older (transport.ErrFencedEpoch),
// so a zombie ex-owner's pushes can never be merged after failover. A
// fenced machine freezes until the majority readmits it, then adopts
// the majority's epoch and rebuilds its view memorylessly.
package livecluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"janus/internal/checkpoint"
	"janus/internal/moe"
	"janus/internal/tensor"
	"janus/internal/transport"
)

// Membership defaults.
const (
	// DefaultDeadManSteps is how many consecutive heartbeat rounds a
	// machine may miss before survivors declare it dead.
	DefaultDeadManSteps = 2
	// DefaultHeartbeatTimeout bounds one liveness probe.
	DefaultHeartbeatTimeout = 250 * time.Millisecond
	// DefaultCheckpointKeep is how many committed checkpoint versions
	// are retained on disk.
	DefaultCheckpointKeep = 3
)

// memberView is one machine's private membership state. Nothing here is
// shared: under a partition the two sides legitimately disagree, and
// the quorum rule decides which side may act on its view. All views are
// guarded by the cluster's viewMu.
type memberView struct {
	self   int
	alive  []bool // per machine, as this machine sees it
	missed []int  // consecutive missed heartbeat rounds, per machine
	owner  []int  // expert -> owning machine under this view
	epoch  uint64 // bumps on every transition this view observes or adopts
	quorum bool   // last round reached a strict majority
	frozen bool   // fenced without readmission: halt compute until taken back
	catch  bool   // fenced with readmission: epoch is stale, reconcile next round
}

// homeMachine is the static (seed-time) owner of an expert: a balanced
// contiguous split of the expert range over the configured machines.
// When NumExperts divides evenly this is the classic block partition;
// when it does not, the leading machines carry one extra expert each —
// no divisibility requirement.
func (cl *Cluster) homeMachine(expert int) int {
	return expert * cl.cfg.Machines / cl.cfg.NumExperts
}

// canonicalOwner is the memoryless ownership rule every machine
// recomputes from (seed, expert, alive-set) alone — no coordination
// round: the home machine while it lives, else the seeded rendezvous
// pick among the living.
func canonicalOwner(seed int64, expert, home int, alive []int) int {
	for _, m := range alive {
		if m == home {
			return home
		}
	}
	return rendezvousOwner(seed, expert, alive)
}

// canonicalOwnerLocked is canonicalOwner with the cluster's migration
// overrides folded in: a live migration (or an InitialOwners placement)
// pins an expert to a specific machine, and that pin wins over the home
// assignment for as long as the pinned machine lives. Requires viewMu —
// overrides only mutate inside fence critical sections.
func (cl *Cluster) canonicalOwnerLocked(expert int, alive []int) int {
	if o, ok := cl.overrides[expert]; ok {
		for _, m := range alive {
			if m == o {
				return o
			}
		}
	}
	return canonicalOwner(cl.cfg.Seed, expert, cl.homeMachine(expert), alive)
}

// repViewLocked is the representative view the public accessors report:
// the lowest-id machine whose last round had quorum and is not fenced
// out — i.e. a member of the authoritative side. Requires viewMu.
func (cl *Cluster) repViewLocked() *memberView {
	for _, v := range cl.views {
		if v.quorum && !v.frozen {
			return v
		}
	}
	return cl.views[0]
}

// currentOwner returns the machine that owns an expert under the
// authoritative membership view.
func (cl *Cluster) currentOwner(expert int) int {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	return cl.repViewLocked().owner[expert]
}

// ownerFor returns the owner of an expert as machine m sees it — the
// view m's own pulls and pushes route by (a partitioned minority keeps
// its stale view, which is exactly what the epoch fence defends against).
func (cl *Cluster) ownerFor(m, expert int) int {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	return cl.views[m].owner[expert]
}

// OwnerView returns a copy of the authoritative expert→machine
// ownership view.
func (cl *Cluster) OwnerView() []int {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	return append([]int(nil), cl.repViewLocked().owner...)
}

// Epoch returns the authoritative membership epoch: it increments on
// every failover re-home and every rejoin reclaim.
func (cl *Cluster) Epoch() int {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	return int(cl.repViewLocked().epoch)
}

// isAlive reports the membership state of machine m under the
// authoritative view.
func (cl *Cluster) isAlive(m int) bool {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	return cl.repViewLocked().alive[m]
}

// AliveMachines returns how many machines the authoritative view
// considers alive.
func (cl *Cluster) AliveMachines() int {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	n := 0
	for _, a := range cl.repViewLocked().alive {
		if a {
			n++
		}
	}
	return n
}

// PartitionedMachines counts machines currently outside the
// authoritative side: without quorum in their own view, or frozen by
// the epoch fence. Zero in a healthy cluster.
func (cl *Cluster) PartitionedMachines() int {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	n := 0
	for _, v := range cl.views {
		if !v.quorum || v.frozen {
			n++
		}
	}
	return n
}

// machineRuns reports whether machine m's own view lets it compute this
// step. A machine fenced out of the cluster freezes; a machine that
// merely lost quorum keeps computing in degradation mode (its pushes
// are fenced on the wire, so it cannot corrupt the majority).
func (cl *Cluster) machineRuns(m int) bool {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	return !cl.views[m].frozen
}

// noteFenced records that one of machine m's requests was rejected with
// a stale epoch. Without readmission the cluster has moved on without
// us: freeze until the majority takes us back (reconcile, phase 2b).
// With readmission only the epoch is stale: catch up next round but
// keep computing.
func (cl *Cluster) noteFenced(m int, fe *transport.FencedEpochError) {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	if fe.Readmitted {
		cl.views[m].catch = true
	} else {
		cl.views[m].frozen = true
	}
}

// epochGate adapts machine m's membership view to the transport
// server's fencing hook.
type epochGate struct {
	cl *Cluster
	m  int
}

func (g *epochGate) Epoch() uint64 {
	g.cl.viewMu.Lock()
	defer g.cl.viewMu.Unlock()
	return g.cl.views[g.m].epoch
}

func (g *epochGate) MachineAlive(machine uint32) bool {
	g.cl.viewMu.Lock()
	defer g.cl.viewMu.Unlock()
	v := g.cl.views[g.m]
	if int(machine) >= len(v.alive) {
		return false
	}
	return v.alive[machine]
}

// mix64 is the splitmix64 finalizer — a cheap, seedable, well-mixed
// hash for rendezvous scoring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// rendezvousOwner picks the new owner of an expert among candidate
// machines by highest seeded rendezvous score. Every survivor computes
// the same answer from (seed, expert, candidates) alone — no
// coordination round needed — and removing a machine only moves the
// experts that machine owned (the rendezvous minimal-reshuffle
// property).
func rendezvousOwner(seed int64, expert int, candidates []int) int {
	best, bestScore := -1, uint64(0)
	for _, m := range candidates {
		h := mix64(uint64(seed)*0x9E3779B97F4A7C15 ^
			uint64(expert+1)*0xBF58476D1CE4E5B9 ^
			uint64(m+1)*0x94D049BB133111EB)
		if best == -1 || h > bestScore || (h == bestScore && m < best) {
			best, bestScore = m, h
		}
	}
	return best
}

// probeResult is one (src, dst) liveness probe's outcome.
type probeResult struct {
	ok         bool   // pong received
	fenced     bool   // typed stale-epoch rejection (the peer is up!)
	readmitted bool   // the peer's view has src alive
	epoch      uint64 // the peer's epoch, when a response carried one
}

// probe sends one liveness probe from src to dst. A fenced rejection is
// evidence of reachability — the peer answered — it just refuses to
// serve our epoch.
func (cl *Cluster) probe(ctx context.Context, src, dst int) probeResult {
	info, err := cl.clients[src].Ping(ctx, cl.addrs[dst])
	var fe *transport.FencedEpochError
	switch {
	case err == nil:
		return probeResult{ok: true, readmitted: info.Readmitted, epoch: info.Epoch}
	case errors.As(err, &fe):
		return probeResult{fenced: true, readmitted: fe.Readmitted, epoch: fe.RemoteEpoch}
	default:
		return probeResult{}
	}
}

// quorumFor reports whether machine m's probe row reaches a strict
// majority of the configured cluster: itself plus every peer that
// answered (pong or fence). An exact half is broken deterministically
// in favour of the side holding the lowest machine id, so an even split
// elects exactly one acting side with no coordination.
func (cl *Cluster) quorumFor(m int, row []probeResult) bool {
	M := len(row) // current membership size, including joined machines
	reach := 1
	minOwn, minOther := m, -1
	for t := 0; t < M; t++ {
		if t == m {
			continue
		}
		if row[t].ok || row[t].fenced {
			reach++
			if t < minOwn {
				minOwn = t
			}
		} else if minOther == -1 || t < minOther {
			minOther = t
		}
	}
	if 2*reach > M {
		return true
	}
	return 2*reach == M && (minOther == -1 || minOwn < minOther)
}

// heartbeatRound runs one membership round for the given step, in two
// phases:
//
//	Phase 1: every non-fenced machine probes every peer, all pairs
//	concurrently under one bounded, cancellable round context — a hung
//	peer costs the probe budget once, not once per pair, and can never
//	stall the round past it.
//
//	Phase 2a: per-machine transitions in ascending machine order. A
//	machine first checks its fences (a stale-epoch rejection without
//	readmission freezes it), then its quorum; only with quorum do its
//	dead-man clocks advance, peers fail over, and healed peers rejoin.
//	Without quorum the view is left exactly as it was — a minority
//	cannot fork ownership, it can only degrade.
//
//	Phase 2b: fenced and catch-up machines re-probe and reconcile —
//	after 2a, so a machine the majority readmitted this very round
//	adopts the post-rejoin epoch in the same round it healed.
func (cl *Cluster) heartbeatRound(step int) {
	cfg := cl.cfg
	deadman := cfg.DeadManSteps
	if deadman <= 0 {
		deadman = DefaultDeadManSteps
	}
	hbTimeout := cfg.HeartbeatTimeout
	if hbTimeout <= 0 {
		hbTimeout = DefaultHeartbeatTimeout
	}
	M := cl.numMachines() // joined machines heartbeat like everyone else

	cl.viewMu.Lock()
	sidelined := make([]bool, M) // frozen or catching up: handled in 2b
	for m, v := range cl.views {
		sidelined[m] = v.frozen || v.catch
	}
	cl.viewMu.Unlock()

	// Phase 1: concurrent all-pairs probes under one bounded context.
	res := make([][]probeResult, M)
	for m := range res {
		res[m] = make([]probeResult, M)
	}
	roundCtx, cancel := context.WithTimeout(context.Background(), hbTimeout)
	var wg sync.WaitGroup
	for src := 0; src < M; src++ {
		if sidelined[src] {
			continue
		}
		for dst := 0; dst < M; dst++ {
			if dst == src {
				continue
			}
			wg.Add(1)
			go func(src, dst int) {
				defer wg.Done()
				res[src][dst] = cl.probe(roundCtx, src, dst)
			}(src, dst)
		}
	}
	wg.Wait()
	cancel()

	// The checkpoint read is shared across every machine's transitions
	// this round (each would load the same committed version).
	var snap *checkpoint.Snapshot
	snapLoaded := false
	loadSnap := func() *checkpoint.Snapshot {
		if !snapLoaded {
			snapLoaded = true
			if cfg.CheckpointDir != "" {
				// The full CRC-verified restore path on purpose: a torn
				// or bit-flipped checkpoint is skipped here, not trusted.
				if s, _, err := checkpoint.LoadLatest(cfg.CheckpointDir); err == nil {
					snap = s
				}
			}
		}
		return snap
	}

	// Phase 2a: quorum-gated per-machine transitions, ascending order.
	for m := 0; m < M; m++ {
		if sidelined[m] {
			continue
		}
		fencedOut, catching := false, false
		for t := 0; t < M; t++ {
			if t == m || !res[m][t].fenced {
				continue
			}
			if res[m][t].readmitted {
				catching = true
			} else {
				fencedOut = true
			}
		}
		if fencedOut || catching {
			cl.viewMu.Lock()
			if fencedOut {
				cl.views[m].frozen = true
			} else {
				cl.views[m].catch = true
			}
			cl.viewMu.Unlock()
			sidelined[m] = true // reconcile below
			continue
		}
		if !cl.quorumFor(m, res[m]) {
			cl.viewMu.Lock()
			cl.views[m].quorum = false
			cl.viewMu.Unlock()
			cl.robust.AddQuorumStall()
			continue // minority: dead-man clocks freeze, nothing transitions
		}
		cl.viewMu.Lock()
		v := cl.views[m]
		v.quorum = true
		// Epoch adoption: a reachable peer with a newer epoch proves we
		// missed a transition; adopt it so our traffic stays unfenced.
		for t := 0; t < M; t++ {
			if t != m && res[m][t].ok && res[m][t].epoch > v.epoch {
				v.epoch = res[m][t].epoch
			}
		}
		epoch := v.epoch
		cl.viewMu.Unlock()
		cl.clients[m].SetEpoch(epoch)
		for t := 0; t < M; t++ {
			if t == m {
				continue
			}
			alive := func() bool {
				cl.viewMu.Lock()
				defer cl.viewMu.Unlock()
				return cl.views[m].alive[t]
			}()
			switch {
			case res[m][t].ok && !alive:
				cl.rejoinView(m, t, step)
			case res[m][t].ok:
				cl.viewMu.Lock()
				cl.views[m].missed[t] = 0
				cl.viewMu.Unlock()
			case alive:
				cl.viewMu.Lock()
				cl.views[m].missed[t]++
				dead := cl.views[m].missed[t] >= deadman
				cl.viewMu.Unlock()
				if dead {
					cl.failoverView(m, t, step, loadSnap())
				}
			}
		}
	}

	// Phase 2b: fenced / catch-up machines re-probe and reconcile.
	for m := 0; m < M; m++ {
		if sidelined[m] {
			cl.reconcile(m, hbTimeout)
		}
	}
}

// failoverView declares machine dead in m's view and re-homes the
// experts it owned under the canonical rule, restoring into m's own
// store every expert the rule assigns to m — from the freshest
// recoverable state, the newest of (last committed checkpoint, newest
// stale replica held by any survivor). An expert with no recoverable
// state anywhere keeps its dead owner in the view — pulls for it keep
// degrading exactly as under a transient outage, and it is reclaimed
// when (if ever) the machine rejoins. Each quorum machine runs the same
// pure recompute, so the survivors' views agree without a coordination
// round; the lowest alive machine records the cluster-level counters
// exactly once.
func (cl *Cluster) failoverView(m, dead, step int, snap *checkpoint.Snapshot) {
	cl.viewMu.Lock()
	v := cl.views[m]
	if !v.alive[dead] {
		cl.viewMu.Unlock()
		return
	}
	v.alive[dead] = false
	v.missed[dead] = 0
	var aliveList []int
	for mm, a := range v.alive {
		if a {
			aliveList = append(aliveList, mm)
		}
	}
	v.epoch++
	epoch := v.epoch
	var owned []int
	for e := 0; e < cl.cfg.NumExperts; e++ {
		if v.owner[e] == dead {
			owned = append(owned, e)
		}
	}
	cl.viewMu.Unlock()
	cl.clients[m].SetEpoch(epoch)
	recorder := len(aliveList) > 0 && aliveList[0] == m
	if recorder {
		cl.robust.AddFailover()
	}
	if len(aliveList) == 0 {
		return // nothing left to re-home onto
	}

	rehomed := 0
	maxAge := 0
	for _, e := range owned {
		// Lossless path first: promote a surviving in-sync replica — it
		// acked the dead owner's last merged version, so the run
		// continues with zero staleness. Quorum-gated like the rest of
		// this recompute and committed inside the epoch just fenced.
		if p := cl.promoteInSync(e, dead, step, aliveList, epoch); p >= 0 {
			cl.viewMu.Lock()
			v.owner[e] = p
			cl.viewMu.Unlock()
			rehomed++
			continue
		}

		cl.viewMu.Lock()
		next := cl.canonicalOwnerLocked(e, aliveList)
		// The lossy re-home may land on a machine anti-entropy drafted
		// into the replica set; ownership and backup must stay disjoint.
		cl.stripReplicaLocked(e, next)
		cl.viewMu.Unlock()

		// Pick the freshest recoverable copy of the expert's weights.
		var ex *moe.Expert
		srcStep := -1
		fromCkpt := false
		if snap != nil {
			if payload, ok := snap.Experts[uint32(e)]; ok {
				if dec, err := decodeExpert(payload); err == nil {
					ex, srcStep, fromCkpt = dec, snap.Step, true
				}
			}
		}
		cl.staleMu.Lock()
		for _, s := range aliveList {
			if ent, ok := cl.stale[s][e]; ok && ent.step > srcStep {
				ex, srcStep, fromCkpt = ent.ex.Clone(), ent.step, false
			}
		}
		cl.staleMu.Unlock()
		if ex == nil {
			continue // unrecoverable: no durable copy and no replica
		}
		cl.viewMu.Lock()
		v.owner[e] = next
		cl.viewMu.Unlock()
		rehomed++
		if next != m {
			continue // the new owner installs when it processes the loss
		}
		if fromCkpt {
			cl.robust.AddRestore()
		}
		if age := step - srcStep; age > maxAge {
			maxAge = age
		}
		id := transport.ExpertID{Expert: uint32(e)}
		cl.stores[m].dropReplica(id) // owning supersedes backing up
		if cl.train != nil {
			// During training the re-homed weights stand in for the
			// version pulls of step `step` expect (the pre-step state),
			// so parked pullers resume deterministically.
			cl.stores[m].installAt(id, ex, uint64(step-1))
		} else {
			cl.stores[m].install(id, ex)
		}
	}
	if recorder && rehomed > 0 {
		cl.robust.AddRehomedExperts(int64(rehomed))
	}
	if maxAge > 0 {
		cl.viewMu.Lock()
		if maxAge > cl.pendingStaleness {
			cl.pendingStaleness = maxAge
		}
		cl.viewMu.Unlock()
	}
}

// rejoinView marks machine t alive again in m's view and hands the
// canonical owners their experts back: for each expert m interim-owned,
// m installs its live object into the new owner's store — the heal-time
// re-sync, so a machine returning from a partition adopts the
// majority's current weights rather than serving its frozen
// pre-partition copies — and drops its own.
func (cl *Cluster) rejoinView(m, t, step int) {
	cl.viewMu.Lock()
	v := cl.views[m]
	if v.alive[t] {
		cl.viewMu.Unlock()
		return
	}
	v.alive[t] = true
	v.missed[t] = 0
	var aliveList []int
	for mm, a := range v.alive {
		if a {
			aliveList = append(aliveList, mm)
		}
	}
	v.epoch++
	epoch := v.epoch
	type move struct{ e, from, to int }
	var moves []move
	for e := 0; e < cl.cfg.NumExperts; e++ {
		next := cl.canonicalOwnerLocked(e, aliveList)
		if v.owner[e] != next {
			moves = append(moves, move{e, v.owner[e], next})
			v.owner[e] = next
			// A reclaiming home owner may sit in the replica set it was
			// drafted into while it did not own the expert; strip it so
			// ownership and backup stay disjoint.
			cl.stripReplicaLocked(e, next)
		}
	}
	cl.viewMu.Unlock()
	cl.clients[m].SetEpoch(epoch)
	for _, mv := range moves {
		if mv.from != m {
			continue // that interim owner hands off in its own view
		}
		id := transport.ExpertID{Expert: uint32(mv.e)}
		if ex, ok := cl.stores[m].get(id); ok && cl.stores[mv.to] != cl.stores[m] {
			if cl.train != nil {
				cl.stores[mv.to].installAt(id, ex, uint64(step-1))
			} else {
				cl.stores[mv.to].install(id, ex)
			}
		}
		cl.stores[mv.to].dropReplica(id) // owning supersedes backing up
		cl.stores[m].remove(id)
	}
	if aliveList[0] == m && len(moves) > 0 {
		cl.robust.AddRehomedExperts(int64(len(moves)))
	}
}

// reconcile is the heal path of a fenced or catch-up machine: re-probe
// every peer with the stale epoch and, if the majority has readmitted
// us (a pong, or a fence carrying the readmitted flag) and a quorum
// answers, adopt the highest observed epoch, rebuild the membership
// view memorylessly from the canonical rule, and resume. Otherwise stay
// frozen — the majority has moved on and not yet taken us back.
func (cl *Cluster) reconcile(m int, hbTimeout time.Duration) {
	M := cl.numMachines()
	row := make([]probeResult, M)
	ctx, cancel := context.WithTimeout(context.Background(), hbTimeout)
	var wg sync.WaitGroup
	for t := 0; t < M; t++ {
		if t == m {
			continue
		}
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			row[t] = cl.probe(ctx, m, t)
		}(t)
	}
	wg.Wait()
	cancel()

	readmitted := false
	var maxEpoch uint64
	for t := 0; t < M; t++ {
		if t == m {
			continue
		}
		if row[t].ok || (row[t].fenced && row[t].readmitted) {
			readmitted = true
		}
		if (row[t].ok || row[t].fenced) && row[t].epoch > maxEpoch {
			maxEpoch = row[t].epoch
		}
	}
	if !readmitted || !cl.quorumFor(m, row) {
		cl.viewMu.Lock()
		cl.views[m].quorum = false
		cl.viewMu.Unlock()
		cl.robust.AddQuorumStall()
		return
	}
	cl.viewMu.Lock()
	v := cl.views[m]
	// Prefer adopting an answering authoritative peer's view wholesale
	// (its pong conceptually carries the membership snapshot, exactly
	// like an ADMIT). Rebuilding liveness from this one probe round
	// can demote a peer the majority still holds inside its dead-man
	// budget — same epoch, different owners: an ownership fork the
	// churn property test pins. Only when no authoritative peer at the
	// adopted epoch answered do we fall back to the memoryless
	// recompute from our own probes.
	var donor *memberView
	for t := 0; t < M; t++ {
		if t == m || !(row[t].ok || row[t].fenced) {
			continue
		}
		dv := cl.views[t]
		if dv.quorum && !dv.frozen && !dv.catch && dv.epoch == maxEpoch && dv.epoch >= v.epoch {
			donor = dv
			break
		}
	}
	if donor != nil {
		v.epoch = donor.epoch
		copy(v.alive, donor.alive)
		copy(v.missed, donor.missed)
		copy(v.owner, donor.owner)
		v.alive[m] = true
		v.missed[m] = 0
	} else {
		if maxEpoch > v.epoch {
			v.epoch = maxEpoch
		}
		for t := 0; t < M; t++ {
			v.alive[t] = t == m || row[t].ok || row[t].fenced
			v.missed[t] = 0
		}
		var aliveList []int
		for mm, a := range v.alive {
			if a {
				aliveList = append(aliveList, mm)
			}
		}
		for e := 0; e < cl.cfg.NumExperts; e++ {
			v.owner[e] = cl.canonicalOwnerLocked(e, aliveList)
		}
	}
	v.frozen = false
	v.catch = false
	v.quorum = true
	epoch := v.epoch
	cl.viewMu.Unlock()
	cl.clients[m].SetEpoch(epoch)
}

// maybeCheckpoint commits a crash-consistent snapshot after the given
// step when checkpointing is configured and the step hits the cadence.
// The snapshot covers every expert whose owner is alive (a shard that
// died with its owner has nothing current to persist), the dense gate
// parameters, and the step counter.
func (cl *Cluster) maybeCheckpoint(step int) error {
	dir := cl.cfg.CheckpointDir
	if dir == "" {
		return nil
	}
	every := cl.cfg.CheckpointEvery
	if every < 1 {
		every = 1
	}
	if step%every != 0 {
		return nil
	}
	start := time.Now()
	snap := &checkpoint.Snapshot{
		Step:    step,
		Experts: make(map[uint32][]byte, cl.cfg.NumExperts),
		Dense:   encodeMatrix(cl.layer.Gate.W),
	}
	for e := 0; e < cl.cfg.NumExperts; e++ {
		owner := cl.currentOwner(e)
		if !cl.isAlive(owner) {
			continue
		}
		if ex, ok := cl.stores[owner].get(transport.ExpertID{Expert: uint32(e)}); ok {
			snap.Experts[uint32(e)] = encodeExpert(ex)
		}
	}
	bytes, err := checkpoint.Save(dir, snap)
	if err != nil {
		return fmt.Errorf("livecluster: checkpoint step %d: %w", step, err)
	}
	cl.robust.AddCheckpoint(bytes, time.Since(start).Nanoseconds())
	keep := cl.cfg.CheckpointKeep
	if keep < 1 {
		keep = DefaultCheckpointKeep
	}
	if err := checkpoint.Prune(dir, keep); err != nil {
		return fmt.Errorf("livecluster: checkpoint prune: %w", err)
	}
	return nil
}

// encodeMatrix serialises an arbitrary matrix (the dense-parameter
// entry of a checkpoint) as rows, cols, then little-endian float32s.
func encodeMatrix(m *tensor.Matrix) []byte {
	buf := make([]byte, 8+4*len(m.Data))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(m.Rows))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(m.Cols))
	transport.PutFloat32s(buf[8:], m.Data)
	return buf
}

// Package livecluster runs a real (non-simulated) miniature Janus
// deployment: every worker is a goroutine with actual expert weights,
// every machine runs a transport.Server on a loopback TCP port, and one
// training iteration moves real bytes through the §6 pull protocol.
//
// It exists to demonstrate, end to end and with measured wire traffic,
// the two claims the flow-level simulator takes as premises:
//
//  1. the data-centric paradigm computes exactly what the
//     expert-centric paradigm computes (outputs compared numerically);
//  2. with the hierarchical Cache-Manager fetch, the bytes crossing
//     "machine" boundaries shrink by the paper's R factor relative to
//     token exchange.
//
// Scale is laptop-sized (a few workers, small H); the protocol and
// bookkeeping are the real thing.
package livecluster

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"janus/internal/faultinject"
	"janus/internal/metrics"
	"janus/internal/moe"
	"janus/internal/tensor"
	"janus/internal/transport"
)

// Config shapes a live cluster.
type Config struct {
	Machines        int // number of simulated "machines" (one server each)
	WorkersPerNode  int
	NumExperts      int // experts in the single MoE layer
	TopK            int
	Hidden          int // H
	TokensPerWorker int
	Seed            int64
	Credits         int // client in-flight pull window

	// InitialOwners, when non-nil, places each expert on a specific
	// machine at Start instead of the balanced contiguous home split —
	// the shape a cluster restarted after live migrations is in. Length
	// must be NumExperts; every entry must name a configured machine.
	// Placements that differ from an expert's home machine persist as
	// migration overrides, exactly as if MigrateExpert had moved them.
	InitialOwners []int

	// Robustness knobs (all optional; zero values give the previous
	// fail-fast behaviour with the transport's default retry budget).

	// Injector, when set, wraps every machine's listener and every
	// client dial so failure scenarios can be injected; machine m's
	// endpoints carry the label MachineLabel(m).
	Injector *faultinject.Injector
	// PullTimeout bounds each pull/push attempt (0 = transport default).
	PullTimeout time.Duration
	// PullRetries is the attempt budget per pull/push (0 = transport
	// default).
	PullRetries int
	// RetryBackoff is the base retry delay (0 = transport default).
	RetryBackoff time.Duration
	// StaleFallback enables §5.1.2-style graceful degradation: when an
	// expert's owner stays unreachable past the retry budget, serve the
	// last locally cached version of that expert instead of aborting
	// the iteration, and drop (rather than fail on) unreachable
	// gradient pushes. Recovery is automatic: the next iteration
	// re-pulls from the owner and refreshes the cache.
	StaleFallback bool

	// Permanent-failure knobs (see failover.go). All optional: with
	// FailoverEnabled false the cluster behaves exactly as before.

	// FailoverEnabled turns on heartbeat membership: every step, alive
	// machines probe each other over the transport; a machine missing
	// DeadManSteps consecutive rounds is declared dead and its experts
	// are deterministically re-homed onto survivors. A machine that
	// answers again rejoins and reclaims its home experts.
	FailoverEnabled bool
	// DeadManSteps is the consecutive-miss budget before a machine is
	// declared dead (0 = DefaultDeadManSteps).
	DeadManSteps int
	// HeartbeatTimeout bounds one liveness probe (0 = default).
	HeartbeatTimeout time.Duration
	// CheckpointDir enables crash-consistent checkpoints of expert
	// weights, dense params, and the step counter ("" = disabled).
	// Failover restores a dead owner's experts from the freshest of
	// (latest checkpoint, newest surviving stale replica).
	CheckpointDir string
	// CheckpointEvery is the step cadence of checkpoints (0 = every
	// step when CheckpointDir is set).
	CheckpointEvery int
	// CheckpointKeep is how many committed versions to retain
	// (0 = DefaultCheckpointKeep).
	CheckpointKeep int

	// Partition-tolerance knobs (see failover.go). With failover on,
	// membership is quorum-gated and every request is epoch-fenced by
	// default; these knobs tune or disable the protections.

	// FencingDisabled turns off the wire-level epoch fence (requests
	// from machines with a stale membership epoch are then accepted).
	// Exists for the split-brain differential experiment; leave false.
	FencingDisabled bool
	// SlowAfter is the per-peer EWMA latency threshold past which a
	// peer is flagged as a gray failure (0 = never flag); the pipelined
	// trainer shrinks its cross-step window while a peer is flagged.
	SlowAfter time.Duration

	// Synchronous-replication knobs (see replication.go). All optional:
	// with Replicas 0 the cluster behaves exactly as before.

	// Replicas is the synchronous replication factor: each replicated
	// expert keeps this many in-sync copies on machines other than its
	// owner, streamed the owner's versioned post-merge weights (acked,
	// epoch-fenced) at every step barrier. Failover promotes an in-sync
	// replica losslessly; failed pulls fall back to an in-sync replica
	// without staleness accounting.
	Replicas int
	// ReplicateTop restricts replication to the N hottest experts by
	// routed-token count (0 = replicate every expert).
	ReplicateTop int
	// ReplWindow bounds in-flight replica streams per sync round, so
	// replication lag is capped and observable (0 = DefaultReplWindow).
	ReplWindow int
	// AntiEntropyEvery is the step cadence of the anti-entropy repair
	// sweep (0 = DefaultAntiEntropyEvery).
	AntiEntropyEvery int
}

// MachineLabel is the fault-injection label of machine m's endpoints.
func MachineLabel(m int) string { return fmt.Sprintf("m%d", m) }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Machines < 1 || c.WorkersPerNode < 1:
		return fmt.Errorf("livecluster: need at least one machine and worker")
	case c.NumExperts < c.Machines:
		// The balanced contiguous home split places experts without any
		// divisibility requirement (joins and migrations make counts
		// uneven anyway), but fewer experts than machines would leave
		// seed-time machines empty-handed.
		return fmt.Errorf("livecluster: %d experts cannot cover %d machines",
			c.NumExperts, c.Machines)
	case c.TopK < 1 || c.TopK > c.NumExperts:
		return fmt.Errorf("livecluster: topK %d out of range", c.TopK)
	case c.Hidden < 1 || c.TokensPerWorker < 1:
		return fmt.Errorf("livecluster: non-positive shape")
	case c.DeadManSteps < 0 || c.CheckpointEvery < 0 || c.CheckpointKeep < 0:
		return fmt.Errorf("livecluster: negative failover/checkpoint knob")
	case c.Replicas < 0 || c.ReplicateTop < 0 || c.ReplWindow < 0 || c.AntiEntropyEvery < 0:
		return fmt.Errorf("livecluster: negative replication knob")
	case c.Replicas >= c.Machines:
		// Replica sets are owner-disjoint, so the factor must leave at
		// least one machine besides the owner per replica copy.
		return fmt.Errorf("livecluster: replication factor %d needs more than %d machines",
			c.Replicas, c.Machines)
	}
	if c.InitialOwners != nil {
		// Validated against the ownership map, not a divisibility rule:
		// a cluster restarted after joins and migrations legitimately
		// carries uneven per-machine expert counts.
		if len(c.InitialOwners) != c.NumExperts {
			return fmt.Errorf("livecluster: %d initial owners for %d experts",
				len(c.InitialOwners), c.NumExperts)
		}
		for e, m := range c.InitialOwners {
			if m < 0 || m >= c.Machines {
				return fmt.Errorf("livecluster: expert %d placed on unknown machine %d", e, m)
			}
		}
	}
	return nil
}

func (c Config) numWorkers() int { return c.Machines * c.WorkersPerNode }

// staleEntry is one machine's last successfully fetched copy of an
// external expert, with the step of that fetch.
type staleEntry struct {
	ex      *moe.Expert
	payload []byte   // wire bytes ex was decoded from
	spares  [][]byte // retired payload buffers, reused as pull destinations
	step    int
}

// Cluster is a running live deployment.
type Cluster struct {
	cfg     Config
	layer   *moe.Layer
	servers []*transport.Server
	stores  []*machineStore
	addrs   []string
	clients []*transport.Client // one per machine (the Inter-Node Scheduler's)

	degradedTotal int // training steps completed in degraded mode

	// Per-worker static state, built once at Start: the deterministic
	// token batches, their gate routing, the derived per-expert /
	// per-token index, and the pre-gathered expert input slices. The
	// gate never changes between iterations, so recomputing any of this
	// per step would do identical work (fast path of ISSUE 3).
	xs       []*tensor.Matrix
	routings []moe.Routing
	rindex   []*routeIndex
	xes      [][]*tensor.Matrix // worker -> expert -> gathered token rows
	needs    [][]int            // machine -> union of routed experts, ascending
	needIdx  [][]int32          // machine -> expert -> index in needs[m], -1 absent

	// loadTotals precomputes, per machine, the total tokens each needed
	// expert receives across the machine's workers, so the per-step
	// popularity recording is one add per (machine, expert) instead of a
	// workers × needed map walk.
	loadTotals [][]loadCount

	// staleInPlace permits decoding a pulled expert into the previous
	// stale copy's matrices instead of allocating fresh ones. Only safe
	// when nothing else can alias the cached object: failover restore
	// and migration RELEASE both seed stale/replica entries that share
	// experts, so the gate is computed once at Start from the config.
	staleInPlace bool

	staleMu sync.Mutex
	stale   []map[int]*staleEntry // per machine: expert -> last good copy

	// robust counts cluster-level events (failovers, re-homed experts,
	// checkpoint saves/restores); client-side counters live on the
	// transport clients and both are summed into snapshots.
	robust metrics.Robustness

	// Membership views, one per machine (guarded by viewMu; see
	// failover.go): under a partition the sides legitimately disagree,
	// and the quorum rule decides which side may act on its view.
	viewMu           sync.Mutex
	views            []*memberView
	pendingStaleness int // staleness of replica-recovered experts, folded into the next TrainResult

	// overrides pins migrated experts to their new owners (guarded by
	// viewMu; see elastic.go): expert -> machine, consulted by the
	// canonical ownership recompute ahead of the home assignment. An
	// override only mutates inside the migration fence's critical
	// section, where every authoritative view transitions atomically.
	overrides map[int]int

	// load counts routed tokens per expert across executed steps — the
	// popularity signal the rebalancer plans migrations from.
	load *metrics.ExpertLoad

	// Synchronous-replication state (see replication.go). replicas maps
	// each replicated expert to its replica machines (ascending, never
	// containing the owner); guarded by viewMu so the migration FENCE
	// and failover promotion retarget a set atomically with the
	// ownership flip. promotions records every in-sync promotion for
	// the ViewConsistency invariant.
	replicas       map[int][]int
	replicaPlanned bool
	promotions     []promotionRecord

	// replAcked tracks owner-side, per expert, the newest version each
	// replica machine has acked — the sync loop's skip signal. Guarded
	// by replMu (leaf lock: never held across store or view locks).
	replMu    sync.Mutex
	replAcked map[int]map[int]uint64

	// migrateAbandon, when set (tests only), is consulted after each
	// migration phase completes; returning true abandons the handoff
	// there, simulating a driver crash mid-migration.
	migrateAbandon func(phase int) bool

	// train is the pipelined trainer's state (nil until Train runs).
	train *trainState
}

// encEntry is one memoized wire encoding of a hosted expert, refcounted
// so its buffer returns to the store's freelist only after every
// transport handler that was serving it finished copying it to the
// wire. refs counts handed-out references; dead marks an encoding a
// merge or install superseded while references were still out.
type encEntry struct {
	buf  []byte
	refs int32
	dead bool
}

// machineStore hosts the experts owned by one machine's workers and
// accumulates gradients pushed back to them.
type machineStore struct {
	mu      sync.Mutex
	cond    *sync.Cond // broadcast on version advance / install / remove / abort
	experts map[transport.ExpertID]*moe.Expert

	// Serving-encoding memo (refcounted; see encRefLocked). encByPtr
	// maps a live buffer's first byte back to its entry so the
	// transport's release carries no extra bookkeeping; encFree and
	// entFree recycle buffers and entry headers (every hosted expert
	// encodes to the same size, so any free buffer fits).
	enc      map[transport.ExpertID]*encEntry
	encByPtr map[*byte]*encEntry
	encFree  [][]byte
	entFree  []*encEntry

	h int

	// Versioned-training state (see train.go; zero until enableTraining).
	trainOn      bool
	countTrigger bool
	aborted      bool
	lr           float32
	expect       [][]int   // shared: expert index -> ascending contributor machines
	expectIdx    [][]int32 // shared: expert -> machine -> position in expect, -1 absent
	ver          map[transport.ExpertID]uint64
	pending      map[transport.ExpertID][]*pendingMerge
	sorted       []transport.ExpertID // hosted ids ascending; nil after hosting changes
	pipe         *metrics.Pipeline

	// staged holds expert weights delivered by a migration's TRANSFER
	// phase, inert until the handoff's COMMIT installs them (elastic.go).
	staged map[transport.ExpertID]*stagedExpert

	// replicas holds in-sync copies of experts this machine replicates
	// but does not own, applied whole from REPL streams (replication.go;
	// lazily allocated so every store constructor stays replica-ready).
	replicas map[transport.ExpertID]*replicaEntry

	// serveDelay (nanoseconds) injects compute slowness into the serving
	// path; the deadline tests set it (export_test.go).
	serveDelay atomic.Int64
}

// encRefLocked returns the memoized serving encoding for a hosted
// expert, encoding into a recycled buffer on a miss, and takes one
// reference on it. Its caller is the transport-facing serve path
// (ExpertBytesAt): the transport pairs each with exactly one
// ReleaseExpertBytes once the bytes are on the wire. Expert weights
// only change through install/remove/merge (which drop the memo), so
// repeated pulls of the same version reuse one encoding.
func (s *machineStore) encRefLocked(id transport.ExpertID, e *moe.Expert) []byte {
	ent := s.enc[id]
	if ent == nil {
		var buf []byte
		if n := len(s.encFree); n > 0 {
			buf = s.encFree[n-1]
			s.encFree = s.encFree[:n-1]
		}
		buf = encodeExpertInto(buf, e)
		if n := len(s.entFree); n > 0 {
			ent = s.entFree[n-1]
			s.entFree = s.entFree[:n-1]
		} else {
			ent = new(encEntry)
		}
		ent.buf, ent.refs, ent.dead = buf, 0, false
		s.enc[id] = ent
		if s.encByPtr == nil {
			s.encByPtr = make(map[*byte]*encEntry)
		}
		s.encByPtr[&buf[0]] = ent
	}
	ent.refs++
	return ent.buf
}

// ReleaseExpertBytes implements transport.BytesReleaser: called exactly
// once per successfully answered pull, after the payload was copied to
// the wire. The last release of a superseded encoding recycles it.
func (s *machineStore) ReleaseExpertBytes(id transport.ExpertID, b []byte) {
	if len(b) == 0 {
		return
	}
	s.mu.Lock()
	if ent := s.encByPtr[&b[0]]; ent != nil {
		ent.refs--
		if ent.refs == 0 && ent.dead {
			s.recycleEncLocked(ent)
		}
	}
	s.mu.Unlock()
}

// invalidateEncLocked drops id's memoized encoding: the next serve
// re-encodes. A buffer still referenced by in-flight serves is marked
// dead and recycled by its last release instead.
func (s *machineStore) invalidateEncLocked(id transport.ExpertID) {
	ent := s.enc[id]
	if ent == nil {
		return
	}
	delete(s.enc, id)
	if ent.refs > 0 {
		ent.dead = true
		return
	}
	s.recycleEncLocked(ent)
}

func (s *machineStore) recycleEncLocked(ent *encEntry) {
	delete(s.encByPtr, &ent.buf[0])
	s.encFree = append(s.encFree, ent.buf)
	ent.buf = nil
	ent.dead = false
	s.entFree = append(s.entFree, ent)
}

// expertBytesCopy returns a freshly allocated encoding of the hosted
// expert — for callers that keep the bytes (snapshots, state dumps)
// and must not touch the refcounted serving memo.
func (s *machineStore) expertBytesCopy(id transport.ExpertID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.experts[id]
	if !ok {
		return nil, fmt.Errorf("livecluster: expert %v not hosted", id)
	}
	return encodeExpert(e), nil
}

// get returns the hosted expert, if any.
func (s *machineStore) get(id transport.ExpertID) (*moe.Expert, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.experts[id]
	return e, ok
}

// install hosts (or replaces) an expert — the failover re-home path.
func (s *machineStore) install(id transport.ExpertID, e *moe.Expert) {
	s.mu.Lock()
	s.experts[id] = e
	s.invalidateEncLocked(id)
	s.sorted = nil
	if s.trainOn {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// remove stops hosting an expert — the rejoin reclaim path.
func (s *machineStore) remove(id transport.ExpertID) {
	s.mu.Lock()
	delete(s.experts, id)
	s.invalidateEncLocked(id)
	s.sorted = nil
	if s.trainOn {
		s.releasePendingLocked(id)
		s.cond.Broadcast() // wake version waiters into the not-hosted error
	}
	s.mu.Unlock()
}

// encodeExpert serialises expert weights as little-endian float32s:
// W1 then W2. decodeExpert reverses it.
func encodeExpert(e *moe.Expert) []byte {
	return encodeExpertInto(nil, e)
}

// encodeExpertInto is encodeExpert writing into buf, grown only when
// too small — the zero-allocation serve path.
func encodeExpertInto(buf []byte, e *moe.Expert) []byte {
	n1, n2 := len(e.W1.Data), len(e.W2.Data)
	need := 8 + 4*(n1+n2)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(e.W1.Rows))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(e.W1.Cols))
	transport.PutFloat32s(buf[8:], e.W1.Data)
	transport.PutFloat32s(buf[8+4*n1:], e.W2.Data)
	return buf
}

func decodeExpert(buf []byte) (*moe.Expert, error) {
	return decodeExpertInto(nil, buf)
}

// decodeExpertInto is decodeExpert reusing dst's matrices when it has
// the payload's shape (allocating fresh ones otherwise). The payload is
// fully validated before dst is touched, so a bad payload never leaves
// dst half-written.
func decodeExpertInto(dst *moe.Expert, buf []byte) (*moe.Expert, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("livecluster: expert payload too short")
	}
	rows := int(binary.LittleEndian.Uint32(buf[0:4]))
	cols := int(binary.LittleEndian.Uint32(buf[4:8]))
	if rows <= 0 || cols != 4*rows {
		return nil, fmt.Errorf("livecluster: bad expert shape %dx%d", rows, cols)
	}
	n1 := rows * cols
	n2 := n1
	if len(buf) != 8+4*(n1+n2) {
		return nil, fmt.Errorf("livecluster: expert payload %d bytes, want %d", len(buf), 8+4*(n1+n2))
	}
	e := dst
	if e == nil || e.W1.Rows != rows || e.W1.Cols != cols {
		e = &moe.Expert{W1: tensor.New(rows, cols), W2: tensor.New(cols, rows)}
	}
	transport.Float32s(e.W1.Data, buf[8:])
	transport.Float32s(e.W2.Data, buf[8+4*n1:])
	return e, nil
}

// routeIndex is one worker's routing, inverted for the microbatch plan:
// which tokens each expert sees and, per token, its combine terms in
// ascending-expert order — the exact summation order of the reference
// combine loop, so outputs stay bit-identical.
type routeIndex struct {
	tokens  [][]int      // expert -> routed tokens, ascending
	byToken [][]combTerm // token -> combine terms, ascending expert
	needed  []int        // experts with at least one token, ascending
}

// combTerm is one (expert output row × weight) contribution to a token.
type combTerm struct {
	expert int
	row    int // row of this token in the expert's gathered batch
	weight float32
}

// buildRouteIndex inverts one worker's routing decision.
func buildRouteIndex(numExperts int, r moe.Routing) *routeIndex {
	ri := &routeIndex{
		tokens:  make([][]int, numExperts),
		byToken: make([][]combTerm, len(r.Experts)),
	}
	rowOf := make([]map[int]int, numExperts)
	for t, experts := range r.Experts {
		for _, e := range experts {
			if rowOf[e] == nil {
				rowOf[e] = make(map[int]int)
			}
			rowOf[e][t] = len(ri.tokens[e])
			ri.tokens[e] = append(ri.tokens[e], t)
		}
	}
	for e := 0; e < numExperts; e++ {
		if len(ri.tokens[e]) > 0 {
			ri.needed = append(ri.needed, e)
		}
	}
	for t, experts := range r.Experts {
		terms := make([]combTerm, 0, len(experts))
		// Ascending expert order fixes the summation order (the
		// reference loop scans experts 0..E-1 per token).
		for _, e := range ri.needed {
			for k, te := range experts {
				if te == e {
					terms = append(terms, combTerm{expert: e, row: rowOf[e][t], weight: r.Weights[t][k]})
				}
			}
		}
		ri.byToken[t] = terms
	}
	return ri
}

// Start builds the layer, partitions experts over machines, and brings
// up one TCP server per machine on loopback.
func Start(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	layer := moe.NewLayer(cfg.Hidden, cfg.NumExperts, cfg.TopK, cfg.Seed)
	cl := &Cluster{
		cfg:       cfg,
		layer:     layer,
		overrides: make(map[int]int),
		replicas:  make(map[int][]int),
		replAcked: make(map[int]map[int]uint64),
	}
	cl.load = metrics.NewExpertLoad(cfg.NumExperts)
	// Seed-time placement: the balanced contiguous home split, unless
	// InitialOwners pins experts elsewhere (the restart-after-migration
	// shape); off-home placements persist as migration overrides.
	owner0 := make([]int, cfg.NumExperts)
	for e := range owner0 {
		owner0[e] = cl.homeMachine(e)
		if cfg.InitialOwners != nil && cfg.InitialOwners[e] != owner0[e] {
			owner0[e] = cfg.InitialOwners[e]
			cl.overrides[e] = owner0[e]
		}
	}
	for m := 0; m < cfg.Machines; m++ {
		store := &machineStore{
			experts: make(map[transport.ExpertID]*moe.Expert),
			enc:     make(map[transport.ExpertID]*encEntry),
			h:       cfg.Hidden,
		}
		store.cond = sync.NewCond(&store.mu)
		for e := 0; e < cfg.NumExperts; e++ {
			if owner0[e] == m {
				store.experts[transport.ExpertID{Expert: uint32(e)}] = layer.Experts[e]
			}
		}
		srv := transport.NewServer(store)
		addr, err := cl.startServer(srv, m)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.stores = append(cl.stores, store)
		cl.servers = append(cl.servers, srv)
		cl.addrs = append(cl.addrs, addr)
		cl.clients = append(cl.clients, cl.newClient(m))
		cl.stale = append(cl.stale, make(map[int]*staleEntry))
	}
	cl.views = make([]*memberView, cfg.Machines)
	for m := range cl.views {
		v := &memberView{
			self:   m,
			alive:  make([]bool, cfg.Machines),
			missed: make([]int, cfg.Machines),
			owner:  make([]int, cfg.NumExperts),
			quorum: true,
		}
		for i := range v.alive {
			v.alive[i] = true
		}
		copy(v.owner, owner0)
		cl.views[m] = v
	}
	for m, srv := range cl.servers {
		srv.SetJoinHandler(&joinGate{cl: cl, m: m})
	}
	if cfg.FailoverEnabled && !cfg.FencingDisabled {
		// Epoch fencing on the wire: each server rejects requests whose
		// membership epoch lags its own machine's view, so a zombie
		// ex-owner's pushes can never be merged after failover.
		for m, srv := range cl.servers {
			srv.SetEpochGate(&epochGate{cl: cl, m: m})
		}
	}

	// Precompute everything that is invariant across iterations: token
	// batches, routing, its inverted index, the gathered per-expert
	// inputs, and each machine's union of routed experts.
	cl.xs = cl.workerTokens()
	cl.routings = make([]moe.Routing, len(cl.xs))
	cl.rindex = make([]*routeIndex, len(cl.xs))
	cl.xes = make([][]*tensor.Matrix, len(cl.xs))
	for w, x := range cl.xs {
		cl.routings[w] = layer.Gate.Assign(x)
		ri := buildRouteIndex(cfg.NumExperts, cl.routings[w])
		cl.rindex[w] = ri
		cl.xes[w] = make([]*tensor.Matrix, cfg.NumExperts)
		for _, e := range ri.needed {
			xe := tensor.New(len(ri.tokens[e]), cfg.Hidden)
			for i, t := range ri.tokens[e] {
				xe.CopyRow(i, x, t)
			}
			cl.xes[w][e] = xe
		}
	}
	cl.needs = make([][]int, cfg.Machines)
	for m := 0; m < cfg.Machines; m++ {
		seen := make([]bool, cfg.NumExperts)
		for lw := 0; lw < cfg.WorkersPerNode; lw++ {
			for _, e := range cl.rindex[m*cfg.WorkersPerNode+lw].needed {
				seen[e] = true
			}
		}
		for e, s := range seen {
			if s {
				cl.needs[m] = append(cl.needs[m], e)
			}
		}
	}
	cl.needIdx = make([][]int32, cfg.Machines)
	for m := range cl.needIdx {
		row := make([]int32, cfg.NumExperts)
		for i := range row {
			row[i] = -1
		}
		for i, e := range cl.needs[m] {
			row[e] = int32(i)
		}
		cl.needIdx[m] = row
	}
	cl.loadTotals = make([][]loadCount, cfg.Machines)
	for m := 0; m < cfg.Machines; m++ {
		totals := make([]loadCount, 0, len(cl.needs[m]))
		for _, e := range cl.needs[m] {
			var n int64
			for lw := 0; lw < cfg.WorkersPerNode; lw++ {
				n += int64(len(cl.rindex[m*cfg.WorkersPerNode+lw].tokens[e]))
			}
			if n > 0 {
				totals = append(totals, loadCount{e: int32(e), n: n})
			}
		}
		cl.loadTotals[m] = totals
	}
	// In-place reuse of cached pulled experts is only safe when no
	// failover/checkpoint/migration path can alias the cached object.
	cl.staleInPlace = !cfg.FailoverEnabled && cfg.CheckpointDir == ""
	return cl, nil
}

// loadCount is one precomputed (expert, routed tokens) total.
type loadCount struct {
	e int32
	n int64
}

// startServer brings up machine m's pull server, routing through the
// fault injector when one is configured.
func (cl *Cluster) startServer(srv *transport.Server, m int) (string, error) {
	if cl.cfg.Injector == nil {
		return srv.Start("127.0.0.1:0")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("livecluster: listen: %w", err)
	}
	return srv.StartListener(cl.cfg.Injector.WrapListener(ln, MachineLabel(m)))
}

// newClient builds machine m's transport client with the configured
// robustness knobs; dials are wrapped by the injector under the
// machine's own label so client-side faults can also be targeted.
func (cl *Cluster) newClient(m int) *transport.Client {
	cfg := cl.cfg
	opts := transport.Options{
		Credits:        cfg.Credits,
		RequestTimeout: cfg.PullTimeout,
		MaxAttempts:    cfg.PullRetries,
		BackoffBase:    cfg.RetryBackoff,
		Seed:           cfg.Seed + int64(m),
		MachineID:      uint32(m),
		SlowAfter:      cfg.SlowAfter,
	}
	if inj := cfg.Injector; inj != nil {
		label := MachineLabel(m) + ".client"
		src := MachineLabel(m)
		timeout := cfg.PullTimeout
		if timeout <= 0 {
			timeout = transport.DefaultRequestTimeout
		}
		opts.Dial = func(addr string) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			// Pair-wrapped so directional rules (one-way partitions)
			// can match the src→dst direction of this dial.
			if dst := cl.machineOfAddr(addr); dst >= 0 {
				return inj.WrapConnPair(conn, label, src, MachineLabel(dst)), nil
			}
			return inj.WrapConn(conn, label), nil
		}
	}
	return transport.NewClientOptions(opts)
}

// machineOfAddr maps a server address back to its machine index (-1 if
// unknown). Addresses are fixed once Start returns, and dials only
// happen afterwards.
func (cl *Cluster) machineOfAddr(addr string) int {
	for m, a := range cl.addrs {
		if a == addr {
			return m
		}
	}
	return -1
}

// peerSlow reports whether any peer of machine m is currently flagged
// as a gray failure by the client's EWMA latency/loss score.
func (cl *Cluster) peerSlow(m int) bool {
	for t, addr := range cl.addrs {
		if t != m && cl.clients[m].PeerSlow(addr) {
			return true
		}
	}
	return false
}

// Close shuts down all servers and clients.
func (cl *Cluster) Close() {
	// Unpark any version waiters first: a blocked ExpertBytesAt holds a
	// server handler goroutine, and Server.Close waits for handlers.
	for _, s := range cl.stores {
		s.abortTraining()
	}
	if cl.train != nil && cl.train.rt != nil {
		cl.train.rt.shutdown()
	}
	for _, c := range cl.clients {
		c.Close()
	}
	for _, s := range cl.servers {
		s.Close()
	}
}

// workerTokens builds each worker's deterministic input batch.
func (cl *Cluster) workerTokens() []*tensor.Matrix {
	xs := make([]*tensor.Matrix, cl.cfg.numWorkers())
	for w := range xs {
		xs[w] = tensor.NewRandom(cl.cfg.TokensPerWorker, cl.cfg.Hidden, 1, cl.cfg.Seed+1000+int64(w))
	}
	return xs
}

// robustSnapshot sums all machine clients' robustness counters plus the
// cluster-level failover/checkpoint counters and the servers' fence
// rejections.
func (cl *Cluster) robustSnapshot() metrics.RobustnessSnapshot {
	sum := cl.robust.Snapshot()
	for _, c := range cl.clients {
		sum = sum.Add(c.Robust.Snapshot())
	}
	for _, s := range cl.servers {
		sum.FenceRejections += s.FencedRequests()
	}
	return sum
}

// RobustnessTotals returns the cumulative client-side robustness
// counters since the cluster started (plus server-side gradient
// dedups folded into GradDups).
func (cl *Cluster) RobustnessTotals() metrics.RobustnessSnapshot {
	sum := cl.robustSnapshot()
	for _, s := range cl.servers {
		sum.GradDups += s.GradsDeduped()
	}
	sum.DegradedSteps = int64(cl.degradedTotal)
	return sum
}

// RunExpertCentricReference computes the same forward pass with the
// in-process expert-centric reference (no network), for comparison.
func (cl *Cluster) RunExpertCentricReference() []*tensor.Matrix {
	return cl.layer.ForwardBackwardExpertCentric(cl.xs, nil).Outputs
}

// TokenExchangeBytes returns the bytes one expert-centric training step
// would push across machine boundaries for this workload: forward
// dispatch and combine plus their two backward transfers, fp32 like the
// live payloads. A data-centric step moves an expert pull and a
// same-sized gradient push, so the comparison is like for like.
func (cl *Cluster) TokenExchangeBytes() int64 {
	cfg := cl.cfg
	var cross int64
	for w, x := range cl.xs {
		machine := w / cfg.WorkersPerNode
		routing := cl.routings[w]
		for t := 0; t < x.Rows; t++ {
			for _, e := range routing.Experts[t] {
				if cl.homeMachine(e) != machine {
					cross += int64(4 * cfg.Hidden * 4) // token there + result back, and both gradients
				}
			}
		}
	}
	return cross
}

func (cl *Cluster) wireBytes() int64 {
	var sum int64
	for _, c := range cl.clients {
		sum += c.Counters.Sent() + c.Counters.Received()
	}
	return sum
}

// GradsAccepted returns per-machine accepted gradient pushes.
func (cl *Cluster) GradsAccepted() []int64 {
	out := make([]int64, len(cl.servers))
	for i, s := range cl.servers {
		out[i] = s.GradsAccepted()
	}
	return out
}

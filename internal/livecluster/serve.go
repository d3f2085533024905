// Serving entrypoints: the cluster-side half of the inference plane.
// A serving front-end (internal/serving) drives the cluster through
// the ServeBackend adapter — ownership lookups, in-sync replica
// targets, gray-failure scores, and the SERVE wire call — while each
// machine's store answers SERVE micro-batches from its hosted experts
// (or its in-sync replica copies) under the same epoch fence as every
// other request.
package livecluster

import (
	"context"
	"fmt"
	"net"
	"time"

	"janus/internal/checkpoint"
	"janus/internal/moe"
	"janus/internal/tensor"
	"janus/internal/transport"
)

// ServeExpert implements transport.ServingStore: decode the
// micro-batch, find the expert (hosted copy first, then an in-sync
// replica copy — the store-side half of the replica-serve rung), run
// the forward pass, and answer with provenance. The deadline budget is
// enforced at both ends of the compute: work that arrives already
// expired is refused before the forward pass, and work whose budget
// ran out during the pass is cancelled instead of answered late — the
// front-end has long since hedged or degraded, so a late answer is
// wasted wire bytes.
//
// The forward pass runs under the store lock: a training merge mutates
// expert weights in place, and serving must never read a half-merged
// matrix. Serving drills against a non-training cluster never contend.
func (s *machineStore) ServeExpert(id transport.ExpertID, payload []byte) ([]byte, error) {
	start := time.Now()
	budgetMicros, rows, cols, data, err := transport.DecodeServe(payload)
	if err != nil {
		return nil, err
	}
	if cols != s.h {
		return nil, fmt.Errorf("livecluster: serve batch is %d wide, experts are %d", cols, s.h)
	}
	if budgetMicros == 0 {
		return nil, fmt.Errorf("%w: %v arrived with no budget", transport.ErrServeExpired, id)
	}
	budget := time.Duration(budgetMicros) * time.Microsecond
	if d := s.serveDelay.Load(); d > 0 {
		// Drill knob: a gray-overloaded expert machine computing slowly.
		time.Sleep(time.Duration(d))
	}

	s.mu.Lock()
	prov := byte(transport.ProvOwner)
	ex, ok := s.experts[id]
	if !ok {
		if ent, rok := s.replicas[id]; rok {
			ex, prov = ent.ex, transport.ProvReplica
		}
	}
	if ex == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("livecluster: %v not hosted or replicated here", id)
	}
	x := tensor.New(rows, cols)
	copy(x.Data, data)
	y, cache := ex.Forward(x)
	cache.Release()
	s.mu.Unlock()

	if time.Since(start) > budget {
		// Computed but expired: cancel at this stage rather than ship an
		// answer the front-end must discard at emission.
		tensor.Put(y)
		return nil, fmt.Errorf("%w: %v expired during compute", transport.ErrServeExpired, id)
	}
	out, err := transport.EncodeServeOut(prov, y.Data)
	tensor.Put(y)
	return out, err
}

// ServeBackend adapts the cluster for a serving front-end. It owns a
// dedicated transport client (the front-end is not one of the cluster's
// machines) whose requests are epoch-stamped from the authoritative
// membership view, so serve traffic obeys the same fencing as training
// traffic: a request routed with a pre-failover view is rejected by
// every correctly fenced server.
type ServeBackend struct {
	cl     *Cluster
	client *transport.Client
}

// serveMachineID is the sender id stamped on front-end requests —
// outside any real machine's range, so membership never mistakes the
// front-end for a cluster member.
const serveMachineID = 1 << 16

// ServeBackend builds the serving adapter. Callers must Close it.
func (cl *Cluster) ServeBackend() *ServeBackend {
	cfg := cl.cfg
	opts := transport.Options{
		Credits:        cfg.Credits,
		RequestTimeout: cfg.PullTimeout,
		MaxAttempts:    cfg.PullRetries,
		BackoffBase:    cfg.RetryBackoff,
		Seed:           cfg.Seed + serveMachineID,
		MachineID:      serveMachineID,
		SlowAfter:      cfg.SlowAfter,
	}
	if inj := cfg.Injector; inj != nil {
		timeout := cfg.PullTimeout
		if timeout <= 0 {
			timeout = transport.DefaultRequestTimeout
		}
		opts.Dial = func(addr string) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			if dst := cl.machineOfAddr(addr); dst >= 0 {
				return inj.WrapConnPair(conn, "serve.client", "serve", MachineLabel(dst)), nil
			}
			return inj.WrapConn(conn, "serve.client"), nil
		}
	}
	b := &ServeBackend{cl: cl, client: transport.NewClientOptions(opts)}
	b.client.SetEpoch(uint64(cl.Epoch()))
	return b
}

// Close releases the backend's transport client.
func (b *ServeBackend) Close() { b.client.Close() }

// NumExperts returns the width of the expert plane.
func (b *ServeBackend) NumExperts() int { return b.cl.cfg.NumExperts }

// Hidden returns the model's hidden width H.
func (b *ServeBackend) Hidden() int { return b.cl.cfg.Hidden }

// Step returns the cluster's completed training steps — the staleness
// clock the front-end's local weight cache ages against.
func (b *ServeBackend) Step() int { return b.cl.TrainSteps() }

// OwnerAddr returns the dial address of the expert's current owner
// under the authoritative membership view, when one is alive.
func (b *ServeBackend) OwnerAddr(expert int) (string, bool) {
	o := b.cl.currentOwner(expert)
	if o < 0 || o >= len(b.cl.addrs) || !b.cl.isAlive(o) {
		return "", false
	}
	return b.cl.addrs[o], true
}

// ReplicaAddr returns the dial address of an alive in-sync replica
// holder of the expert (never the owner), when one exists.
func (b *ServeBackend) ReplicaAddr(expert int) (string, bool) {
	b.cl.viewMu.Lock()
	set := append([]int(nil), b.cl.replicas[expert]...)
	b.cl.viewMu.Unlock()
	owner := b.cl.currentOwner(expert)
	for _, r := range set {
		if r != owner && r >= 0 && r < len(b.cl.addrs) && b.cl.isAlive(r) {
			return b.cl.addrs[r], true
		}
	}
	return "", false
}

// PeerSlow reports the serving client's gray-failure verdict for addr.
func (b *ServeBackend) PeerSlow(addr string) bool { return b.client.PeerSlow(addr) }

// Serve runs one SERVE round trip against addr, restamping the client
// with the authoritative epoch first so a failover between requests is
// picked up immediately.
func (b *ServeBackend) Serve(ctx context.Context, addr string, expert int, payload []byte) (byte, []float32, error) {
	b.client.SetEpoch(uint64(b.cl.Epoch()))
	return b.client.ServeExpert(ctx, addr, transport.ExpertID{Expert: uint32(expert)}, payload)
}

// FetchExpert clones the current owner's weights of an expert — the
// front-end's stale-cache warmup/refresh path, stamped with the step
// the copy was taken at. The in-process read stands in for a bulk
// weight pull a multi-process deployment would do over the wire.
func (b *ServeBackend) FetchExpert(expert int) (*moe.Expert, int, error) {
	o := b.cl.currentOwner(expert)
	if o < 0 || o >= len(b.cl.stores) {
		return nil, 0, fmt.Errorf("livecluster: expert %d has no owner", expert)
	}
	ex, ok := b.cl.stores[o].get(transport.ExpertID{Expert: uint32(expert)})
	if !ok {
		return nil, 0, fmt.Errorf("livecluster: expert %d missing from owner %d", expert, o)
	}
	return ex.Clone(), b.cl.TrainSteps(), nil
}

// SyncReplicas arms the replica plan (when not yet armed) and runs one
// synchronous replication round. A serving-only deployment calls this
// once after Start so the ladder's replica rung has in-sync copies to
// fall back on without running any training steps; under training the
// step barrier keeps replicas synced and this is unnecessary.
func (cl *Cluster) SyncReplicas() { cl.replicateStep() }

// ExportSnapshot captures the cluster's current expert weights as a
// checkpoint snapshot stamped with a model version — the canary rollout
// builds its candidate from one of these.
func (cl *Cluster) ExportSnapshot(step, modelVersion int) *checkpoint.Snapshot {
	snap := &checkpoint.Snapshot{
		Step:         step,
		ModelVersion: modelVersion,
		Experts:      make(map[uint32][]byte, cl.cfg.NumExperts),
		Dense:        encodeMatrix(cl.layer.Gate.W),
	}
	for e := 0; e < cl.cfg.NumExperts; e++ {
		owner := cl.currentOwner(e)
		if owner < 0 || !cl.isAlive(owner) {
			continue
		}
		if ex, ok := cl.stores[owner].get(transport.ExpertID{Expert: uint32(e)}); ok {
			snap.Experts[uint32(e)] = encodeExpert(ex)
		}
	}
	return snap
}

// DecodeExpertPlane decodes a snapshot's expert entries into live
// weights — the canary serving plane a front-end computes candidate
// answers from.
func DecodeExpertPlane(snap *checkpoint.Snapshot) (map[int]*moe.Expert, error) {
	out := make(map[int]*moe.Expert, len(snap.Experts))
	for id, raw := range snap.Experts {
		ex, err := decodeExpert(raw)
		if err != nil {
			return nil, fmt.Errorf("livecluster: canary expert %d: %w", id, err)
		}
		out[int(id)] = ex
	}
	return out, nil
}

// compile-time: the machine store really is a ServingStore, so the
// transport's capability pre-check admits SERVE frames.
var _ transport.ServingStore = (*machineStore)(nil)

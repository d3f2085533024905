package livecluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"janus/internal/tensor"
	"janus/internal/transport"
)

// serveCfg is a small replicated cluster for the serving-path tests:
// three machines, replicas on, failover on so membership epochs are
// live.
func serveCfg() Config {
	cfg := elasticCfg()
	cfg.Replicas = 1
	cfg.StaleFallback = true
	return cfg
}

// refForward computes the reference output of an expert over a request
// batch straight from a machine store's weights.
func refForward(t *testing.T, cl *Cluster, expert int, rows int, data []float32) []float32 {
	t.Helper()
	owner := cl.currentOwner(expert)
	ex, ok := cl.stores[owner].get(transport.ExpertID{Expert: uint32(expert)})
	if !ok {
		t.Fatalf("expert %d missing from owner %d", expert, owner)
	}
	x := tensor.New(rows, cl.cfg.Hidden)
	copy(x.Data, data)
	y, cache := ex.Forward(x)
	cache.Release()
	out := append([]float32(nil), y.Data...)
	tensor.Put(y)
	tensor.Put(x)
	return out
}

// Owner and replica copies answer the same SERVE batch with matching
// provenance and bitwise-identical outputs — the property the
// degradation ladder's replica rung depends on.
func TestServeOwnerAndReplicaProvenance(t *testing.T) {
	cl, err := Start(serveCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	cl.SyncReplicas()
	b := cl.ServeBackend()
	t.Cleanup(b.Close)

	const expert, rows = 4, 3
	h := b.Hidden()
	x := tensor.NewRandom(rows, h, 1, 77)
	payload, err := transport.EncodeServe(uint64(time.Second/time.Microsecond), rows, h, x.Data)
	if err != nil {
		t.Fatal(err)
	}
	want := refForward(t, cl, expert, rows, x.Data)

	ownerAddr, ok := b.OwnerAddr(expert)
	if !ok {
		t.Fatal("expert has no alive owner")
	}
	ctx := context.Background()
	prov, got, err := b.Serve(ctx, ownerAddr, expert, payload)
	if err != nil {
		t.Fatalf("owner serve: %v", err)
	}
	if prov != transport.ProvOwner {
		t.Fatalf("owner serve provenance = %#x", prov)
	}
	if len(got) != len(want) {
		t.Fatalf("owner serve returned %d floats, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("owner serve output differs at %d: %v vs %v", i, got[i], want[i])
		}
	}

	replAddr, ok := b.ReplicaAddr(expert)
	if !ok {
		t.Fatal("expert has no alive replica")
	}
	if replAddr == ownerAddr {
		t.Fatal("replica addr is the owner")
	}
	prov, got, err = b.Serve(ctx, replAddr, expert, payload)
	if err != nil {
		t.Fatalf("replica serve: %v", err)
	}
	if prov != transport.ProvReplica {
		t.Fatalf("replica serve provenance = %#x", prov)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replica serve output differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// A SERVE whose budget runs out during the server-side compute is
// cancelled there — the error round-trips as a deadline expiry, not a
// generic failure, so the front-end counts it at the right stage.
func TestServeBudgetExpiresDuringCompute(t *testing.T) {
	cfg := serveCfg()
	cfg.PullRetries = 1 // expiry must not be retried into a second sleep
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	b := cl.ServeBackend()
	t.Cleanup(b.Close)

	const expert, rows = 2, 1
	h := b.Hidden()
	addr, ok := b.OwnerAddr(expert)
	if !ok {
		t.Fatal("expert has no alive owner")
	}
	cl.SetServeDelay(cl.currentOwner(expert), 30*time.Millisecond)

	x := tensor.NewRandom(rows, h, 1, 78)
	payload, err := transport.EncodeServe(1000 /* 1ms budget */, rows, h, x.Data)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = b.Serve(context.Background(), addr, expert, payload)
	if err == nil {
		t.Fatal("expired serve answered")
	}
	// The expiry crosses the wire as a remote error carrying
	// ErrServeExpired's message.
	var re *transport.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, transport.ErrServeExpired.Error()) {
		t.Fatalf("expiry surfaced as %v, want serve-expired", err)
	}

	// Clearing the delay restores service with a sane budget.
	cl.SetServeDelay(cl.currentOwner(expert), 0)
	payload, err = transport.EncodeServe(uint64(time.Second/time.Microsecond), rows, h, x.Data)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Serve(context.Background(), addr, expert, payload); err != nil {
		t.Fatalf("recovered serve: %v", err)
	}
}

// ExportSnapshot → DecodeExpertPlane round-trips the live weights: the
// decoded canary plane computes bitwise-identical outputs to the
// cluster it was captured from.
func TestExportSnapshotPlaneMatchesLiveWeights(t *testing.T) {
	cl, err := Start(serveCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	snap := cl.ExportSnapshot(7, 2)
	if snap.Step != 7 || snap.ModelVersion != 2 {
		t.Fatalf("snapshot stamped %d/%d, want 7/2", snap.Step, snap.ModelVersion)
	}
	if len(snap.Experts) != cl.cfg.NumExperts {
		t.Fatalf("snapshot has %d experts, want %d", len(snap.Experts), cl.cfg.NumExperts)
	}
	plane, err := DecodeExpertPlane(snap)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 2
	h := cl.cfg.Hidden
	for e := 0; e < cl.cfg.NumExperts; e++ {
		x := tensor.NewRandom(rows, h, 1, int64(100+e))
		want := refForward(t, cl, e, rows, x.Data)
		ex, ok := plane[e]
		if !ok {
			t.Fatalf("plane missing expert %d", e)
		}
		xc := tensor.New(rows, h)
		copy(xc.Data, x.Data)
		y, cache := ex.Forward(xc)
		cache.Release()
		for i := range want {
			if y.Data[i] != want[i] {
				t.Fatalf("expert %d plane output differs at %d", e, i)
			}
		}
		tensor.Put(y)
		tensor.Put(xc)
		tensor.Put(x)
	}
}

// The serving front-end's staleness clock is the trainer's step count:
// after three training steps the backend reports step 3, and weights
// fetched for the stale cache are stamped with it.
func TestServeBackendStepFollowsTrainer(t *testing.T) {
	cl, err := Start(serveCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if _, err := cl.Train(TrainOptions{Steps: 3}); err != nil {
		t.Fatal(err)
	}
	b := cl.ServeBackend()
	t.Cleanup(b.Close)
	if got := b.Step(); got != 3 {
		t.Fatalf("backend step = %d after 3 training steps, want 3", got)
	}
	if _, step, err := b.FetchExpert(0); err != nil || step != 3 {
		t.Fatalf("FetchExpert stamp = %d (err %v), want 3", step, err)
	}
}

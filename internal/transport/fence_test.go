package transport

import (
	"errors"
	"testing"
	"time"
)

// stubGate is a fixed membership view for fencing tests.
type stubGate struct {
	epoch uint64
	alive map[uint32]bool
}

func (g stubGate) Epoch() uint64              { return g.epoch }
func (g stubGate) MachineAlive(m uint32) bool { return g.alive[m] }

// A gated server rejects every request type stamped with a stale epoch
// as a typed, terminal ErrFencedEpoch carrying the server's epoch and
// the sender's readmission state — and burns no retry budget doing it.
func TestEpochFencingOnWire(t *testing.T) {
	store := newMemStore()
	id := ExpertID{Expert: 3}
	store.experts[id] = []byte{1, 2, 3}
	srv, addr := startServer(t, store)
	srv.SetEpochGate(stubGate{epoch: 5, alive: map[uint32]bool{1: true}})

	c := NewClientOptions(Options{
		Credits: 2, MaxAttempts: 3, RequestTimeout: 2 * time.Second, MachineID: 2,
	})
	defer c.Close()
	c.SetEpoch(4) // one behind the server

	var fe *FencedEpochError
	if _, err := pull(ctx, c, addr, id); !errors.As(err, &fe) {
		t.Fatalf("stale-epoch pull error = %v, want FencedEpochError", err)
	} else if !errors.Is(err, ErrFencedEpoch) {
		t.Fatalf("FencedEpochError does not unwrap to ErrFencedEpoch: %v", err)
	} else if fe.RemoteEpoch != 5 || fe.Readmitted {
		t.Fatalf("fence reported epoch %d readmitted %v, want 5/false", fe.RemoteEpoch, fe.Readmitted)
	}
	if err := c.PushGradient(ctx, addr, id, []byte{0xAA}); !errors.As(err, &fe) {
		t.Fatalf("stale-epoch push error = %v, want FencedEpochError", err)
	}
	if info, err := c.Ping(ctx, addr); !errors.As(err, &fe) {
		t.Fatalf("stale-epoch ping error = %v, want FencedEpochError", err)
	} else if info.Epoch != 5 {
		t.Fatalf("fenced ping reported epoch %d, want 5", info.Epoch)
	}

	// Fencing is terminal: one rejection per request, no retries.
	if got := srv.FencedRequests(); got != 3 {
		t.Fatalf("FencedRequests = %d, want 3 (fence must not burn the retry budget)", got)
	}
	// The store never saw the fenced push.
	store.mu.Lock()
	applied := store.grads[id]
	store.mu.Unlock()
	if applied != 0 {
		t.Fatalf("fenced gradient reached the store %d times", applied)
	}

	// A readmitted sender is told so — the rejoin signal.
	c2 := NewClientOptions(Options{Credits: 2, RequestTimeout: 2 * time.Second, MachineID: 1})
	defer c2.Close()
	c2.SetEpoch(4)
	if _, err := c2.Ping(ctx, addr); !errors.As(err, &fe) {
		t.Fatalf("readmitted stale ping error = %v, want FencedEpochError", err)
	} else if !fe.Readmitted {
		t.Fatal("readmitted sender's fence did not carry the readmitted flag")
	}

	// Adopting the server's epoch unfences the same connection.
	c.SetEpoch(5)
	payload, err := pull(ctx, c, addr, id)
	if err != nil {
		t.Fatalf("current-epoch pull after fence: %v", err)
	}
	if len(payload) != 3 {
		t.Fatalf("pull after unfence returned %d bytes, want 3", len(payload))
	}

	// An ungated server keeps accepting any epoch (plain deployments).
	srv2, addr2 := startServer(t, store)
	c.SetEpoch(0)
	if _, err := pull(ctx, c, addr2, id); err != nil {
		t.Fatalf("ungated server rejected epoch 0: %v", err)
	}
	if srv2.FencedRequests() != 0 {
		t.Fatal("ungated server counted fenced requests")
	}
}

// Per-peer EWMA scoring flags a gray failure — high smoothed latency or
// loss — and stays quiet for healthy peers and when disabled.
func TestPeerScoringFlagsSlowAndLossyPeers(t *testing.T) {
	store := newMemStore()
	id := ExpertID{Expert: 1}
	store.experts[id] = []byte{9}
	_, addr := startServer(t, store)

	// SlowAfter of 1ns: any real round trip exceeds it.
	c := NewClientOptions(Options{Credits: 2, RequestTimeout: time.Second, SlowAfter: time.Nanosecond})
	defer c.Close()
	if c.PeerSlow(addr) {
		t.Fatal("peer flagged slow before any observation")
	}
	if _, err := pull(ctx, c, addr, id); err != nil {
		t.Fatal(err)
	}
	if !c.PeerSlow(addr) {
		t.Fatalf("peer not flagged with EWMA latency %v over a 1ns bound", c.PeerLatencyEWMA(addr))
	}
	if c.PeerLatencyEWMA(addr) <= 0 {
		t.Fatal("EWMA latency not recorded")
	}

	// A generous bound keeps a healthy peer unflagged.
	c2 := NewClientOptions(Options{Credits: 2, RequestTimeout: time.Second, SlowAfter: time.Hour})
	defer c2.Close()
	if _, err := pull(ctx, c2, addr, id); err != nil {
		t.Fatal(err)
	}
	if c2.PeerSlow(addr) {
		t.Fatal("healthy peer flagged slow under a 1h bound")
	}

	// Loss-based flagging: repeated failures push the EWMA loss rate
	// past 1/2 even when no latency sample ever lands.
	dead := "127.0.0.1:1"
	for i := 0; i < 4; i++ {
		c2.Ping(ctx, dead)
	}
	if !c2.PeerSlow(dead) {
		t.Fatal("unreachable peer not flagged by EWMA loss")
	}

	// Scoring disabled (SlowAfter zero): never flagged.
	c3 := NewClientOptions(Options{Credits: 2, RequestTimeout: time.Second})
	defer c3.Close()
	if _, err := pull(ctx, c3, addr, id); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c3.Ping(ctx, dead)
	}
	if c3.PeerSlow(addr) || c3.PeerSlow(dead) {
		t.Fatal("peer flagged slow with scoring disabled")
	}
}

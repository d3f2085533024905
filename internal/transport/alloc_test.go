package transport

import (
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
)

// The zero-alloc wire gates: a warmed gradient push (the GRAD write +
// server read/dedup/apply path) and a warmed versioned pull into a
// caller buffer (the read path replication and failover serve from)
// must not touch the heap. These pin the PR's framing changes — header
// bytes built inside the bufio buffer, Peek/Discard length reads, the
// preallocated dedup window — against regression.

// allocStore serves one fixed payload at any version and counts
// gradients, allocation-free.
type allocStore struct {
	payload []byte
	grads   atomic.Int64
}

func (s *allocStore) ExpertBytesAt(id ExpertID, version uint64) ([]byte, error) {
	return s.payload, nil
}

func (s *allocStore) AddGradient(id ExpertID, payload []byte) error {
	s.grads.Add(1)
	return nil
}

// allocsRetry measures fn's steady-state allocations, retrying while
// nonzero: AllocsPerRun counts process-global mallocs, so a stray
// allocation from another test's winding-down goroutine can pollute
// one measurement. A real per-op leak (>= 1 alloc every run) fails
// every attempt deterministically.
func allocsRetry(runs int, fn func()) float64 {
	var n float64
	for attempt := 0; attempt < 3; attempt++ {
		n = testing.AllocsPerRun(runs, fn)
		if n == 0 {
			return 0
		}
	}
	return n
}

func allocGateClient(t *testing.T) (*Client, string) {
	t.Helper()
	store := &allocStore{payload: make([]byte, 512)}
	_, addr := startServer(t, store)
	c := NewClientOptions(Options{Credits: 4, RequestTimeout: 5 * time.Second})
	t.Cleanup(func() { c.Close() })
	return c, addr
}

func TestGradPushZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race runtime")
	}
	c, addr := allocGateClient(t)
	id := ExpertID{Expert: 1}
	payload := make([]byte, 256)
	push := func() {
		if err := c.PushGradient(ctx, addr, id, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // warm conn, frame pools, dedup window map
		push()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := allocsRetry(100, push); n != 0 {
		t.Fatalf("PushGradient round trip: %v allocs/op in steady state, want 0", n)
	}
}

func TestPullVersionIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race runtime")
	}
	c, addr := allocGateClient(t)
	id := ExpertID{Expert: 2}
	var dst []byte
	pull := func() {
		got, err := c.PullVersionInto(ctx, addr, id, 0, dst)
		if err != nil {
			t.Fatal(err)
		}
		dst = got // keep the (possibly grown) buffer for the next pull
	}
	for i := 0; i < 8; i++ { // warm conn, frame pools, and size dst
		pull()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := allocsRetry(100, pull); n != 0 {
		t.Fatalf("PullVersionInto round trip: %v allocs/op in steady state, want 0", n)
	}
}

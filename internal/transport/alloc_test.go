package transport

import (
	"errors"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
)

// The zero-alloc wire gates: a warmed gradient push (the GRAD write +
// server read/dedup/apply path) and a warmed versioned pull into a
// caller buffer (the read path replication and failover serve from)
// must not touch the heap. These pin the framing — header bytes built
// inside the bufio buffer, Peek/Discard length reads, the preallocated
// dedup window — against regression, and both the wrappers and the
// callback forms they wrap: the encode and use closures must stay on
// the stack.

// allocStore serves one fixed payload at any version and counts pulls
// and gradients, allocation-free.
type allocStore struct {
	payload []byte
	pulls   atomic.Int64
	grads   atomic.Int64
}

func (s *allocStore) ExpertBytesAt(id ExpertID, version uint64) ([]byte, error) {
	s.pulls.Add(1)
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

func allocGateClient(t *testing.T) (*Client, *allocStore, string) {
	t.Helper()
	store := &allocStore{payload: make([]byte, 512)}
	_, addr := startServer(t, store)
	c := NewClientOptions(Options{Credits: 4, RequestTimeout: 5 * time.Second})
	t.Cleanup(func() { c.Close() })
	return c, store, addr
}

func TestGradPushZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race runtime")
	}
	c, _, addr := allocGateClient(t)
	id := ExpertID{Expert: 1}
	payload := make([]byte, 256)
	push := func() {
		if err := c.PushGradient(ctx, addr, id, payload); err != nil {
			t.Fatal(err)
		}
	}
	var seq byte
	pushFunc := func() {
		seq++
		err := c.PushGradientFunc(ctx, addr, id, len(payload), func(buf []byte) {
			for i := range buf {
				buf[i] = seq
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // warm conn, frame pools, dedup window map
		push()
		pushFunc()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := allocsRetry(100, push); n != 0 {
		t.Fatalf("PushGradient round trip: %v allocs/op in steady state, want 0", n)
	}
	if n := allocsRetry(100, pushFunc); n != 0 {
		t.Fatalf("PushGradientFunc round trip: %v allocs/op in steady state, want 0", n)
	}
}

func TestPullVersionIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race runtime")
	}
	c, _, addr := allocGateClient(t)
	id := ExpertID{Expert: 2}
	var dst []byte
	pull := func() {
		got, err := c.PullVersionInto(ctx, addr, id, 0, dst)
		if err != nil {
			t.Fatal(err)
		}
		dst = got // keep the (possibly grown) buffer for the next pull
	}
	var sum int
	pullFunc := func() {
		err := c.PullVersionFunc(ctx, addr, id, 0, func(payload []byte) error {
			sum += len(payload)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // warm conn, frame pools, and size dst
		pull()
		pullFunc()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := allocsRetry(100, pull); n != 0 {
		t.Fatalf("PullVersionInto round trip: %v allocs/op in steady state, want 0", n)
	}
	if n := allocsRetry(100, pullFunc); n != 0 {
		t.Fatalf("PullVersionFunc round trip: %v allocs/op in steady state, want 0", n)
	}
}

// TestPullVersionFuncUseError: an error from use is returned as is and
// never retried (the server sees one request per pull), and the
// response frame is still recycled — a steady stream of failing pulls
// allocates nothing, where a leaked frame would cost the read loop a
// fresh buffer per response.
func TestPullVersionFuncUseError(t *testing.T) {
	c, store, addr := allocGateClient(t)
	id := ExpertID{Expert: 3}
	errUse := errors.New("use failed")
	pull := func() {
		err := c.PullVersionFunc(ctx, addr, id, 0, func([]byte) error { return errUse })
		if err != errUse {
			t.Fatalf("PullVersionFunc = %v, want the use error as is", err)
		}
	}
	for i := 0; i < 8; i++ {
		pull()
	}
	if n := store.pulls.Load(); n != 8 {
		t.Fatalf("server answered %d pulls for 8 calls, want 8 (no retries)", n)
	}
	if n := c.Robust.Snapshot().Retries; n != 0 {
		t.Fatalf("client retried %d times after use errors, want 0", n)
	}
	if raceEnabled {
		return // allocation accounting differs under the race runtime
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := allocsRetry(100, pull); n != 0 {
		t.Fatalf("failing PullVersionFunc: %v allocs/op in steady state, want 0", n)
	}
}

package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// ctx is the background context shared by tests that don't exercise
// cancellation.
var ctx = context.Background()

// newFastClient returns a client whose failure handling is tuned for
// test speed: short per-attempt deadlines and millisecond backoff.
func newFastClient(credits, attempts int) *Client {
	return NewClientOptions(Options{
		Credits:        credits,
		RequestTimeout: 500 * time.Millisecond,
		MaxAttempts:    attempts,
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     10 * time.Millisecond,
	})
}

// memStore is a Store over an in-memory map with gradient accumulation
// counting.
type memStore struct {
	mu      sync.Mutex
	experts map[ExpertID][]byte
	grads   map[ExpertID]int
	// serveHook, if set, runs on every ExpertBytesAt call (used to
	// hold pulls open in the credit-window test).
	serveHook func()
	// gradHook, if set, observes every applied gradient's payload
	// while it is still valid (used by the no-retain batch tests).
	gradHook func(id ExpertID, payload []byte)
}

func newMemStore() *memStore {
	return &memStore{experts: make(map[ExpertID][]byte), grads: make(map[ExpertID]int)}
}

// ExpertBytesAt serves the current bytes at any version.
func (s *memStore) ExpertBytesAt(id ExpertID, _ uint64) ([]byte, error) {
	if s.serveHook != nil {
		s.serveHook()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.experts[id]
	if !ok {
		return nil, fmt.Errorf("expert %v not hosted", id)
	}
	return b, nil
}

func (s *memStore) AddGradient(id ExpertID, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.experts[id]; !ok {
		return fmt.Errorf("expert %v not hosted", id)
	}
	s.grads[id]++
	if s.gradHook != nil {
		s.gradHook(id, payload)
	}
	return nil
}

// pull fetches id's bytes from addr at version 0, which a memStore
// always serves.
func pull(ctx context.Context, c *Client, addr string, id ExpertID) ([]byte, error) {
	return c.PullVersionInto(ctx, addr, id, 0, nil)
}

func startServer(t *testing.T, store Store) (*Server, string) {
	t.Helper()
	srv := NewServer(store)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestPullRoundTrip(t *testing.T) {
	store := newMemStore()
	want := bytes.Repeat([]byte{0xAB}, 1<<20)
	id := ExpertID{Block: 3, Expert: 7}
	store.experts[id] = want
	_, addr := startServer(t, store)

	c := NewClient(4)
	defer c.Close()
	got, err := pull(ctx, c, addr, id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload mismatch: %d bytes vs %d", len(got), len(want))
	}
}

func TestPullUnknownExpert(t *testing.T) {
	_, addr := startServer(t, newMemStore())
	c := NewClient(4)
	defer c.Close()
	if _, err := pull(ctx, c, addr, ExpertID{Block: 1, Expert: 1}); err == nil {
		t.Fatal("pull of unknown expert succeeded")
	}
}

func TestGradientPush(t *testing.T) {
	store := newMemStore()
	id := ExpertID{Block: 0, Expert: 2}
	store.experts[id] = []byte{1, 2, 3}
	srv, addr := startServer(t, store)
	c := NewClient(4)
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.PushGradient(ctx, addr, id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if store.grads[id] != 5 {
		t.Fatalf("grads = %d, want 5", store.grads[id])
	}
	if srv.GradsAccepted() != 5 {
		t.Fatalf("server grads = %d", srv.GradsAccepted())
	}
}

// Distinct experts pull concurrently and pipelining preserves
// request/response pairing.
func TestConcurrentDistinctPulls(t *testing.T) {
	store := newMemStore()
	const n = 64
	for i := 0; i < n; i++ {
		store.experts[ExpertID{Block: 0, Expert: uint32(i)}] = []byte{byte(i), byte(i >> 8)}
	}
	srv, addr := startServer(t, store)
	c := NewClient(8)
	defer c.Close()
	var wg sync.WaitGroup
	fail := make(chan string, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := ExpertID{Block: 0, Expert: uint32(i)}
			got, err := pull(ctx, c, addr, id)
			if err != nil {
				fail <- err.Error()
				return
			}
			if len(got) != 2 || got[0] != byte(i) {
				fail <- fmt.Sprintf("expert %d: wrong payload %v", i, got)
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
	if srv.PullsServed() != n {
		t.Fatalf("server pulls = %d, want %d", srv.PullsServed(), n)
	}
}

// The credit window bounds concurrent wire pulls.
func TestCreditWindowBound(t *testing.T) {
	store := newMemStore()
	const n = 32
	for i := 0; i < n; i++ {
		store.experts[ExpertID{Expert: uint32(i)}] = []byte{1}
	}
	var cur, max atomic.Int32
	release := make(chan struct{})
	store.serveHook = func() {
		v := cur.Add(1)
		for {
			m := max.Load()
			if v <= m || max.CompareAndSwap(m, v) {
				break
			}
		}
		<-release
		cur.Add(-1)
	}
	_, addr := startServer(t, store)
	const credits = 3
	c := NewClient(credits)
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pull(ctx, c, addr, ExpertID{Expert: uint32(i)})
		}()
	}
	// Let pulls accumulate to the window, then drain.
	for cur.Load() < credits {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := max.Load(); got > credits {
		t.Fatalf("max concurrent wire pulls %d exceeds credit window %d", got, credits)
	}
}

func TestCountersBalance(t *testing.T) {
	store := newMemStore()
	id := ExpertID{Expert: 9}
	store.experts[id] = bytes.Repeat([]byte{5}, 1000)
	srv, addr := startServer(t, store)
	c := NewClient(2)
	defer c.Close()
	if _, err := pull(ctx, c, addr, id); err != nil {
		t.Fatal(err)
	}
	if err := c.PushGradient(ctx, addr, id, bytes.Repeat([]byte{6}, 500)); err != nil {
		t.Fatal(err)
	}
	if c.Counters.Sent() != srv.Counters.Received() {
		t.Fatalf("client sent %d, server received %d", c.Counters.Sent(), srv.Counters.Received())
	}
	if c.Counters.Received() != srv.Counters.Sent() {
		t.Fatalf("client received %d, server sent %d", c.Counters.Received(), srv.Counters.Sent())
	}
	if c.Counters.Received() < 1000 {
		t.Fatal("pull payload not accounted")
	}
}

func TestServerCloseFailsPendingAndFuture(t *testing.T) {
	store := newMemStore()
	id := ExpertID{Expert: 1}
	store.experts[id] = []byte{1}
	srv, addr := startServer(t, store)
	c := newFastClient(2, 2)
	defer c.Close()
	if _, err := pull(ctx, c, addr, id); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := pull(ctx, c, addr, id); err == nil {
		t.Fatal("pull after server close succeeded")
	}
}

func TestClientCloseRejectsNewCalls(t *testing.T) {
	store := newMemStore()
	store.experts[ExpertID{}] = []byte{1}
	_, addr := startServer(t, store)
	c := NewClient(2)
	if _, err := pull(ctx, c, addr, ExpertID{}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := pull(ctx, c, addr, ExpertID{}); err == nil {
		t.Fatal("pull on closed client succeeded")
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	prop := func(typ byte, reqID uint64, block, expert uint32, payload []byte) bool {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		in := frame{typ: typ, reqID: reqID, id: ExpertID{block, expert}, payload: payload}
		if err := writeFrame(w, in); err != nil {
			return false
		}
		out, err := readFrame(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return out.typ == in.typ && out.reqID == in.reqID && out.id == in.id &&
			bytes.Equal(out.payload, in.payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A gradient frame round-trips through writeFrame and readFrame, and
// recycling clears it.
func TestBenchFixtureRoundTrip(t *testing.T) {
	payload := make([]byte, gradTokenBytes+128)
	binary.BigEndian.PutUint64(payload[0:8], 11)
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, frame{typ: msgGrad, reqID: 3, payload: payload}); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if f.typ != msgGrad || f.reqID != 3 || !bytes.Equal(f.payload, payload) {
		t.Fatalf("frame mismatch: %+v", f)
	}
	f.recycle()
	if f.payload != nil || f.buf != nil {
		t.Fatal("recycle did not clear the frame")
	}
}

func TestReadFrameRejectsBadLength(t *testing.T) {
	// Length below the header size must error, not allocate or hang.
	buf := bytes.NewReader([]byte{0, 0, 0, 1, 0})
	if _, err := readFrame(bufio.NewReader(buf)); err == nil {
		t.Fatal("undersized frame accepted")
	}
	// A huge length must be rejected before allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestDialFailure(t *testing.T) {
	c := newFastClient(2, 2)
	defer c.Close()
	_, err := pull(ctx, c, "127.0.0.1:1", ExpertID{}) // port 1: nothing listening
	if err == nil {
		t.Fatal("dial to dead port succeeded")
	}
	var opErr error = err
	if opErr == nil || !errors.Is(err, err) {
		t.Fatal("unreachable")
	}
}

func TestPingRoundTripAndFailure(t *testing.T) {
	srv, addr := startServer(t, newMemStore())
	c := newFastClient(4, 1)
	defer c.Close()

	for i := 0; i < 3; i++ {
		if _, err := c.Ping(ctx, addr); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}

	// A ping is a liveness probe, not a request: it gets exactly one
	// attempt, so a dead server surfaces as an error immediately.
	srv.Close()
	if _, err := c.Ping(ctx, addr); err == nil {
		t.Fatal("ping of a closed server succeeded")
	}
	// And an expired context fails without touching the wire.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Ping(cctx, addr); err == nil {
		t.Fatal("ping with cancelled context succeeded")
	}
}

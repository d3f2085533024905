package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// verStore is a VersionedStore whose ExpertBytesAt blocks until the
// requested version is published via advance().
type verStore struct {
	*memStore
	mu    sync.Mutex
	cond  *sync.Cond
	ver   map[ExpertID]uint64
	calls map[uint64]int // version -> ExpertBytesAt invocations
}

func newVerStore() *verStore {
	s := &verStore{memStore: newMemStore(), ver: make(map[ExpertID]uint64), calls: make(map[uint64]int)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *verStore) advance(id ExpertID, to uint64) {
	s.mu.Lock()
	s.ver[id] = to
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *verStore) ExpertBytesAt(id ExpertID, version uint64) ([]byte, error) {
	s.mu.Lock()
	s.calls[version]++
	for s.ver[id] < version {
		s.cond.Wait()
	}
	if s.ver[id] > version {
		s.mu.Unlock()
		return nil, fmt.Errorf("version %d superseded by %d", version, s.ver[id])
	}
	s.mu.Unlock()
	return s.memStore.ExpertBytesAt(id, version)
}

// TestPullVersionBlocksUntilPublished: a versioned pull parks server-
// side until the store publishes the requested version — the wire-level
// backpressure the pipelined trainer relies on.
func TestPullVersionBlocksUntilPublished(t *testing.T) {
	store := newVerStore()
	id := ExpertID{Expert: 3}
	want := bytes.Repeat([]byte{0x5A}, 4096)
	store.experts[id] = want
	_, addr := startServer(t, store)

	c := NewClient(4)
	defer c.Close()

	done := make(chan error, 1)
	var got []byte
	go func() {
		var err error
		got, err = c.PullVersionInto(ctx, addr, id, 2, nil)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("pull for unpublished version returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	store.advance(id, 2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload mismatch: %d bytes vs %d", len(got), len(want))
	}
}

// TestPullVersionUnversionedStore: a versioned pull against a store
// that cannot serve versions is a remote error, not a hang.
func TestPullVersionUnversionedStore(t *testing.T) {
	store := newMemStore()
	id := ExpertID{Expert: 2}
	store.experts[id] = []byte{9}
	// Only Store's method is promoted: the server sees no ExpertBytesAt.
	_, addr := startServer(t, struct{ Store }{store})

	c := newFastClient(4, 1)
	defer c.Close()
	_, err := c.PullVersionInto(ctx, addr, id, 1, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError for unversioned store", err)
	}
}

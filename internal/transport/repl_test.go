package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
)

func TestReplRoundTrip(t *testing.T) {
	expert := []byte{9, 8, 7, 6, 5, 4}
	raw, err := EncodeRepl(42, expert)
	if err != nil {
		t.Fatal(err)
	}
	ver, got, err := DecodeRepl(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 42 {
		t.Fatalf("version %d, want 42", ver)
	}
	if !bytes.Equal(got, expert) {
		t.Fatalf("expert bytes %v, want %v", got, expert)
	}
	// Zero-length snapshots are legal (an expert with no parameters is
	// degenerate but must not crash the decoder).
	raw, err = EncodeRepl(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err = DecodeRepl(raw); err != nil || len(got) != 0 {
		t.Fatalf("empty snapshot: got %v, %v", got, err)
	}
}

func TestReplRejectsCorruption(t *testing.T) {
	raw, err := EncodeRepl(7, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(raw); i++ {
		if _, _, err := DecodeRepl(raw[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}
	if _, _, err := DecodeRepl(append(append([]byte{}, raw...), 0)); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
	// A hostile length must be rejected before allocating or slicing.
	bad := append([]byte{}, raw...)
	binary.BigEndian.PutUint32(bad[8:12], 0xFFFFFFFF)
	if _, _, err := DecodeRepl(bad); err == nil {
		t.Fatal("hostile length decoded successfully")
	}
}

// replStore is a memStore that also accepts replica streams.
type replStore struct {
	*memStore
	mu       sync.Mutex
	replicas map[ExpertID][]byte
	versions map[ExpertID]uint64
}

func (s *replStore) AcceptReplica(id ExpertID, payload []byte) error {
	ver, expert, err := DecodeRepl(payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replicas == nil {
		s.replicas = make(map[ExpertID][]byte)
		s.versions = make(map[ExpertID]uint64)
	}
	if cur, ok := s.versions[id]; ok && ver < cur {
		return nil // stale retransmission: monotone, idempotent
	}
	cp := make([]byte, len(expert))
	copy(cp, expert)
	s.replicas[id] = cp
	s.versions[id] = ver
	return nil
}

func TestReplicateAppliesStream(t *testing.T) {
	store := &replStore{memStore: newMemStore()}
	_, addr := startServer(t, store)

	c := NewClient(2)
	defer c.Close()
	id := ExpertID{Block: 1, Expert: 4}
	expert := []byte{10, 20, 30}
	payload, err := EncodeRepl(3, expert)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Replicate(ctx, addr, id, payload); err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	got, ver := store.replicas[id], store.versions[id]
	store.mu.Unlock()
	if !bytes.Equal(got, expert) || ver != 3 {
		t.Fatalf("replica %v@%d, want %v@3", got, ver, expert)
	}

	// An older version arriving late must not roll the replica back.
	older, err := EncodeRepl(2, []byte{99})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Replicate(ctx, addr, id, older); err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	got, ver = store.replicas[id], store.versions[id]
	store.mu.Unlock()
	if !bytes.Equal(got, expert) || ver != 3 {
		t.Fatalf("stale stream regressed replica to %v@%d", got, ver)
	}
}

func TestReplicateToPlainStoreIsRemoteError(t *testing.T) {
	_, addr := startServer(t, newMemStore())
	c := newFastClient(2, 3)
	defer c.Close()
	err := c.Replicate(ctx, addr, ExpertID{Expert: 1}, []byte{9})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestReplicateIsFenced(t *testing.T) {
	store := &replStore{memStore: newMemStore()}
	srv, addr := startServer(t, store)
	srv.SetEpochGate(epochStamp(5))

	c := newFastClient(2, 1)
	defer c.Close()
	payload, err := EncodeRepl(1, []byte{9})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Replicate(ctx, addr, ExpertID{Expert: 1}, payload); !errors.Is(err, ErrFencedEpoch) {
		t.Fatalf("err = %v, want fenced", err)
	}
	c.SetEpoch(5)
	if err := c.Replicate(ctx, addr, ExpertID{Expert: 1}, payload); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeRepl drives the REPL decoder with arbitrary bytes: it must
// never panic or over-allocate, and anything it accepts must re-encode
// to the identical canonical payload.
func FuzzDecodeRepl(f *testing.F) {
	if raw, err := EncodeRepl(7, []byte{1, 2, 3, 4}); err == nil {
		f.Add(raw)
	}
	if raw, err := EncodeRepl(0, nil); err == nil {
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, raw []byte) {
		ver, expert, err := DecodeRepl(raw)
		if err != nil {
			return
		}
		re, err := EncodeRepl(ver, expert)
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, raw) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d bytes out", len(raw), len(re))
		}
	})
}

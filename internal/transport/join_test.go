package transport

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// admitFixture is a small mixed-liveness membership snapshot.
func admitFixture() []MemberInfo {
	return []MemberInfo{
		{ID: 0, Addr: "127.0.0.1:1000", Alive: true},
		{ID: 1, Addr: "127.0.0.1:1001", Alive: false},
		{ID: 2, Addr: "", Alive: true},
	}
}

func TestAdmitRoundTrip(t *testing.T) {
	want := admitFixture()
	raw, err := EncodeAdmit(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAdmit(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d members, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("member %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestAdmitRejectsCorruption(t *testing.T) {
	raw, err := EncodeAdmit(admitFixture())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(raw); i++ {
		if _, err := DecodeAdmit(raw[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}
	if _, err := DecodeAdmit(append(append([]byte{}, raw...), 0)); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
	// A hostile member count must be rejected before allocating.
	bad := append([]byte{}, raw...)
	bad[0], bad[1], bad[2], bad[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := DecodeAdmit(bad); err == nil {
		t.Fatal("hostile member count decoded successfully")
	}
}

// joinRecorder is a JoinHandler that admits everyone with a canned
// snapshot and records what it saw.
type joinRecorder struct {
	mu      sync.Mutex
	senders []uint32
	addrs   []string
	refuse  error
}

func (j *joinRecorder) AdmitJoin(sender uint32, payload []byte) (uint64, []byte, error) {
	j.mu.Lock()
	j.senders = append(j.senders, sender)
	j.addrs = append(j.addrs, string(payload))
	refuse := j.refuse
	j.mu.Unlock()
	if refuse != nil {
		return 0, nil, refuse
	}
	admit, err := EncodeAdmit(admitFixture())
	if err != nil {
		return 0, nil, err
	}
	return 7, admit, nil
}

func TestJoinRoundTrip(t *testing.T) {
	store := newMemStore()
	srv, addr := startServer(t, store)
	rec := &joinRecorder{}
	srv.SetJoinHandler(rec)

	c := NewClientOptions(Options{MachineID: 3})
	defer c.Close()
	info, err := c.Join(ctx, addr, "127.0.0.1:2000")
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 7 {
		t.Fatalf("epoch %d, want 7", info.Epoch)
	}
	if len(info.Members) != 3 {
		t.Fatalf("%d members, want 3", len(info.Members))
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.senders) != 1 || rec.senders[0] != 3 {
		t.Fatalf("handler saw senders %v, want [3]", rec.senders)
	}
	if rec.addrs[0] != "127.0.0.1:2000" {
		t.Fatalf("handler saw addr %q", rec.addrs[0])
	}
}

func TestJoinRefusalIsRemoteError(t *testing.T) {
	_, addr := startServer(t, newMemStore())
	// No handler installed: JOIN must fail terminally, not retry.
	c := newFastClient(2, 3)
	defer c.Close()
	_, err := c.Join(ctx, addr, "127.0.0.1:2000")
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if got := c.Robust.Snapshot().Retries; got != 0 {
		t.Fatalf("join refusal was retried %d times", got)
	}
}

// epochStamp is a fixed-epoch gate for fencing tests.
type epochStamp uint64

func (e epochStamp) Epoch() uint64              { return uint64(e) }
func (e epochStamp) MachineAlive(m uint32) bool { return true }

func TestJoinBypassesEpochFence(t *testing.T) {
	srv, addr := startServer(t, newMemStore())
	srv.SetEpochGate(epochStamp(5))
	rec := &joinRecorder{}
	srv.SetJoinHandler(rec)

	// A joiner's epoch is 0 — older than the gate — yet JOIN must pass.
	c := newFastClient(2, 1)
	defer c.Close()
	if _, err := c.Join(ctx, addr, "x"); err != nil {
		t.Fatalf("join was fenced: %v", err)
	}
	// A plain pull with the same stale epoch must still be fenced.
	_, err := pull(ctx, c, addr, ExpertID{Expert: 1})
	if !errors.Is(err, ErrFencedEpoch) {
		t.Fatalf("pull err = %v, want fenced", err)
	}
}

// migStore is a memStore that also stages migrations.
type migStore struct {
	*memStore
	mu     sync.Mutex
	staged map[ExpertID][]byte
	fail   error
}

func (s *migStore) AcceptMigration(id ExpertID, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return s.fail
	}
	if s.staged == nil {
		s.staged = make(map[ExpertID][]byte)
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	s.staged[id] = cp
	return nil
}

func TestMigrateStagesPayload(t *testing.T) {
	store := &migStore{memStore: newMemStore()}
	_, addr := startServer(t, store)

	c := NewClient(2)
	defer c.Close()
	id := ExpertID{Block: 1, Expert: 4}
	payload := []byte{1, 2, 3, 4, 5}
	if err := c.Migrate(ctx, addr, id, payload); err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	got := store.staged[id]
	store.mu.Unlock()
	if !bytes.Equal(got, payload) {
		t.Fatalf("staged %v, want %v", got, payload)
	}
}

func TestMigrateToPlainStoreIsRemoteError(t *testing.T) {
	_, addr := startServer(t, newMemStore())
	c := newFastClient(2, 3)
	defer c.Close()
	err := c.Migrate(ctx, addr, ExpertID{Expert: 1}, []byte{9})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestMigrateIsFenced(t *testing.T) {
	store := &migStore{memStore: newMemStore()}
	srv, addr := startServer(t, store)
	srv.SetEpochGate(epochStamp(5))

	c := newFastClient(2, 1)
	defer c.Close()
	err := c.Migrate(ctx, addr, ExpertID{Expert: 1}, []byte{9})
	if !errors.Is(err, ErrFencedEpoch) {
		t.Fatalf("err = %v, want fenced", err)
	}
	c.SetEpoch(5)
	if err := c.Migrate(ctx, addr, ExpertID{Expert: 1}, []byte{9}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeAdmit drives the ADMIT decoder with arbitrary bytes: it
// must never panic or over-allocate, and anything it accepts must
// re-encode to the identical canonical payload.
func FuzzDecodeAdmit(f *testing.F) {
	if raw, err := EncodeAdmit(admitFixture()); err == nil {
		f.Add(raw)
	}
	if raw, err := EncodeAdmit(nil); err == nil {
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, raw []byte) {
		members, err := DecodeAdmit(raw)
		if err != nil {
			return
		}
		re, err := EncodeAdmit(members)
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, raw) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d bytes out", len(raw), len(re))
		}
	})
}

package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestServeRoundTrip(t *testing.T) {
	data := []float32{1, -2, 3.5, 0, 0.25, -0.125}
	raw, err := EncodeServe(1500, 2, 3, data)
	if err != nil {
		t.Fatal(err)
	}
	budget, rows, cols, got, err := DecodeServe(raw)
	if err != nil {
		t.Fatal(err)
	}
	if budget != 1500 || rows != 2 || cols != 3 {
		t.Fatalf("header %d/%dx%d, want 1500/2x3", budget, rows, cols)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("data[%d] = %v, want %v", i, got[i], data[i])
		}
	}
	out, err := EncodeServeOut(ProvReplica, data)
	if err != nil {
		t.Fatal(err)
	}
	prov, dec, err := DecodeServeOut(out)
	if err != nil {
		t.Fatal(err)
	}
	if prov != ProvReplica || len(dec) != len(data) || dec[2] != 3.5 {
		t.Fatalf("serve output decoded to %#x/%v", prov, dec)
	}
}

func TestServeRejectsCorruption(t *testing.T) {
	raw, err := EncodeServe(9, 1, 2, []float32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(raw); i++ {
		if _, _, _, _, err := DecodeServe(raw[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}
	if _, _, _, _, err := DecodeServe(append(append([]byte{}, raw...), 0)); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
	// A hostile shape must be rejected before allocating.
	bad := append([]byte{}, raw...)
	binary.BigEndian.PutUint32(bad[8:12], 0xFFFFFFFF)
	binary.BigEndian.PutUint32(bad[12:16], 0xFFFFFFFF)
	if _, _, _, _, err := DecodeServe(bad); err == nil {
		t.Fatal("hostile shape decoded successfully")
	}
	// Empty shapes are not a legal micro-batch.
	bad = append([]byte{}, raw[:serveHeaderBytes]...)
	binary.BigEndian.PutUint32(bad[8:12], 0)
	binary.BigEndian.PutUint32(bad[12:16], 0)
	if _, _, _, _, err := DecodeServe(bad); err == nil {
		t.Fatal("empty shape decoded successfully")
	}
	// Shape/data mismatch at encode time.
	if _, err := EncodeServe(1, 2, 2, []float32{1}); err == nil {
		t.Fatal("mismatched encode shape accepted")
	}
	// Output corruption: unknown provenance and ragged float bytes.
	out, err := EncodeServeOut(ProvOwner, []float32{1})
	if err != nil {
		t.Fatal(err)
	}
	bad = append([]byte{}, out...)
	bad[0] = 0x7E
	if _, _, err := DecodeServeOut(bad); err == nil {
		t.Fatal("unknown provenance decoded successfully")
	}
	if _, _, err := DecodeServeOut(out[:len(out)-1]); err == nil {
		t.Fatal("ragged output decoded successfully")
	}
	if _, _, err := DecodeServeOut(nil); err == nil {
		t.Fatal("empty output decoded successfully")
	}
	if _, err := EncodeServeOut(0x55, nil); err == nil {
		t.Fatal("unknown provenance encoded successfully")
	}
}

// servingStore is a memStore that also answers inference micro-batches
// by echoing each row scaled by 2 — enough structure for the wire tests
// to verify shape and content end to end.
type servingStore struct {
	*memStore
	mu      sync.Mutex
	served  int
	expired int
}

func (s *servingStore) ServeExpert(id ExpertID, payload []byte) ([]byte, error) {
	budget, _, _, data, err := DecodeServe(payload)
	if err != nil {
		return nil, err
	}
	if budget == 0 {
		s.mu.Lock()
		s.expired++
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: b%d/e%d", ErrServeExpired, id.Block, id.Expert)
	}
	out := make([]float32, len(data))
	for i, v := range data {
		out[i] = 2 * v
	}
	s.mu.Lock()
	s.served++
	s.mu.Unlock()
	return EncodeServeOut(ProvOwner, out)
}

func TestServeExpertEndToEnd(t *testing.T) {
	store := &servingStore{memStore: newMemStore()}
	_, addr := startServer(t, store)
	c := newFastClient(2, 3)
	defer c.Close()

	payload, err := EncodeServe(50_000, 2, 2, []float32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	prov, out, err := c.ServeExpert(ctx, addr, ExpertID{Expert: 1}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if prov != ProvOwner {
		t.Fatalf("provenance %#x, want owner", prov)
	}
	want := []float32{2, 4, 6, 8}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}

	// An expired budget is refused server-side, not computed.
	payload, err = EncodeServe(0, 1, 1, []float32{1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.ServeExpert(ctx, addr, ExpertID{Expert: 1}, payload)
	if !IsServeExpired(err) {
		t.Fatalf("err = %v, want serve-expired", err)
	}
	store.mu.Lock()
	served, expired := store.served, store.expired
	store.mu.Unlock()
	if served != 1 || expired != 1 {
		t.Fatalf("served/expired = %d/%d, want 1/1", served, expired)
	}
}

func TestServeToPlainStoreIsRemoteError(t *testing.T) {
	_, addr := startServer(t, newMemStore())
	c := newFastClient(2, 3)
	defer c.Close()
	payload, err := EncodeServe(1000, 1, 1, []float32{1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.ServeExpert(ctx, addr, ExpertID{Expert: 1}, payload)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if IsServeExpired(err) {
		t.Fatal("capability error misread as budget expiry")
	}
}

func TestServeIsFenced(t *testing.T) {
	store := &servingStore{memStore: newMemStore()}
	srv, addr := startServer(t, store)
	srv.SetEpochGate(epochStamp(5))
	c := newFastClient(2, 1)
	defer c.Close()
	payload, err := EncodeServe(1000, 1, 1, []float32{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ServeExpert(ctx, addr, ExpertID{Expert: 1}, payload); !errors.Is(err, ErrFencedEpoch) {
		t.Fatalf("err = %v, want fenced", err)
	}
	c.SetEpoch(5)
	if _, _, err := c.ServeExpert(ctx, addr, ExpertID{Expert: 1}, payload); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeServe drives the SERVE decoder with arbitrary bytes: it
// must never panic or over-allocate, and anything it accepts must
// re-encode to the identical canonical payload.
func FuzzDecodeServe(f *testing.F) {
	if raw, err := EncodeServe(1234, 2, 3, []float32{1, 2, 3, 4, 5, 6}); err == nil {
		f.Add(raw)
	}
	if raw, err := EncodeServe(0, 1, 1, []float32{0}); err == nil {
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, raw []byte) {
		budget, rows, cols, data, err := DecodeServe(raw)
		if err != nil {
			return
		}
		re, err := EncodeServe(budget, rows, cols, data)
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, raw) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d bytes out", len(raw), len(re))
		}
	})
}

package checkpoint

import (
	"bytes"
	"testing"
)

func streamFixture() *Snapshot {
	return &Snapshot{
		Step: 17,
		Experts: map[uint32][]byte{
			3: {1, 2, 3, 4},
			0: {},
			9: {0xFF, 0x00, 0xAA},
		},
		Dense: []byte{5, 6, 7},
	}
}

func TestStreamRoundTrip(t *testing.T) {
	snap := streamFixture()
	raw, err := EncodeStream(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStream(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != snap.Step {
		t.Fatalf("step %d, want %d", got.Step, snap.Step)
	}
	if len(got.Experts) != len(snap.Experts) {
		t.Fatalf("%d experts, want %d", len(got.Experts), len(snap.Experts))
	}
	for id, data := range snap.Experts {
		if !bytes.Equal(got.Experts[id], data) {
			t.Fatalf("expert %d: %v, want %v", id, got.Experts[id], data)
		}
	}
	if !bytes.Equal(got.Dense, snap.Dense) {
		t.Fatalf("dense %v, want %v", got.Dense, snap.Dense)
	}
}

func TestStreamRoundTripNoDense(t *testing.T) {
	snap := &Snapshot{Step: 0, Experts: map[uint32][]byte{7: {9}}}
	raw, err := EncodeStream(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStream(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dense != nil {
		t.Fatalf("dense should stay nil, got %v", got.Dense)
	}
}

func TestStreamCarriesModelVersion(t *testing.T) {
	raw, err := EncodeStream(&Snapshot{Step: 4, ModelVersion: 2, Experts: map[uint32][]byte{1: {3}}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStream(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.ModelVersion != 2 {
		t.Fatalf("ModelVersion = %d, want 2", got.ModelVersion)
	}
}

func TestStreamRejectsCorruption(t *testing.T) {
	raw, err := EncodeStream(streamFixture())
	if err != nil {
		t.Fatal(err)
	}
	// Flip every byte in turn; no single-bit-flipped stream may decode.
	for i := range raw {
		bad := make([]byte, len(raw))
		copy(bad, raw)
		bad[i] ^= 0xFF
		if _, err := DecodeStream(bad); err == nil {
			t.Fatalf("flipping byte %d decoded successfully", i)
		}
	}
	// Truncations must fail too.
	for i := 0; i < len(raw); i++ {
		if _, err := DecodeStream(raw[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}
	// Trailing garbage is not a valid stream either.
	if _, err := DecodeStream(append(append([]byte{}, raw...), 0)); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
}

func TestStreamRejectsNilAndNegative(t *testing.T) {
	if _, err := EncodeStream(nil); err == nil {
		t.Fatal("nil snapshot encoded")
	}
	if _, err := EncodeStream(&Snapshot{Step: -1}); err == nil {
		t.Fatal("negative step encoded")
	}
	if _, err := EncodeStream(&Snapshot{ModelVersion: -1}); err == nil {
		t.Fatal("negative model version encoded")
	}
}

// TestStreamRangeBound: the encoder accepts exactly what the decoder
// does — a step or model version of 2^62 round-trips, one more is
// rejected on encode.
func TestStreamRangeBound(t *testing.T) {
	raw, err := EncodeStream(&Snapshot{Step: 1 << 62, ModelVersion: 1 << 62})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStream(raw)
	if err != nil || got.Step != 1<<62 || got.ModelVersion != 1<<62 {
		t.Fatalf("2^62 round trip = %+v, %v", got, err)
	}
	if _, err := EncodeStream(&Snapshot{Step: 1<<62 + 1}); err == nil {
		t.Fatal("step 2^62+1 encoded")
	}
	if _, err := EncodeStream(&Snapshot{ModelVersion: 1<<62 + 1}); err == nil {
		t.Fatal("model version 2^62+1 encoded")
	}
}

// TestDecodeStreamCopies: DecodeStream's snapshot owns its payloads, so
// the caller may reuse the input at once (a migration payload lives in
// a recycled frame buffer).
func TestDecodeStreamCopies(t *testing.T) {
	want := streamFixture()
	raw, err := EncodeStream(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStream(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 0xA5
	}
	for id, data := range want.Experts {
		if !bytes.Equal(got.Experts[id], data) {
			t.Fatalf("expert %d: %v after scribbling over the input, want %v", id, got.Experts[id], data)
		}
	}
	if !bytes.Equal(got.Dense, want.Dense) {
		t.Fatalf("dense %v after scribbling over the input, want %v", got.Dense, want.Dense)
	}
}

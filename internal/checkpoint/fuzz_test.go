package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzDecodeStream drives the wire-snapshot decoder with arbitrary
// bytes: it must never panic or over-allocate, and anything it accepts
// must re-encode to the identical canonical byte stream.
func FuzzDecodeStream(f *testing.F) {
	if raw, err := EncodeStream(streamFixture()); err == nil {
		f.Add(raw)
	}
	if raw, err := EncodeStream(&Snapshot{Experts: map[uint32][]byte{}}); err == nil {
		f.Add(raw)
	}
	f.Add(streamMagic)
	f.Add([]byte{})
	if raw, err := EncodeStream(&Snapshot{Step: 3, ModelVersion: 2, Experts: map[uint32][]byte{5: {1}}, Dense: []byte{2}}); err == nil {
		f.Add(raw)
	}
	if raw, err := EncodeStream(&Snapshot{Step: 1, Experts: map[uint32][]byte{0: {7, 8}}}); err == nil {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		snap, err := DecodeStream(raw)
		if err != nil {
			return
		}
		re, err := EncodeStream(snap)
		if err != nil {
			t.Fatalf("accepted stream failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, raw) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d bytes out", len(raw), len(re))
		}
	})
}

package livecluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"janus/internal/moe"
)

// FuzzDecodeTrainGrad throws arbitrary payloads at the JGR1 gradient
// decoder: it must never panic regardless of length or content, must
// reject everything whose length does not match the hidden size
// exactly, and must round-trip every payload it accepts.
func FuzzDecodeTrainGrad(f *testing.F) {
	const h = 2
	mk := func(step uint64, source int, fill float32) []byte {
		g := moe.NewExpertGrad(h)
		for i := range g.DW1.Data {
			g.DW1.Data[i] = fill + float32(i)
		}
		for i := range g.DW2.Data {
			g.DW2.Data[i] = -fill - float32(i)
		}
		return encodeTrainGrad(step, source, g)
	}
	// Valid corpus, plus the corruption shapes: truncation, a flipped
	// magic, a flipped float byte (decodes fine — content is opaque), an
	// oversized tail, and an 8-byte payload shorter than the header.
	valid := mk(3, 1, 0.5)
	f.Add(valid)
	f.Add(mk(0, 0, 0))
	f.Add(mk(^uint64(0), 255, float32(math.Inf(1))))
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:trainGradHeaderBytes])
	flippedMagic := append([]byte{}, valid...)
	flippedMagic[0] ^= 0xFF
	f.Add(flippedMagic)
	flippedFloat := append([]byte{}, valid...)
	flippedFloat[trainGradHeaderBytes] ^= 0x80
	f.Add(flippedFloat)
	f.Add(append(append([]byte{}, valid...), 0xEE))
	f.Add(binary.LittleEndian.AppendUint64(nil, 7))
	f.Add([]byte{})

	want := trainGradHeaderBytes + 4*(2*h*4*h)
	f.Fuzz(func(t *testing.T, payload []byte) {
		step, source, g, err := decodeTrainGrad(payload, h)
		if err != nil {
			if len(payload) == want && binary.BigEndian.Uint32(payload) == trainGradMagic {
				t.Fatalf("well-formed payload rejected: %v", err)
			}
			return
		}
		if len(payload) != want {
			t.Fatalf("accepted %d-byte payload, decoder requires exactly %d", len(payload), want)
		}
		if len(g.DW1.Data) != h*4*h || len(g.DW2.Data) != h*4*h {
			t.Fatalf("decoded gradient has wrong shape: %d/%d", len(g.DW1.Data), len(g.DW2.Data))
		}
		// Round-trip: bit patterns survive, even NaN payloads (compare
		// bytes, not floats).
		if reenc := encodeTrainGrad(step, source, g); !bytes.Equal(reenc, payload) {
			t.Fatal("decode/encode round trip changed the payload bytes")
		}
	})
}

package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// frameBytes serialises a frame the way the wire does, for seeding.
func frameBytes(f frame) []byte {
	var out bytes.Buffer
	if err := writeFrame(bufio.NewWriter(&out), f); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// FuzzReadFrame throws arbitrary byte streams at the frame decoder: it
// must never panic, never allocate from a hostile length prefix, and
// must round-trip every frame it does accept through writeFrame
// byte-identically.
func FuzzReadFrame(f *testing.F) {
	valid := []frame{
		{typ: msgPullV, reqID: 1, epoch: 7, sender: 2, id: ExpertID{Block: 1, Expert: 9},
			payload: []byte{0, 0, 0, 0, 0, 0, 0, 4}},
		{typ: msgGrad, reqID: 2, epoch: 0, sender: 0, id: ExpertID{Expert: 3},
			payload: bytes.Repeat([]byte{0xAB}, gradTokenBytes+4)},
		{typ: msgPong, reqID: 3, epoch: 42, payload: []byte{pongFlagReadmitted}},
		{typ: msgFenced, reqID: 4, epoch: 9, payload: []byte{0}},
		{typ: msgExpert, reqID: 5, payload: []byte{1, 2, 3, 4}},
	}
	var seeds [][]byte
	for _, fr := range valid {
		seeds = append(seeds, frameBytes(fr))
	}
	// Two frames back to back: decoding must resynchronise correctly.
	seeds = append(seeds, append(append([]byte{}, seeds[0]...), seeds[2]...))
	// PR 1 corruption corpus: truncations, zero/huge/undersized length
	// prefixes, and flipped type bytes.
	seeds = append(seeds,
		seeds[0][:3],
		seeds[1][:len(seeds[1])-2],
		[]byte{0, 0, 0, 0},
		[]byte{0xFF, 0xFF, 0xFF, 0xFF, 1},
		[]byte{0, 0, 0, 5, 9, 9, 9, 9, 9},
	)
	if len(seeds) > 0 {
		corrupted := append([]byte{}, seeds[0]...)
		corrupted[4] ^= 0xFF
		seeds = append(seeds, corrupted)
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 4; i++ {
			fr, err := readFrame(r)
			if err != nil {
				return // rejection is fine; panics and hangs are not
			}
			if len(fr.payload) > maxFrameBytes {
				t.Fatalf("decoded payload of %d bytes past the frame cap", len(fr.payload))
			}
			// Round-trip: re-encoding an accepted frame must reproduce
			// the exact bytes the decoder consumed.
			reenc := frameBytes(fr)
			consumed := 4 + frameHeaderBytes + len(fr.payload)
			if !bytes.Equal(reenc, data[:consumed]) {
				t.Fatalf("round-trip mismatch: %x != %x", reenc, data[:consumed])
			}
			data = data[consumed:]
			fr.recycle()
		}
	})
}

// FuzzReadFrame's length check is load-bearing: make sure the constant
// matches the writer (a drifting header would silently corrupt every
// frame, and the fuzzer's round-trip property depends on it).
func TestFrameHeaderConstantMatchesWriter(t *testing.T) {
	b := frameBytes(frame{typ: msgPing})
	if len(b) != 4+frameHeaderBytes {
		t.Fatalf("header-only frame is %d bytes, want %d", len(b), 4+frameHeaderBytes)
	}
	if got := binary.BigEndian.Uint32(b[0:4]); got != frameHeaderBytes {
		t.Fatalf("length prefix %d, want %d", got, frameHeaderBytes)
	}
}

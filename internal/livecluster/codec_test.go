package livecluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"janus/internal/moe"
	"janus/internal/tensor"
)

// goldenFloats fills data with seeded values plus the bit patterns a
// byte-level codec could mangle: signed zeros, infinities, subnormals
// and NaNs with distinct payloads.
func goldenFloats(rng *rand.Rand, data []float32) {
	special := []uint32{0x80000000, 0x7f800000, 0xff800000, 0x00000001, 0x807fffff, 0x7fc00001, 0xffc12345, 0x7f800abc}
	for i := range data {
		if i < len(special) {
			data[i] = math.Float32frombits(special[i])
			continue
		}
		data[i] = float32(rng.NormFloat64())
	}
}

// TestWireGoldenBytes pins the expert and JGR1 gradient encodings of
// one seeded input to their SHA-256: the bytes on the wire must not
// move when the codec's implementation does.
func TestWireGoldenBytes(t *testing.T) {
	const h = 8
	rng := rand.New(rand.NewSource(37))
	e := moe.NewExpert(h, 5)
	goldenFloats(rng, e.W1.Data)
	goldenFloats(rng, e.W2.Data)
	g := moe.NewExpertGrad(h)
	goldenFloats(rng, g.DW1.Data)
	goldenFloats(rng, g.DW2.Data)
	for _, tc := range []struct {
		name, want string
		got        []byte
	}{
		{"expert", "ad9471876eba7ae347ce5f12a59e4b4d4c38dd5fc573f28ea750eb630dca226f", encodeExpertInto(nil, e)},
		{"JGR1", "0318b324cf50803c4d08033fe517a4a4f6f739ffb6019ce2b1d7e07f775a4f63", encodeTrainGradInto(nil, 0x0102030405060708, 3, g)},
	} {
		sum := sha256.Sum256(tc.got)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s encoding sha256 = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestDecodeMatrixRejectsCraftedShapes feeds the checkpoint's dense-
// entry decoder shapes whose byte count overflows or disagrees with the
// payload. Each must fail cleanly, not panic: for 2^31 × 2^31 the
// unchecked size 8+4·rows·cols wraps to 8, the length of the payload.
func TestDecodeMatrixRejectsCraftedShapes(t *testing.T) {
	m := tensor.NewRandom(3, 5, 1, 9)
	raw := encodeMatrix(m)
	back, err := decodeMatrix(raw)
	if err != nil || !tensor.Equal(back, m) {
		t.Fatalf("round trip: err %v, equal %v", err, err == nil && tensor.Equal(back, m))
	}
	shape := func(rows, cols uint32, tail int) []byte {
		b := binary.LittleEndian.AppendUint32(nil, rows)
		b = binary.LittleEndian.AppendUint32(b, cols)
		return append(b, make([]byte, tail)...)
	}
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"wraps to 8 bytes", shape(1<<31, 1<<31, 0)},
		{"wraps to 8 bytes, max", shape(1<<32-1, 1<<32-1, 4)},
		{"shape far beyond the payload", shape(1<<30, 1<<30, 0)},
		{"zero rows", shape(0, 5, 0)},
		{"short by one float", shape(3, 5, 4*14)},
		{"long by one byte", append(raw[:len(raw):len(raw)], 0)},
		{"header only", raw[:8]},
		{"truncated header", raw[:7]},
	} {
		if _, err := decodeMatrix(tc.raw); err == nil {
			t.Errorf("%s: decodeMatrix accepted a %d-byte payload", tc.name, len(tc.raw))
		}
	}
}

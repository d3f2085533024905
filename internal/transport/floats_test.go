package transport

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// goldenServeFloats is one seeded micro-batch whose head holds the bit
// patterns a byte-level codec could mangle: signed zeros, infinities,
// subnormals and NaNs with distinct payloads.
func goldenServeFloats(n int) []float32 {
	special := []uint32{0x80000000, 0x7f800000, 0xff800000, 0x00000001, 0x807fffff, 0x7fc00001, 0xffc12345, 0x7f800abc}
	rng := rand.New(rand.NewSource(41))
	data := make([]float32, n)
	for i := range data {
		if i < len(special) {
			data[i] = math.Float32frombits(special[i])
			continue
		}
		data[i] = float32(rng.NormFloat64())
	}
	return data
}

// TestServeGoldenBytes pins the SERVE and SERVEOUT encodings of one
// seeded input to their SHA-256: the bytes on the wire must not move
// when the codec's implementation does.
func TestServeGoldenBytes(t *testing.T) {
	data := goldenServeFloats(6 * 16)
	serve, err := EncodeServe(0x0102030405060708, 6, 16, data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := EncodeServeOut(ProvReplica, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		got        []byte
	}{
		{"SERVE", "98484c3be9b409cb4667afa4add3b0a2d546e2225acac3e8a26bd9e6c87fbbdc", serve},
		{"SERVEOUT", "6a3311f451773b3f8194d5b2f24d198ff4daa1fe4cec7a480f67308ab3cb5692", out},
	} {
		sum := sha256.Sum256(tc.got)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s encoding sha256 = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFloatRunsCopyMatchesLoop holds the one-copy float-run path to the
// portable per-element loop that big-endian hosts run: the same bytes
// out of every encode and the same bits out of every decode, NaN
// payloads included, at lengths around the copy's word boundaries.
func TestFloatRunsCopyMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 3, 4, 7, 64, 1000} {
		src := make([]float32, n)
		for i := range src {
			src[i] = math.Float32frombits(rng.Uint32()) // any pattern: NaNs, subnormals, ±0
		}
		fast, slow := make([]byte, 4*n+3), make([]byte, 4*n+3)
		PutFloat32s(fast, src)
		putFloat32sLoop(slow, src)
		if !bytes.Equal(fast, slow) {
			t.Fatalf("n=%d: PutFloat32s bytes differ from the portable loop", n)
		}
		fastBack, slowBack := make([]float32, n), make([]float32, n)
		Float32s(fastBack, fast)
		float32sLoop(slowBack, fast)
		for i := range src {
			if b := math.Float32bits(src[i]); math.Float32bits(fastBack[i]) != b || math.Float32bits(slowBack[i]) != b {
				t.Fatalf("n=%d: element %d decodes to %#x (copy) / %#x (loop), want %#x",
					n, i, math.Float32bits(fastBack[i]), math.Float32bits(slowBack[i]), b)
			}
		}
	}
}

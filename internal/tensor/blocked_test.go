package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// randomSpecial draws a matrix of the values that break a kernel which
// reorders, fuses or skips differently from the serial reference: −0,
// ±Inf, subnormals, ±3e38 (whose products overflow to Inf), NaN, and
// runs of zeros long enough to straddle a fold group of four.
func randomSpecial(rng *rand.Rand, rows, cols int) *Matrix {
	specials := []float32{
		float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), math.Float32frombits(0x807fffff), // subnormals
		3e38, -3e38,
		float32(math.NaN()),
	}
	m := New(rows, cols)
	for i := 0; i < len(m.Data); i++ {
		switch r := rng.Intn(16); {
		case r == 0: // a zero run of 2–6
			for z := 2 + rng.Intn(5); z > 0 && i < len(m.Data); z-- {
				m.Data[i] = 0
				i++
			}
			i--
		case r == 1:
			m.Data[i] = specials[rng.Intn(len(specials))]
		default:
			m.Data[i] = float32((rng.Float64()*2 - 1) * float64(uint(1)<<uint(rng.Intn(8))))
		}
	}
	return m
}

// sameBits reports whether got and want have the same shape and the
// same bits element by element, except that any NaN matches any NaN:
// which NaN operand's payload survives an add is the compiler's choice
// of operand order on x86, not part of the kernels' contract.
func sameBits(got, want *Matrix) bool {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return false
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return false
		}
	}
	return true
}

// TestBlockedKernelsBitIdentical property-tests the matmul kernels
// directly (bypassing the fan-out, so small shapes exercise partial
// tiles, partial fold groups and odd remainders too) against the
// retained serial references. Bit equality, not tolerance: tiling and
// folding must not reorder, fuse or skip a single term. Each shape runs
// twice — once on mixed-magnitude data with zeros, once on special
// values.
func TestBlockedKernelsBitIdentical(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1},
		{3, blockK - 1, 5},
		{7, blockK, blockJ},
		{9, blockK + 1, blockJ + 1},
		{17, 2*blockK + 13, 2*blockJ + 7},
		{33, 200, 97},
		{4, 137, 290},
	}
	for seed := 0; seed < 20; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		r := 1 + rng.Intn(60)
		k := 1 + rng.Intn(300)
		c := 1 + rng.Intn(300)
		shapes = append(shapes, [3]int{r, k, c})
	}
	gens := []struct {
		name string
		draw func(*rand.Rand, int, int) *Matrix
	}{{"sparse", randomSparse}, {"special", randomSpecial}}
	for _, sh := range shapes {
		for _, gen := range gens {
			r, k, c := sh[0], sh[1], sh[2]
			rng := rand.New(rand.NewSource(int64(r*1000003 + k*1009 + c)))

			a := gen.draw(rng, r, k)
			b := gen.draw(rng, k, c)
			got := New(r, c)
			matMulRowsBlocked(a, b, got, 0, r)
			if want := matMulSerial(a, b); !sameBits(got, want) {
				t.Fatalf("%s: MatMul %dx%d·%dx%d diverges from serial (maxdiff %v)",
					gen.name, r, k, k, c, MaxAbsDiff(got, want))
			}

			at := gen.draw(rng, k, r)
			gotA := New(r, c)
			matMulTransARowsBlocked(at, b, gotA, 0, r)
			if want := matMulTransASerial(at, b); !sameBits(gotA, want) {
				t.Fatalf("%s: MatMulTransA %dx%dᵀ·%dx%d diverges from serial (maxdiff %v)",
					gen.name, k, r, k, c, MaxAbsDiff(gotA, want))
			}
			// A weight gradient folds from +0, so it never holds −0:
			// the live trainer's gradient folds start from the first
			// contribution on that invariant (+0 + g == g bitwise).
			for i, v := range gotA.Data {
				if math.Float32bits(v) == 0x80000000 {
					t.Fatalf("%s: MatMulTransA onto zeros yields −0 at %d", gen.name, i)
				}
			}

			bt := gen.draw(rng, c, k)
			gotB := New(r, c)
			// Poison the output: the TransB contract is full overwrite, so
			// the kernel must not fold leftovers into tile 0.
			for i := range gotB.Data {
				gotB.Data[i] = 1e30
			}
			matMulTransBRowsBlocked(a, bt, gotB, 0, r)
			if want := matMulTransBSerial(a, bt); !sameBits(gotB, want) {
				t.Fatalf("%s: MatMulTransB %dx%d·%dx%dᵀ diverges from serial (maxdiff %v)",
					gen.name, r, k, c, k, MaxAbsDiff(gotB, want))
			}
		}
	}
}

// TestBlockedKernelsRowRange checks that the blocked kernels respect a
// row partition: computing [0,mid) and [mid,rows) separately must land
// on the serial result, since fanOutRows hands them exactly such
// ranges.
func TestBlockedKernelsRowRange(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	r, k, c := 45, 2*blockK+9, blockJ+33
	a := randomSparse(rng, r, k)
	b := randomSparse(rng, k, c)
	got := New(r, c)
	mid := r / 3
	matMulRowsBlocked(a, b, got, mid, r)
	matMulRowsBlocked(a, b, got, 0, mid)
	if want := matMulSerial(a, b); !Equal(got, want) {
		t.Fatalf("blocked MatMul split rows diverge from serial (maxdiff %v)", MaxAbsDiff(got, want))
	}
}

// TestBlockedSelectionBitIdentical drives the public Into entry points
// at a shape of several k- and j-tiles that also fans out across the
// worker pool, and pins the result to the serial references.
func TestBlockedSelectionBitIdentical(t *testing.T) {
	r, k, c := 40, 4*blockK, blockJ+8
	rng := rand.New(rand.NewSource(11))
	a := randomSparse(rng, r, k)
	b := randomSparse(rng, k, c)
	out := New(r, c)
	MatMulInto(a, b, out)
	if want := matMulSerial(a, b); !Equal(out, want) {
		t.Fatalf("MatMulInto diverges from serial (maxdiff %v)", MaxAbsDiff(out, want))
	}

	at := randomSparse(rng, k, r)
	outA := New(r, c)
	MatMulTransAInto(at, b, outA)
	if want := matMulTransASerial(at, b); !Equal(outA, want) {
		t.Fatalf("MatMulTransAInto diverges from serial (maxdiff %v)", MaxAbsDiff(outA, want))
	}

	bt := randomSparse(rng, c, k)
	outB := New(r, c)
	MatMulTransBInto(a, bt, outB)
	if want := matMulTransBSerial(a, bt); !Equal(outB, want) {
		t.Fatalf("MatMulTransBInto diverges from serial (maxdiff %v)", MaxAbsDiff(outB, want))
	}
}

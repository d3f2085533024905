package tensor

import (
	"math/rand"
	"testing"
)

// TestBlockedKernelsBitIdentical property-tests the cache-blocked
// kernels directly (bypassing shape selection, so small shapes exercise
// partial tiles and odd remainders too) against the retained serial
// references. Bit equality, not tolerance: blocking must not reorder a
// single addition.
func TestBlockedKernelsBitIdentical(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1},
		{3, blockK - 1, 5},
		{7, blockK, blockJ},
		{9, blockK + 1, blockJ + 1},
		{17, 2*blockK + 13, 2*blockJ + 7},
		{33, 200, 97},
	}
	for seed := 0; seed < 20; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		r := 1 + rng.Intn(60)
		k := 1 + rng.Intn(300)
		c := 1 + rng.Intn(300)
		shapes = append(shapes, [3]int{r, k, c})
	}
	for _, sh := range shapes {
		r, k, c := sh[0], sh[1], sh[2]
		rng := rand.New(rand.NewSource(int64(r*1000003 + k*1009 + c)))

		a := randomSparse(rng, r, k)
		b := randomSparse(rng, k, c)
		got := New(r, c)
		matMulRowsBlocked(a, b, got, 0, r)
		if want := matMulSerial(a, b); !Equal(got, want) {
			t.Fatalf("blocked MatMul %dx%d·%dx%d diverges from serial (maxdiff %v)",
				r, k, k, c, MaxAbsDiff(got, want))
		}

		at := randomSparse(rng, k, r)
		gotA := New(r, c)
		matMulTransARowsBlocked(at, b, gotA, 0, r)
		if want := matMulTransASerial(at, b); !Equal(gotA, want) {
			t.Fatalf("blocked MatMulTransA %dx%dᵀ·%dx%d diverges from serial (maxdiff %v)",
				k, r, k, c, MaxAbsDiff(gotA, want))
		}

		bt := randomSparse(rng, c, k)
		gotB := New(r, c)
		// Poison the output: the TransB contract is full overwrite, so
		// the blocked kernel must not fold leftovers into tile 0.
		for i := range gotB.Data {
			gotB.Data[i] = 1e30
		}
		matMulTransBRowsBlocked(a, bt, gotB, 0, r)
		if want := matMulTransBSerial(a, bt); !Equal(gotB, want) {
			t.Fatalf("blocked MatMulTransB %dx%d·%dx%dᵀ diverges from serial (maxdiff %v)",
				r, k, c, k, MaxAbsDiff(gotB, want))
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
// at a shape large enough to select the blocked kernels and pins the
// result to the serial references — the selection itself must be
// invisible in the bits.
func TestBlockedSelectionBitIdentical(t *testing.T) {
	r, k, c := 40, blockedMinK*2, blockedMinFoot/blockedMinK+8
	if !useBlocked(k, k*c) {
		t.Fatalf("shape %dx%dx%d should select the blocked kernel", r, k, c)
	}
	rng := rand.New(rand.NewSource(11))
	a := randomSparse(rng, r, k)
	b := randomSparse(rng, k, c)
	out := New(r, c)
	MatMulInto(a, b, out)
	if want := matMulSerial(a, b); !Equal(out, want) {
		t.Fatalf("MatMulInto blocked selection diverges from serial (maxdiff %v)", MaxAbsDiff(out, want))
	}

	at := randomSparse(rng, k, r)
	outA := New(r, c)
	MatMulTransAInto(at, b, outA)
	if want := matMulTransASerial(at, b); !Equal(outA, want) {
		t.Fatalf("MatMulTransAInto blocked selection diverges from serial (maxdiff %v)", MaxAbsDiff(outA, want))
	}

	bt := randomSparse(rng, c, k)
	outB := New(r, c)
	MatMulTransBInto(a, bt, outB)
	if want := matMulTransBSerial(a, bt); !Equal(outB, want) {
		t.Fatalf("MatMulTransBInto blocked selection diverges from serial (maxdiff %v)", MaxAbsDiff(outB, want))
	}
}

// The matmul kernels: one per product, each tiled over the reduction
// dimension (blockK) and, for the accumulating two, the output columns
// (blockJ), so one operand tile stays hot across a whole row range —
// the CPU analogue of staging a tile in shared memory on an
// accelerator. The same kernel serves every shape: at the live
// trainer's small shapes one tile covers the whole operand, so the
// tiling costs nothing.
//
// Determinism argument, extending parallel.go's: for any single output
// element out[i][j] the reduction terms are added to one accumulator in
// ascending-k order, with the same zero skips and the same per-term
// product as the serial reference. Float addition is applied term by
// term (a strict left fold) in both versions, and every float32
// operation rounds on its own, so where the running sum lives between
// terms — a register across a fold group of four, out[i][j] between
// groups and k-tiles — cannot change a single bit. Every product is
// written float32(a*b): the explicit conversion forces its rounding, so
// a compiler that fuses multiply-add (arm64 does, amd64 does not) still
// computes the serial reference's bits. The one exception is a NaN's
// payload: when two NaNs meet in an add, x86 keeps whichever operand
// the compiler placed first. blocked_test.go property-tests all three
// kernels bitwise against the retained serial references, special
// values included (any NaN matching any NaN), and
// TestNoFusedMultiplyAdd holds the arm64 assembly to zero fused
// instructions.
package tensor

const (
	// blockK is the reduction-dimension tile: how many rows of the
	// streamed operand are kept hot per pass.
	blockK = 64
	// blockJ is the output-column tile, sized so one tile of the
	// output row plus one tile of the operand row stay in L1.
	blockJ = 256
)

// foldGroup is up to four non-zero k-terms of one output row, in
// ascending k: multiplicands av[t] against operand rows br[t].
type foldGroup struct {
	av [4]float32
	br [4][]float32
	n  int
}

// add appends one term and reports whether the group is now full.
func (g *foldGroup) add(av float32, brow []float32) bool {
	g.av[g.n], g.br[g.n] = av, brow
	g.n++
	return g.n == len(g.av)
}

// fold adds the group's terms into orow element-wise, term by term in
// ascending k, through one register per element: one load and one
// store of orow[j] per group instead of one per term. Every br[t] is at
// least len(orow) long.
func (g *foldGroup) fold(orow []float32) {
	n := len(orow)
	switch g.n {
	case 4:
		a0, a1, a2, a3 := g.av[0], g.av[1], g.av[2], g.av[3]
		b0, b1, b2, b3 := g.br[0][:n], g.br[1][:n], g.br[2][:n], g.br[3][:n]
		for j, s := range orow {
			s += float32(a0 * b0[j])
			s += float32(a1 * b1[j])
			s += float32(a2 * b2[j])
			s += float32(a3 * b3[j])
			orow[j] = s
		}
	case 3:
		a0, a1, a2 := g.av[0], g.av[1], g.av[2]
		b0, b1, b2 := g.br[0][:n], g.br[1][:n], g.br[2][:n]
		for j, s := range orow {
			s += float32(a0 * b0[j])
			s += float32(a1 * b1[j])
			s += float32(a2 * b2[j])
			orow[j] = s
		}
	case 2:
		a0, a1 := g.av[0], g.av[1]
		b0, b1 := g.br[0][:n], g.br[1][:n]
		for j, s := range orow {
			s += float32(a0 * b0[j])
			s += float32(a1 * b1[j])
			orow[j] = s
		}
	case 1:
		a0, b0 := g.av[0], g.br[0][:n]
		for j, s := range orow {
			orow[j] = s + float32(a0*b0[j])
		}
	}
	g.n = 0
}

// matMulRowsBlocked computes rows [lo, hi) of out = a·b, accumulating
// into out (which arrives zeroed). k-tiles are visited ascending, each
// element's column belongs to exactly one j-tile, and within a tile the
// non-zero a[i][k] are folded in ascending groups of up to four.
func matMulRowsBlocked(a, b, out *Matrix, lo, hi int) {
	n := out.Cols
	var g foldGroup
	for k0 := 0; k0 < a.Cols; k0 += blockK {
		k1 := min(k0+blockK, a.Cols)
		for j0 := 0; j0 < n; j0 += blockJ {
			j1 := min(j0+blockJ, n)
			for i := lo; i < hi; i++ {
				orow := out.Row(i)[j0:j1]
				for k, av := range a.Row(i)[k0:k1] {
					if av != 0 && g.add(av, b.Row(k0 + k)[j0:j1]) {
						g.fold(orow)
					}
				}
				g.fold(orow) // the row's last, partial group
			}
		}
	}
}

// matMulTransARowsBlocked computes output rows [lo, hi) of out = aᵀ·b,
// accumulating into out (which arrives zeroed). a is read column-wise
// (stride a.Cols), so keeping a k-tile of a and b resident across the
// whole row range turns the strided re-reads into cache hits. Ascending
// k-tiles, and ascending fold groups of the non-zero a[k][i] inside
// each, keep the serial reference's per-element order and zero skips.
func matMulTransARowsBlocked(a, b, out *Matrix, lo, hi int) {
	n := b.Cols
	var g foldGroup
	for k0 := 0; k0 < a.Rows; k0 += blockK {
		k1 := min(k0+blockK, a.Rows)
		for j0 := 0; j0 < n; j0 += blockJ {
			j1 := min(j0+blockJ, n)
			for i := lo; i < hi; i++ {
				orow := out.Row(i)[j0:j1]
				for k := k0; k < k1; k++ {
					if av := a.Data[k*a.Cols+i]; av != 0 && g.add(av, b.Row(k)[j0:j1]) {
						g.fold(orow)
					}
				}
				g.fold(orow) // the row's last, partial group
			}
		}
	}
}

// matMulTransBRowsBlocked computes rows [lo, hi) of out = a·bᵀ with
// k-tiling so a k-slice of b's rows is reused across the row range. It
// computes four output columns at once, each dot product in its own
// register accumulator, so one pass over a's row feeds four sums. The
// serial kernel folds each dot product left to right in one register;
// here the running sum parks in out[i][j] between k-tiles — first tile
// from an explicit zero (out need not arrive zeroed), later tiles
// resuming from the stored partial — which adds the same terms in the
// same order to the same accumulator value and is bit-identical.
func matMulTransBRowsBlocked(a, b, out *Matrix, lo, hi int) {
	for k0 := 0; k0 < a.Cols; k0 += blockK {
		k1 := min(k0+blockK, a.Cols)
		first := k0 == 0
		for i := lo; i < hi; i++ {
			arow := a.Row(i)[k0:k1]
			m := len(arow)
			orow := out.Row(i)[:b.Rows]
			j := 0
			for ; j+4 <= len(orow); j += 4 {
				b0, b1 := b.Row(j)[k0:k1][:m], b.Row(j + 1)[k0:k1][:m]
				b2, b3 := b.Row(j + 2)[k0:k1][:m], b.Row(j + 3)[k0:k1][:m]
				var s0, s1, s2, s3 float32
				if !first {
					s0, s1, s2, s3 = orow[j], orow[j+1], orow[j+2], orow[j+3]
				}
				for k, av := range arow {
					s0 += float32(av * b0[k])
					s1 += float32(av * b1[k])
					s2 += float32(av * b2[k])
					s3 += float32(av * b3[k])
				}
				orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			}
			for ; j < len(orow); j++ {
				brow := b.Row(j)[k0:k1][:m]
				var s float32
				if !first {
					s = orow[j]
				}
				for k, av := range arow {
					s += float32(av * brow[k])
				}
				orow[j] = s
			}
		}
	}
}

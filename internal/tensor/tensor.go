// Package tensor is a minimal dense float32 matrix library: just enough
// real linear algebra to execute an MoE block's forward and backward
// passes numerically, so the repository can *prove* (rather than assert)
// that the expert-centric and data-centric paradigms compute identical
// results (§3.2 and §5.1.1 of the Janus paper).
//
// Correctness, determinism and zero dependencies come first. The
// summation order of every reduction is fixed, so results are exactly
// reproducible: each product has one tiled kernel (see blocked.go)
// that folds its terms in the serial order with every product rounded
// on its own, and the kernels fan output rows across a bounded worker
// pool (see parallel.go). Neither touches a per-element summation
// order, so results stay bit-identical to the retained serial
// reference kernels — property-tested, not assumed.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewRandom returns a matrix filled with deterministic pseudo-random
// values in [-scale, scale) from the given seed.
func NewRandom(rows, cols int, scale float64, seed int64) *Matrix {
	m := New(rows, cols)
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Data {
		// Float64 scales its draw by a product that arm64 would fuse
		// with the sum; the inner conversion rounds it.
		m.Data[i] = float32((float64(float64(rng.Float64())*2) - 1) * scale)
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns a view (not a copy) of row r.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// RowSlice returns a view of rows [lo, hi): it shares m's backing
// storage, so writes through either alias are visible to both and the
// view costs no copy (rows are contiguous in row-major layout). A view
// must never be handed to Put — only the owning matrix may be recycled.
func (m *Matrix) RowSlice(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("tensor: RowSlice [%d,%d) out of range for %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// CopyRow copies row src of from into row dst of m.
func (m *Matrix) CopyRow(dst int, from *Matrix, src int) {
	if m.Cols != from.Cols {
		panic("tensor: CopyRow column mismatch")
	}
	copy(m.Row(dst), from.Row(src))
}

// AddInPlace accumulates other into m element-wise.
func (m *Matrix) AddInPlace(other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: AddInPlace shape mismatch")
	}
	d := m.Data
	o := other.Data[:len(d)] // one bounds check, hoisted out of the loop
	for i := range d {
		d[i] += o[i]
	}
}

// AddScaledRow adds scale*src (a row vector) into row dst of m.
func (m *Matrix) AddScaledRow(dst int, src []float32, scale float32) {
	row := m.Row(dst)
	if len(row) != len(src) {
		panic("tensor: AddScaledRow length mismatch")
	}
	for i := range row {
		row[i] = float32(scale*src[i]) + row[i]
	}
}

// Scale multiplies every element by s.
// Zero overwrites every element with 0, making a reused matrix
// indistinguishable from a fresh New of the same shape.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

func (m *Matrix) Scale(s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// MatMul returns a·b with shapes (r×k)·(k×c) → (r×c).
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(a, b, out)
	return out
}

// MatMulInto computes a·b into out, which must be zero-filled (Get
// returns such matrices) with shape a.Rows×b.Cols.
func MatMulInto(a, b, out *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	parallelMatRows(a, b, out, a.Rows, matMulRowsBlocked)
}

// matMulSerial is the pre-parallelization reference kernel, retained
// for the bit-identity property tests.
func matMulSerial(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range orow {
				orow[j] += float32(av * brow[j])
			}
		}
	}
	return out
}

// MatMulTransA returns aᵀ·b with shapes (k×r)ᵀ·(k×c) → (r×c). Used for
// weight gradients (dW = Xᵀ·dY).
func MatMulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulTransAInto(a, b, out)
	return out
}

// MatMulTransAInto computes aᵀ·b into out, which must be zero-filled
// with shape a.Cols×b.Cols.
func MatMulTransAInto(a, b, out *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Cols, b.Cols))
	}
	parallelMatRows(a, b, out, a.Cols, matMulTransARowsBlocked)
}

// matMulTransASerial is the pre-parallelization reference kernel,
// retained for the bit-identity property tests.
func matMulTransASerial(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += float32(av * bv)
			}
		}
	}
	return out
}

// MatMulTransB returns a·bᵀ with shapes (r×k)·(c×k)ᵀ → (r×c). Used for
// input gradients (dX = dY·Wᵀ).
func MatMulTransB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTransBInto(a, b, out)
	return out
}

// MatMulTransBInto computes a·bᵀ into out with shape a.Rows×b.Rows.
// Every element is fully overwritten, so out need not be zeroed.
func MatMulTransBInto(a, b, out *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %dx%d · %dx%d ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Rows))
	}
	parallelMatRows(a, b, out, a.Rows, matMulTransBRowsBlocked)
}

// matMulTransBSerial is the pre-parallelization reference kernel,
// retained for the bit-identity property tests.
func matMulTransBSerial(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %dx%d · %dx%d ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var sum float32
			for k := range arow {
				sum += float32(arow[k] * brow[k])
			}
			orow[j] = sum
		}
	}
	return out
}

// GeLUInto applies the tanh-approximation GeLU element-wise into out,
// overwriting every element (out need not be zeroed).
func GeLUInto(m, out *Matrix) {
	if m.Rows != out.Rows || m.Cols != out.Cols {
		panic("tensor: GeLUInto shape mismatch")
	}
	for i, x := range m.Data {
		out.Data[i] = gelu(x)
	}
}

// GeLUGradInto computes dx = dy ⊙ gelu'(x) into out, given
// pre-activation x and upstream gradient dy, overwriting every
// element (out need not be zeroed).
func GeLUGradInto(x, dy, out *Matrix) {
	if x.Rows != dy.Rows || x.Cols != dy.Cols || x.Rows != out.Rows || x.Cols != out.Cols {
		panic("tensor: GeLUGrad shape mismatch")
	}
	for i := range x.Data {
		out.Data[i] = dy.Data[i] * geluPrime(x.Data[i])
	}
}

const (
	sqrt2OverPi = 0.7978845608028654
	geluC       = 0.044715
)

func gelu(x float32) float32 {
	xf := float64(x)
	inner := sqrt2OverPi * (xf + float64(geluC*xf*xf*xf))
	return float32(0.5 * xf * (1 + math.Tanh(inner)))
}

func geluPrime(x float32) float32 {
	xf := float64(x)
	inner := sqrt2OverPi * (xf + float64(geluC*xf*xf*xf))
	t := math.Tanh(inner)
	dInner := sqrt2OverPi * (1 + float64(3*geluC*xf*xf))
	return float32(float64(0.5*(1+t)) + float64(0.5*xf*(1-float64(t*t))*dInner))
}

// SoftmaxRows applies a numerically-stable softmax to each row,
// returning a new matrix.
func SoftmaxRows(m *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		var sum float64
		orow := out.Row(r)
		for i, v := range row {
			e := math.Exp(float64(v - max))
			orow[i] = float32(e)
			sum += e
		}
		for i := range orow {
			orow[i] = float32(float64(orow[i]) / sum)
		}
	}
	return out
}

// TopKRow returns the indices of the k largest values of row r, in
// descending value order with index order breaking ties (deterministic).
func TopKRow(m *Matrix, r, k int) []int {
	if k > m.Cols {
		panic("tensor: TopKRow k exceeds columns")
	}
	row := m.Row(r)
	idx := make([]int, 0, k)
	taken := make([]bool, m.Cols)
	for n := 0; n < k; n++ {
		best := -1
		for i, v := range row {
			if taken[i] {
				continue
			}
			if best < 0 || v > row[best] {
				best = i
			}
		}
		taken[best] = true
		idx = append(idx, best)
	}
	return idx
}

// Equal reports whether two matrices have identical shape and
// bit-identical contents.
func Equal(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest element-wise absolute difference.
// Panics on shape mismatch.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var max float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > max {
			max = d
		}
	}
	return max
}

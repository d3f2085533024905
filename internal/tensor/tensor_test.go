package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatMulSmall(t *testing.T) {
	a := New(2, 3)
	copy(a.Data, []float32{1, 2, 3, 4, 5, 6})
	b := New(3, 2)
	copy(b.Data, []float32{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// Property: MatMulTransA(a, b) equals MatMul(transpose(a), b), and
// MatMulTransB(a, b) equals MatMul(a, transpose(b)).
func TestTransposedMatMulsProperty(t *testing.T) {
	transpose := func(m *Matrix) *Matrix {
		out := New(m.Cols, m.Rows)
		for r := 0; r < m.Rows; r++ {
			for c := 0; c < m.Cols; c++ {
				out.Set(c, r, m.At(r, c))
			}
		}
		return out
	}
	prop := func(seed int64, r8, k8, c8 uint8) bool {
		r, k, c := int(r8%6)+1, int(k8%6)+1, int(c8%6)+1
		a := NewRandom(k, r, 1, seed)
		b := NewRandom(k, c, 1, seed+1)
		viaTrans := MatMulTransA(a, b)
		direct := MatMul(transpose(a), b)
		if MaxAbsDiff(viaTrans, direct) > 1e-5 {
			return false
		}
		x := NewRandom(r, k, 1, seed+2)
		y := NewRandom(c, k, 1, seed+3)
		viaTransB := MatMulTransB(x, y)
		directB := MatMul(x, transpose(y))
		return MaxAbsDiff(viaTransB, directB) > -1 && MaxAbsDiff(viaTransB, directB) < 1e-5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over row-partitioning — computing A·B
// for a vertically split A and stacking equals computing it whole. This
// is the algebraic heart of paradigm equivalence: processing tokens in
// worker-sized groups changes nothing.
func TestRowPartitionInvarianceProperty(t *testing.T) {
	prop := func(seed int64, r8, k8, c8, cut8 uint8) bool {
		r, k, c := int(r8%8)+2, int(k8%6)+1, int(c8%6)+1
		cut := int(cut8)%(r-1) + 1
		a := NewRandom(r, k, 1, seed)
		b := NewRandom(k, c, 1, seed+1)
		whole := MatMul(a, b)
		top := &Matrix{Rows: cut, Cols: k, Data: a.Data[:cut*k]}
		bot := &Matrix{Rows: r - cut, Cols: k, Data: a.Data[cut*k:]}
		t1, t2 := MatMul(top, b), MatMul(bot, b)
		for i := range t1.Data {
			if t1.Data[i] != whole.Data[i] {
				return false
			}
		}
		for i := range t2.Data {
			if t2.Data[i] != whole.Data[cut*c+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGeLUValues(t *testing.T) {
	m := New(1, 3)
	copy(m.Data, []float32{-2, 0, 2})
	g := New(1, 3)
	GeLUInto(m, g)
	if g.Data[1] != 0 {
		t.Fatalf("gelu(0) = %v, want 0", g.Data[1])
	}
	if !(g.Data[2] > 1.9 && g.Data[2] < 2.0) {
		t.Fatalf("gelu(2) = %v, want ~1.95", g.Data[2])
	}
	if !(g.Data[0] > -0.1 && g.Data[0] < 0) {
		t.Fatalf("gelu(-2) = %v, want ~-0.045", g.Data[0])
	}
}

// Property: GeLUGradInto matches a numeric derivative.
func TestGeLUGradNumericProperty(t *testing.T) {
	prop := func(x100 int8) bool {
		x := float32(x100) / 25 // range [-5.12, 5.08]
		m := New(1, 1)
		m.Data[0] = x
		dy := New(1, 1)
		dy.Data[0] = 1
		dx := New(1, 1)
		GeLUGradInto(m, dy, dx)
		analytic := float64(dx.Data[0])
		const h = 1e-3
		numeric := (float64(gelu(x+h)) - float64(gelu(x-h))) / (2 * h)
		return math.Abs(analytic-numeric) < 1e-2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := New(2, 3)
	copy(m.Data, []float32{1, 2, 3, 1000, 1000, 1000})
	s := SoftmaxRows(m)
	var sum float64
	for _, v := range s.Row(0) {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("softmax row sum = %v", sum)
	}
	if !(s.At(0, 2) > s.At(0, 1) && s.At(0, 1) > s.At(0, 0)) {
		t.Fatal("softmax not monotone")
	}
	for _, v := range s.Row(1) {
		if math.Abs(float64(v)-1.0/3) > 1e-6 {
			t.Fatalf("large-value softmax unstable: %v", s.Row(1))
		}
	}
}

func TestTopKRow(t *testing.T) {
	m := New(1, 5)
	copy(m.Data, []float32{0.1, 0.9, 0.5, 0.9, 0.2})
	idx := TopKRow(m, 0, 3)
	if idx[0] != 1 || idx[1] != 3 || idx[2] != 2 {
		t.Fatalf("topk = %v, want [1 3 2] (ties break by index)", idx)
	}
}

func TestHelpers(t *testing.T) {
	m := NewRandom(3, 4, 1, 1)
	c := m.Clone()
	if !Equal(m, c) {
		t.Fatal("clone not equal")
	}
	c.Set(0, 0, 99)
	if Equal(m, c) {
		t.Fatal("clone shares storage")
	}
	c2 := New(3, 4)
	c2.CopyRow(1, m, 2)
	for j := 0; j < 4; j++ {
		if c2.At(1, j) != m.At(2, j) {
			t.Fatal("CopyRow wrong")
		}
	}
	s := m.Clone()
	s.Scale(2)
	if s.At(1, 1) != 2*m.At(1, 1) {
		t.Fatal("Scale wrong")
	}
	a := m.Clone()
	a.AddInPlace(m)
	if a.At(2, 2) != 2*m.At(2, 2) {
		t.Fatal("AddInPlace wrong")
	}
	r := New(1, 4)
	r.AddScaledRow(0, m.Row(0), 0.5)
	if r.At(0, 1) != 0.5*m.At(0, 1) {
		t.Fatal("AddScaledRow wrong")
	}
	if Equal(New(1, 2), New(2, 1)) {
		t.Fatal("shape-mismatched matrices equal")
	}
}

func TestNewRandomDeterministic(t *testing.T) {
	a := NewRandom(4, 4, 0.5, 42)
	b := NewRandom(4, 4, 0.5, 42)
	if !Equal(a, b) {
		t.Fatal("same seed differs")
	}
	for _, v := range a.Data {
		if v < -0.5 || v >= 0.5 {
			t.Fatalf("value %v out of scale", v)
		}
	}
}

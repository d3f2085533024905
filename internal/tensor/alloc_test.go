package tensor

import (
	"math/rand"
	"runtime/debug"
	"testing"
)

// The zero-alloc kernel gates: MatMulInto and its transpose variants
// into pooled outputs must not touch the heap once the pools are warm.
// The public-entry tests use shapes below minParRows, so the serial
// fast path of parallelMatRows is taken on any machine; the fan-out
// itself is gated by TestFanOutRowsBitIdenticalZeroAlloc, which calls
// fanOutRows with an explicit chunk count and so does not depend on
// the host's core count either.

// allocsSteadyState reports the average allocations of fn after a
// warm-up run, with GC disabled so sync.Pool victims are not cleared
// mid-measurement.
func allocsSteadyState(fn func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn() // warm pools
	var n float64
	for attempt := 0; attempt < 3; attempt++ {
		// AllocsPerRun counts process-global mallocs; retry while
		// nonzero so a stray allocation from another test's
		// winding-down goroutine cannot fail the gate. A real per-op
		// leak fails every attempt deterministically.
		n = testing.AllocsPerRun(100, fn)
		if n == 0 {
			return 0
		}
	}
	return n
}

func TestMatMulIntoPooledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race runtime")
	}
	a := New(8, 16)
	b := New(16, 24)
	for i := range a.Data {
		a.Data[i] = float32(i%7) - 3
	}
	for i := range b.Data {
		b.Data[i] = float32(i%5) - 2
	}
	out := Get(8, 24)
	defer Put(out)
	if n := allocsSteadyState(func() { MatMulInto(a, b, out) }); n != 0 {
		t.Fatalf("MatMulInto: %v allocs/op in steady state, want 0", n)
	}
}

func TestMatMulTransAIntoPooledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race runtime")
	}
	a := New(16, 8)
	b := New(16, 24)
	out := Get(8, 24)
	defer Put(out)
	if n := allocsSteadyState(func() { MatMulTransAInto(a, b, out) }); n != 0 {
		t.Fatalf("MatMulTransAInto: %v allocs/op in steady state, want 0", n)
	}
}

func TestMatMulTransBIntoPooledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race runtime")
	}
	a := New(8, 16)
	b := New(24, 16)
	out := Get(8, 24)
	defer Put(out)
	if n := allocsSteadyState(func() { MatMulTransBInto(a, b, out) }); n != 0 {
		t.Fatalf("MatMulTransBInto: %v allocs/op in steady state, want 0", n)
	}
}

// TestFanOutRowsBitIdenticalZeroAlloc drives the chunked send directly,
// at widths the latched worker count of this host might never pick:
// every kernel must land bitwise on its serial reference and put
// nothing on the heap per call (a job closure or a per-call completion
// handle would show as 1–2 allocs/op).
func TestFanOutRowsBitIdenticalZeroAlloc(t *testing.T) {
	poolWorkers() // start the workers
	const r, k, c = 48, 37, 29
	rng := rand.New(rand.NewSource(18))
	a := randomSparse(rng, r, k)
	at := randomSparse(rng, k, r)
	b := randomSparse(rng, k, c)
	bt := randomSparse(rng, c, k)
	mm, ta, tb := matMulSerial(a, b), matMulTransASerial(at, b), matMulTransBSerial(a, bt)
	cases := []struct {
		name       string
		kernel     rowKernel
		a, b, want *Matrix
	}{
		{"MatMul", matMulRowsBlocked, a, b, mm},
		{"TransA", matMulTransARowsBlocked, at, b, ta},
		{"TransB", matMulTransBRowsBlocked, a, bt, tb},
	}
	out := New(r, c)
	for _, tc := range cases {
		for _, chunks := range []int{2, 8, 5} { // 5 does not divide 48: a short tail chunk
			run := func() {
				out.Zero() // the MatMul and TransA kernels accumulate
				fanOutRows(tc.a, tc.b, out, r, chunks, tc.kernel)
			}
			run()
			if !Equal(out, tc.want) {
				t.Fatalf("%s in %d chunks diverges from serial (maxdiff %v)", tc.name, chunks, MaxAbsDiff(out, tc.want))
			}
			if raceEnabled {
				continue // allocation accounting differs under the race runtime
			}
			if n := allocsSteadyState(run); n != 0 {
				t.Fatalf("%s in %d chunks: %v allocs/op in steady state, want 0", tc.name, chunks, n)
			}
		}
	}
}

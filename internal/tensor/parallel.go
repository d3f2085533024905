// Row-partitioned dispatch of the matmul kernels, and scratch-buffer pooling.
//
// Determinism argument: every kernel partitions work by *output row*,
// and each output row is written by exactly one worker running the
// kernel over its rows — the summation order within every output
// element is the serial reference's. Float addition is
// non-associative, so this is the one partitioning that is safe: the
// result is bit-identical to the serial kernel for any worker count,
// which parallel_test.go property-tests against the retained serial
// references. This preserves the repository's expert-centric ≡
// data-centric numerical equivalence proof (§3.2, §5.1.1).
package tensor

import (
	"runtime"
	"sync"
)

// maxKernelWorkers bounds the worker pool; beyond this the per-chunk
// coordination overhead outweighs the row-loop work for the matrix
// sizes this repository uses.
const maxKernelWorkers = 8

// minParRows is the smallest output-row count worth fanning out.
const minParRows = 32

// rowKernel computes output rows [lo, hi) of a three-matrix kernel.
type rowKernel func(a, b, out *Matrix, lo, hi int)

// rowJob is one chunk of a fanned-out kernel call. It reaches the pool
// workers by value, so a fan-out puts nothing on the heap.
type rowJob struct {
	kernel    rowKernel
	a, b, out *Matrix
	lo, hi    int
	done      *sync.WaitGroup
}

var kernelPool struct {
	once    sync.Once
	workers int
	jobs    chan rowJob
}

// fanOutDone recycles completion handles: one on the caller's stack
// would escape through the job channel.
var fanOutDone = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// poolWorkers latches the worker count on first use and starts the
// workers — on a one-core host too, where dispatch stays serial but
// fanOutRows must still work.
func poolWorkers() int {
	kernelPool.once.Do(func() {
		w := min(runtime.GOMAXPROCS(0), maxKernelWorkers)
		kernelPool.workers = w
		kernelPool.jobs = make(chan rowJob, 4*w) // room for a few concurrent callers' chunks
		for i := 0; i < w; i++ {
			go func() {
				for j := range kernelPool.jobs {
					j.kernel(j.a, j.b, j.out, j.lo, j.hi)
					j.done.Done()
				}
			}()
		}
	})
	return kernelPool.workers
}

// parallelMatRows runs kernel over output rows [0, rows): one chunk per
// pool worker, or serially when the pool has one worker or the rows are
// too few to pay for the fan-out. kernel must touch only its rows.
func parallelMatRows(a, b, out *Matrix, rows int, kernel rowKernel) {
	if w := poolWorkers(); w > 1 && rows >= minParRows {
		fanOutRows(a, b, out, rows, w, kernel)
		return
	}
	kernel(a, b, out, 0, rows)
}

// fanOutRows splits [0, rows) into at most `chunks` contiguous ranges,
// sends all but the last to the pool workers and runs the last on the
// caller. The chunk count is an argument so that tests can drive any
// width on any host; poolWorkers must have run.
func fanOutRows(a, b, out *Matrix, rows, chunks int, kernel rowKernel) {
	chunks = min(chunks, rows)
	size := (rows + chunks - 1) / chunks
	done := fanOutDone.Get().(*sync.WaitGroup)
	lo := 0
	for ; lo+size < rows; lo += size {
		done.Add(1)
		kernelPool.jobs <- rowJob{kernel, a, b, out, lo, lo + size, done}
	}
	kernel(a, b, out, lo, rows)
	done.Wait()
	fanOutDone.Put(done)
}

// --- scratch pooling ------------------------------------------------------

// matrixPool recycles backing arrays for transient matrices (activation
// scratch, gradient staging). Buffers are pooled by capacity class and
// zeroed on Get, so a pooled matrix is indistinguishable from New.
var matrixPool = sync.Pool{New: func() any { return &Matrix{} }}

// Get returns a zeroed rows×cols matrix, reusing pooled backing store
// when one large enough is available. Pair with Put when the matrix is
// no longer referenced.
func Get(rows, cols int) *Matrix {
	m := GetUninit(rows, cols)
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// GetUninit is Get without the zero fill: the contents are arbitrary
// leftovers, so the caller must overwrite every element (fine for
// kernels like MatMulTransBInto or GeLUInto, wrong for accumulating
// ones like MatMulInto).
func GetUninit(rows, cols int) *Matrix {
	m := matrixPool.Get().(*Matrix)
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float32, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// Put recycles a matrix obtained from Get (or any matrix the caller
// owns outright). The caller must not use m afterwards.
func Put(m *Matrix) {
	if m == nil {
		return
	}
	matrixPool.Put(m)
}

// Package moe executes a real (numeric) Mixture-of-Experts layer under
// both communication paradigms and shows they compute the same thing.
//
// The Janus paper argues (§3.2, §5.1.1) that the data-centric paradigm
// is "strictly equivalent" to the expert-centric paradigm: whether
// tokens travel to experts or experts travel to tokens, the same
// per-token matrix products are evaluated. This package makes that
// argument executable: it implements a gate, expert FFNs, and the
// expert-centric execution order over an explicit partition of tokens
// among workers, with deterministic float32 arithmetic. The data-centric
// order it is compared with is test code (export_test.go); the live
// trainer in internal/livecluster is the production data-centric path.
//
// Exactness: per-token results (outputs and input gradients) are
// bit-identical between paradigms because each token's computation is
// independent and contributions are combined in a fixed expert-index
// order. Weight gradients are sums over tokens, and the two paradigms
// group that sum differently (one batch per expert vs. one partial per
// worker), so they agree to float32 reassociation tolerance rather than
// bit-for-bit — the same caveat that applies to the real systems on
// GPUs.
package moe

import (
	"fmt"
	"sync"

	"janus/internal/tensor"
)

// Expert is one FFN expert: Y = GeLU(X·W1)·W2 with W1 of shape H×4H and
// W2 of shape 4H×H (the paper's 8H² parameter accounting; biases are
// omitted to match it).
type Expert struct {
	W1, W2 *tensor.Matrix
}

// NewExpert returns an expert with deterministic random weights.
func NewExpert(h int, seed int64) *Expert {
	return &Expert{
		W1: tensor.NewRandom(h, 4*h, 0.1, seed),
		W2: tensor.NewRandom(4*h, h, 0.1, seed+1),
	}
}

// Clone deep-copies the expert (a "fetched" expert in the data-centric
// paradigm is exactly such a copy).
func (e *Expert) Clone() *Expert {
	return &Expert{W1: e.W1.Clone(), W2: e.W2.Clone()}
}

// ExpertCache holds the activations an expert's backward pass needs.
// H1 and A come from the tensor scratch pool; call Release once the
// backward pass (or the cache) is finished with them.
type ExpertCache struct {
	X  *tensor.Matrix // input tokens
	H1 *tensor.Matrix // pre-activation X·W1
	A  *tensor.Matrix // GeLU(H1)
}

// Release recycles the cache's pooled activations. The cache must not
// be used afterwards; X is caller-owned and untouched.
func (c *ExpertCache) Release() {
	tensor.Put(c.H1)
	tensor.Put(c.A)
	c.H1, c.A = nil, nil
}

// Forward computes Y = GeLU(X·W1)·W2, returning the output and the
// cache for backward. X has one token per row.
func (e *Expert) Forward(x *tensor.Matrix) (*tensor.Matrix, *ExpertCache) {
	h1 := tensor.Get(x.Rows, e.W1.Cols)
	tensor.MatMulInto(x, e.W1, h1)
	a := tensor.GetUninit(h1.Rows, h1.Cols)
	tensor.GeLUInto(h1, a)
	y := tensor.Get(a.Rows, e.W2.Cols)
	tensor.MatMulInto(a, e.W2, y)
	return y, &ExpertCache{X: x, H1: h1, A: a}
}

// ExpertGrad holds the weight gradients of one expert.
type ExpertGrad struct {
	DW1, DW2 *tensor.Matrix
}

// NewExpertGrad returns a zero gradient of the right shape.
func NewExpertGrad(h int) *ExpertGrad {
	return &ExpertGrad{DW1: tensor.New(h, 4*h), DW2: tensor.New(4*h, h)}
}

// gradPool recycles ExpertGrad headers; the DW matrices ride the tensor
// scratch pool. Together they make per-step gradient staging
// allocation-free once warm.
var gradPool = sync.Pool{New: func() any { return new(ExpertGrad) }}

// GetExpertGrad returns a pooled zero gradient of the right shape,
// indistinguishable from NewExpertGrad. Pair with PutExpertGrad.
func GetExpertGrad(h int) *ExpertGrad {
	g := gradPool.Get().(*ExpertGrad)
	g.DW1 = tensor.Get(h, 4*h)
	g.DW2 = tensor.Get(4*h, h)
	return g
}

// GetExpertGradUninit is GetExpertGrad without the zero fill — for
// callers that overwrite every element (e.g. wire decode).
func GetExpertGradUninit(h int) *ExpertGrad {
	g := gradPool.Get().(*ExpertGrad)
	g.DW1 = tensor.GetUninit(h, 4*h)
	g.DW2 = tensor.GetUninit(4*h, h)
	return g
}

// PutExpertGrad recycles a gradient obtained from GetExpertGrad (or any
// gradient the caller owns outright). The caller must not use g after.
func PutExpertGrad(g *ExpertGrad) {
	if g == nil {
		return
	}
	tensor.Put(g.DW1)
	tensor.Put(g.DW2)
	g.DW1, g.DW2 = nil, nil
	gradPool.Put(g)
}

// Accumulate adds other into g.
func (g *ExpertGrad) Accumulate(other *ExpertGrad) {
	g.DW1.AddInPlace(other.DW1)
	g.DW2.AddInPlace(other.DW2)
}

// Backward computes input and weight gradients given the forward cache
// and the upstream gradient dY. The intermediate dA/dH1 matrices live
// in the scratch pool only for the duration of the call.
func (e *Expert) Backward(cache *ExpertCache, dy *tensor.Matrix) (dx *tensor.Matrix, grad *ExpertGrad) {
	da := tensor.GetUninit(dy.Rows, e.W2.Rows)
	tensor.MatMulTransBInto(dy, e.W2, da) // dA = dY·W2ᵀ
	dh1 := tensor.GetUninit(cache.H1.Rows, cache.H1.Cols)
	tensor.GeLUGradInto(cache.H1, da, dh1) // dH1 = dA ⊙ gelu'(H1)
	tensor.Put(da)
	dw1 := tensor.MatMulTransA(cache.X, dh1) // dW1 = Xᵀ·dH1
	dw2 := tensor.MatMulTransA(cache.A, dy)  // dW2 = Aᵀ·dY
	dx = tensor.MatMulTransB(dh1, e.W1)      // dX = dH1·W1ᵀ
	tensor.Put(dh1)
	return dx, &ExpertGrad{DW1: dw1, DW2: dw2}
}

// ForwardBackward fuses Forward with the weight-gradient half of
// Backward, skipping the dX product the live trainer never consumes.
// The returned output and gradients are bit-identical to
// Forward+Backward on the same inputs (same kernels, same order); the
// activations never escape the call, so intermediates stay in the
// scratch pool and the whole fused pass allocates nothing once the
// pools are warm. The caller owns y (Put it when done) and grad
// (PutExpertGrad it when done).
func (e *Expert) ForwardBackward(x, dy *tensor.Matrix) (y *tensor.Matrix, grad *ExpertGrad) {
	// Forward, inlined so no activation-cache header is allocated.
	h1 := tensor.Get(x.Rows, e.W1.Cols)
	tensor.MatMulInto(x, e.W1, h1)
	a := tensor.GetUninit(h1.Rows, h1.Cols)
	tensor.GeLUInto(h1, a)
	y = tensor.Get(a.Rows, e.W2.Cols)
	tensor.MatMulInto(a, e.W2, y)

	da := tensor.GetUninit(dy.Rows, e.W2.Rows)
	tensor.MatMulTransBInto(dy, e.W2, da) // dA = dY·W2ᵀ
	dh1 := tensor.GetUninit(h1.Rows, h1.Cols)
	tensor.GeLUGradInto(h1, da, dh1) // dH1 = dA ⊙ gelu'(H1)
	tensor.Put(da)
	grad = GetExpertGrad(e.W1.Rows)
	tensor.MatMulTransAInto(x, dh1, grad.DW1) // dW1 = Xᵀ·dH1
	tensor.MatMulTransAInto(a, dy, grad.DW2)  // dW2 = Aᵀ·dY
	tensor.Put(dh1)
	tensor.Put(h1)
	tensor.Put(a)
	return y, grad
}

// ApplySGD updates the expert in place: W -= lr·dW.
func (e *Expert) ApplySGD(g *ExpertGrad, lr float32) {
	for i := range e.W1.Data {
		e.W1.Data[i] -= float32(lr * g.DW1.Data[i])
	}
	for i := range e.W2.Data {
		e.W2.Data[i] -= float32(lr * g.DW2.Data[i])
	}
}

// Gate is the MoE router: a linear projection to one score per expert
// followed by top-k selection with softmax combine weights over the
// selected scores.
type Gate struct {
	W    *tensor.Matrix // H × numExperts
	TopK int
}

// NewGate returns a gate with deterministic random weights.
func NewGate(h, numExperts, topK int, seed int64) *Gate {
	if topK < 1 || topK > numExperts {
		panic(fmt.Sprintf("moe: topK %d out of range for %d experts", topK, numExperts))
	}
	return &Gate{W: tensor.NewRandom(h, numExperts, 0.1, seed), TopK: topK}
}

// Routing is a gate decision for a batch of tokens: for each token, the
// selected expert indices and their combine weights.
type Routing struct {
	Experts [][]int
	Weights [][]float32
}

// Assign routes each row of x.
func (g *Gate) Assign(x *tensor.Matrix) Routing {
	scores := tensor.MatMul(x, g.W)
	r := Routing{
		Experts: make([][]int, x.Rows),
		Weights: make([][]float32, x.Rows),
	}
	for t := 0; t < x.Rows; t++ {
		idx := tensor.TopKRow(scores, t, g.TopK)
		sel := tensor.New(1, g.TopK)
		for i, e := range idx {
			sel.Set(0, i, scores.At(t, e))
		}
		w := tensor.SoftmaxRows(sel)
		r.Experts[t] = idx
		r.Weights[t] = append([]float32(nil), w.Row(0)...)
	}
	return r
}

// Layer is a full MoE expert layer.
type Layer struct {
	H       int
	Experts []*Expert
	Gate    *Gate
}

// NewLayer builds a layer with numExperts deterministic experts.
func NewLayer(h, numExperts, topK int, seed int64) *Layer {
	l := &Layer{H: h, Gate: NewGate(h, numExperts, topK, seed)}
	for e := 0; e < numExperts; e++ {
		l.Experts = append(l.Experts, NewExpert(h, seed+int64(100+2*e)))
	}
	return l
}

// Result is the outcome of one forward+backward execution of the layer
// over a worker partition of tokens.
type Result struct {
	Outputs    []*tensor.Matrix // per worker, same shape as its input
	InputGrads []*tensor.Matrix // per worker
	Grads      []*ExpertGrad    // per expert
}

// routeAll runs the gate on every worker's tokens.
func (l *Layer) routeAll(tokensByWorker []*tensor.Matrix) []Routing {
	routes := make([]Routing, len(tokensByWorker))
	for w, x := range tokensByWorker {
		routes[w] = l.Gate.Assign(x)
	}
	return routes
}

// ForwardBackwardExpertCentric executes the layer the way All-to-All
// systems do: tokens are gathered per expert (ordered by worker, then
// token), each expert processes one batch, results scatter back, and
// the backward pass mirrors it. dOutByWorker is the upstream gradient
// of each worker's output (pass nil to skip backward).
func (l *Layer) ForwardBackwardExpertCentric(tokensByWorker, dOutByWorker []*tensor.Matrix) Result {
	routes := l.routeAll(tokensByWorker)
	numExperts := len(l.Experts)
	type slot struct {
		worker, token, k int // destination of a gathered row
	}
	gathered := make([][]slot, numExperts)
	for w, x := range tokensByWorker {
		for t := 0; t < x.Rows; t++ {
			for k, e := range routes[w].Experts[t] {
				gathered[e] = append(gathered[e], slot{w, t, k})
			}
		}
	}

	res := Result{
		Outputs: make([]*tensor.Matrix, len(tokensByWorker)),
		Grads:   make([]*ExpertGrad, numExperts),
	}
	for w, x := range tokensByWorker {
		res.Outputs[w] = tensor.New(x.Rows, l.H)
	}
	backward := dOutByWorker != nil
	if backward {
		res.InputGrads = make([]*tensor.Matrix, len(tokensByWorker))
		for w, x := range tokensByWorker {
			res.InputGrads[w] = tensor.New(x.Rows, l.H)
		}
	}

	// expertOut[e] row i is expert e's output for gathered[e][i]; kept so
	// the combine can run in expert-index order per token.
	for e, slots := range gathered {
		if len(slots) == 0 {
			res.Grads[e] = NewExpertGrad(l.H)
			continue
		}
		xe := tensor.GetUninit(len(slots), l.H)
		for i, s := range slots {
			xe.CopyRow(i, tokensByWorker[s.worker], s.token)
		}
		ye, cache := l.Experts[e].Forward(xe)
		for i, s := range slots {
			wgt := routes[s.worker].Weights[s.token][s.k]
			res.Outputs[s.worker].AddScaledRow(s.token, ye.Row(i), wgt)
		}
		tensor.Put(ye)
		if backward {
			dye := tensor.Get(len(slots), l.H)
			for i, s := range slots {
				wgt := routes[s.worker].Weights[s.token][s.k]
				dye.AddScaledRow(i, dOutByWorker[s.worker].Row(s.token), wgt)
			}
			dxe, grad := l.Experts[e].Backward(cache, dye)
			tensor.Put(dye)
			res.Grads[e] = grad
			for i, s := range slots {
				res.InputGrads[s.worker].AddScaledRow(s.token, dxe.Row(i), 1)
			}
			tensor.Put(dxe)
		} else {
			res.Grads[e] = NewExpertGrad(l.H)
		}
		cache.Release()
		tensor.Put(xe)
	}
	return res
}

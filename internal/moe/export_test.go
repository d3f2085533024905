package moe

import "janus/internal/tensor"

// Test-only layer paths. ForwardBackwardDataCentric is the in-process
// Janus schedule the tests hold bitwise against the expert-centric one;
// no production path runs it.

// CountsPerExpert returns how many (token, expert) assignments land on
// each expert — the histogram both training paradigms communicate by.
func (r Routing) CountsPerExpert(numExperts int) []int {
	counts := make([]int, numExperts)
	for _, idx := range r.Experts {
		for _, e := range idx {
			counts[e]++
		}
	}
	return counts
}

// ForwardBackwardDataCentric executes the layer the Janus way: every
// worker keeps its tokens, iterates over (fetched) experts in the given
// per-worker order, computes its own tokens' slice for each expert, and
// each machine's partial weight gradients are pre-reduced before being
// accumulated into the expert's gradient in worker order. fetchOrder
// gives, per worker, the order in which experts are processed (nil means
// index order); the result is independent of that order by construction,
// which the tests verify — this mirrors Janus's claim that the
// topology-aware scheduling cannot change the math.
func (l *Layer) ForwardBackwardDataCentric(tokensByWorker, dOutByWorker []*tensor.Matrix, fetchOrder [][]int) Result {
	routes := l.routeAll(tokensByWorker)
	numExperts := len(l.Experts)
	res := Result{
		Outputs: make([]*tensor.Matrix, len(tokensByWorker)),
		Grads:   make([]*ExpertGrad, numExperts),
	}
	for e := range res.Grads {
		res.Grads[e] = NewExpertGrad(l.H)
	}
	backward := dOutByWorker != nil
	if backward {
		res.InputGrads = make([]*tensor.Matrix, len(tokensByWorker))
	}

	// Per-worker partial weight grads, accumulated into res.Grads in
	// worker order afterwards (the Inter-Node Scheduler's pre-reduce).
	partials := make([][]*ExpertGrad, len(tokensByWorker))

	for w, x := range tokensByWorker {
		res.Outputs[w] = tensor.New(x.Rows, l.H)
		if backward {
			res.InputGrads[w] = tensor.New(x.Rows, l.H)
		}
		partials[w] = make([]*ExpertGrad, numExperts)

		order := make([]int, numExperts)
		for i := range order {
			order[i] = i
		}
		if fetchOrder != nil {
			copy(order, fetchOrder[w])
		}

		// Per-(token,k) expert outputs, buffered so the combine can run
		// in expert-index order no matter the fetch order.
		type contrib struct {
			rows map[int]int // token -> row in ye
			ye   *tensor.Matrix
			dxe  *tensor.Matrix
		}
		contribs := make([]*contrib, numExperts)

		for _, e := range order {
			// The worker "fetches" expert e: in the real system a copy
			// arrives in the credit buffer; numerically a pooled clone
			// computes identically to the original.
			expert := l.Experts[e].clonePooled()
			var myTokens []int
			var myK []int
			for t := 0; t < x.Rows; t++ {
				for k, te := range routes[w].Experts[t] {
					if te == e {
						myTokens = append(myTokens, t)
						myK = append(myK, k)
					}
				}
			}
			if len(myTokens) == 0 {
				expert.release()
				continue
			}
			xe := tensor.GetUninit(len(myTokens), l.H)
			for i, t := range myTokens {
				xe.CopyRow(i, x, t)
			}
			ye, cache := expert.Forward(xe)
			c := &contrib{rows: make(map[int]int, len(myTokens)), ye: ye}
			for i, t := range myTokens {
				c.rows[t] = i
				_ = myK[i]
			}
			contribs[e] = c
			if backward {
				dye := tensor.Get(len(myTokens), l.H)
				for i, t := range myTokens {
					wgt := routes[w].Weights[t][myK[i]]
					dye.AddScaledRow(i, dOutByWorker[w].Row(t), wgt)
				}
				dxe, grad := expert.Backward(cache, dye)
				tensor.Put(dye)
				c.dxe = dxe
				partials[w][e] = grad
			}
			cache.Release()
			tensor.Put(xe)
			expert.release()
		}

		// Combine in ascending expert-index order per token — the same
		// summation order as the expert-centric scatter (whose outer
		// loop ascends over experts), so outputs are bit-identical.
		for t := 0; t < x.Rows; t++ {
			ks := make([]int, len(routes[w].Experts[t]))
			for i := range ks {
				ks[i] = i
			}
			// Insertion sort of the k slots by expert index (topK <= 8).
			for i := 1; i < len(ks); i++ {
				for j := i; j > 0 && routes[w].Experts[t][ks[j]] < routes[w].Experts[t][ks[j-1]]; j-- {
					ks[j], ks[j-1] = ks[j-1], ks[j]
				}
			}
			for _, k := range ks {
				e := routes[w].Experts[t][k]
				c := contribs[e]
				if c == nil {
					continue
				}
				i := c.rows[t]
				wgt := routes[w].Weights[t][k]
				res.Outputs[w].AddScaledRow(t, c.ye.Row(i), wgt)
				if backward && c.dxe != nil {
					res.InputGrads[w].AddScaledRow(t, c.dxe.Row(i), 1)
				}
			}
		}
		for _, c := range contribs {
			if c == nil {
				continue
			}
			tensor.Put(c.ye)
			tensor.Put(c.dxe)
		}
	}

	if backward {
		for e := 0; e < numExperts; e++ {
			for w := range tokensByWorker {
				if partials[w][e] != nil {
					res.Grads[e].Accumulate(partials[w][e])
				}
			}
		}
	}
	return res
}

// clonePooled is Clone backed by the tensor scratch pool; pair with
// release. A pooled copy computes bit-identically to the original.
func (e *Expert) clonePooled() *Expert {
	w1 := tensor.GetUninit(e.W1.Rows, e.W1.Cols)
	copy(w1.Data, e.W1.Data)
	w2 := tensor.GetUninit(e.W2.Rows, e.W2.Cols)
	copy(w2.Data, e.W2.Data)
	return &Expert{W1: w1, W2: w2}
}

func (e *Expert) release() {
	tensor.Put(e.W1)
	tensor.Put(e.W2)
	e.W1, e.W2 = nil, nil
}

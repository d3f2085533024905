// Package engine holds the pieces shared by the expert-centric baseline
// and the Janus data-centric engine: the iteration report, completion
// barriers, and the translation of a model config into per-op compute
// durations on the simulated cluster.
package engine

import (
	"fmt"

	"janus/internal/config"
	"janus/internal/costmodel"
	"janus/internal/metrics"
	"janus/internal/topology"
	"janus/internal/trace"
)

// Report is the outcome of one simulated training iteration.
type Report struct {
	Model     string
	NumGPUs   int
	Paradigms []config.Paradigm // per block; dense blocks report ExpertCentric (no choice to make)

	IterationTime float64
	ForwardTime   float64
	BackwardTime  float64

	// CommBlockedTime is the total critical-path time the iteration
	// spent with all GPUs stalled on communication (All-to-All waits in
	// the expert-centric paradigm; fetch stalls in the data-centric
	// one). Figure 3's "latency caused by All-to-All" is this number.
	CommBlockedTime float64

	TrafficByClass       map[string]float64
	InterNodeEgressBytes float64
	PerMachineEgress     []float64

	PeakMemBytes float64
	OOM          bool

	Timeline *trace.Timeline
}

// CommShare returns CommBlockedTime / IterationTime.
func (r Report) CommShare() float64 {
	if r.IterationTime == 0 {
		return 0
	}
	return r.CommBlockedTime / r.IterationTime
}

// String summarises the report in one line.
func (r Report) String() string {
	if r.OOM {
		return fmt.Sprintf("%s on %d GPUs: OOM (peak %.1f GB)", r.Model, r.NumGPUs, r.PeakMemBytes/1e9)
	}
	return fmt.Sprintf("%s on %d GPUs: iter %.1fms (fwd %.1fms, comm-blocked %.1fms = %.0f%%), inter-node %.2f GiB",
		r.Model, r.NumGPUs, r.IterationTime*1e3, r.ForwardTime*1e3,
		r.CommBlockedTime*1e3, r.CommShare()*100, metrics.GiB(r.InterNodeEgressBytes))
}

// FinishTraffic populates the traffic fields from the cluster's links.
func (r *Report) FinishTraffic(c *topology.Cluster) {
	r.TrafficByClass = metrics.TrafficByClass(c.Net.Links())
	r.InterNodeEgressBytes = c.InterNodeEgressBytes()
	r.PerMachineEgress = make([]float64, len(c.Machines))
	for i := range c.Machines {
		r.PerMachineEgress[i] = c.MachineEgressBytes(i)
	}
}

// Barrier calls done after Arrive has been called n times. A zero-count
// barrier fires on construction.
type Barrier struct {
	n    int
	done func()
}

// NewBarrier returns a barrier expecting n arrivals.
func NewBarrier(n int, done func()) *Barrier {
	b := &Barrier{n: n, done: done}
	if n == 0 && done != nil {
		done()
	}
	return b
}

// Arrive records one arrival; the n-th arrival invokes done.
func (b *Barrier) Arrive() {
	b.n--
	if b.n == 0 && b.done != nil {
		b.done()
	}
}

// Costs converts a model configuration into per-op compute durations on
// a given hardware spec. All durations include the per-kernel overhead.
type Costs struct {
	Spec  topology.Spec
	Model config.Model
}

// NewCosts pairs a model with a hardware spec.
func NewCosts(spec topology.Spec, model config.Model) Costs {
	return Costs{Spec: spec, Model: model}
}

func (c Costs) t(flops float64) float64 {
	return costmodel.ComputeTime(flops, c.Spec.GPUFlops, c.Spec.KernelOverhead)
}

// tRows is t with the small-batch GEMM efficiency ramp applied: a
// kernel over rows rows reaches rows/(rows+ramp) of peak.
func (c Costs) tRows(flops, rows float64) float64 {
	if flops <= 0 || rows <= 0 {
		return c.Spec.KernelOverhead
	}
	eff := 1.0
	if c.Spec.SmallBatchRampRows > 0 {
		eff = rows / (rows + c.Spec.SmallBatchRampRows)
	}
	return costmodel.ComputeTime(flops, c.Spec.GPUFlops*eff, c.Spec.KernelOverhead)
}

// AttentionFwd returns the forward duration of one attention layer on a
// worker's local batch.
func (c Costs) AttentionFwd() float64 {
	rows := float64(c.Model.B) * float64(c.Model.S)
	return c.tRows(costmodel.AttentionFwdFlops(c.Model.B, c.Model.S, c.Model.H), rows)
}

// AttentionBwd returns the backward duration of one attention layer.
func (c Costs) AttentionBwd() float64 {
	rows := float64(c.Model.B) * float64(c.Model.S)
	return c.tRows(costmodel.BackwardFactor*costmodel.AttentionFwdFlops(c.Model.B, c.Model.S, c.Model.H), rows)
}

// DenseFFNFwd returns the forward duration of a dense FFN layer.
func (c Costs) DenseFFNFwd() float64 {
	rows := float64(c.Model.B) * float64(c.Model.S)
	return c.tRows(costmodel.DenseFFNFwdFlops(c.Model.B, c.Model.S, c.Model.H), rows)
}

// DenseFFNBwd returns the backward duration of a dense FFN layer.
func (c Costs) DenseFFNBwd() float64 {
	rows := float64(c.Model.B) * float64(c.Model.S)
	return c.tRows(costmodel.BackwardFactor*costmodel.DenseFFNFwdFlops(c.Model.B, c.Model.S, c.Model.H), rows)
}

// GateFwd returns the forward duration of the gate of the given block.
func (c Costs) GateFwd(numExperts int) float64 {
	rows := float64(c.Model.B) * float64(c.Model.S)
	return c.tRows(costmodel.GateFwdFlops(c.Model.B, c.Model.S, c.Model.H, numExperts), rows)
}

// ExpertFwd returns the forward duration of one expert kernel over the
// given number of tokens. Short batches pay the small-batch ramp — the
// data-centric penalty on many-expert blocks.
func (c Costs) ExpertFwd(tokens int) float64 {
	return c.tRows(float64(tokens)*costmodel.ExpertFwdFlopsPerToken(c.Model.H), float64(tokens))
}

// ExpertBwd returns the backward duration for the given token count.
func (c Costs) ExpertBwd(tokens int) float64 {
	return c.tRows(costmodel.BackwardFactor*float64(tokens)*costmodel.ExpertFwdFlopsPerToken(c.Model.H), float64(tokens))
}

// Combine returns the duration of the weighted combine of expert
// outputs back into the token stream on one worker (memory-bound, 2
// ops per token element).
func (c Costs) Combine() float64 {
	return c.t(2 * c.Model.TokensPerWorker() * float64(c.Model.H))
}

// GradReduce returns the host-side duration of pre-reducing nGrads
// expert gradients of 8H² fp32 elements on the machine CPU.
func (c Costs) GradReduce(nGrads int) float64 {
	bytes := float64(nGrads) * costmodel.ExpertBytes(c.Model.H)
	if c.Spec.CPUReduceBps <= 0 {
		return 0
	}
	return bytes / c.Spec.CPUReduceBps
}

// OptimizerStep returns the duration of the parameter update on one
// worker (a memory-bound pass over the worker's resident parameters,
// modelled at the GPU's FLOP rate with 4 ops per parameter).
func (c Costs) OptimizerStep(numWorkers int) float64 {
	in := c.FootprintInput(numWorkers)
	params := costmodel.DenseParamsPerWorker(in) + costmodel.ExpertParamsPerWorker(in)
	return c.t(4 * params)
}

// FootprintInput builds the memory-model input for one worker of this
// model on a cluster with numWorkers GPUs. For models with per-block
// expert counts (PR-MoE) the *largest* MoE block drives buffer sizing.
func (c Costs) FootprintInput(numWorkers int) costmodel.FootprintInput {
	maxExperts := 0
	moeBlocks := 0
	for _, b := range c.Model.Blocks {
		if b.Kind == config.MoE {
			moeBlocks++
			if b.NumExperts > maxExperts {
				maxExperts = b.NumExperts
			}
		}
	}
	expertsPer := 0
	if maxExperts > 0 {
		expertsPer = maxExperts / numWorkers
	}
	return costmodel.FootprintInput{
		B: c.Model.B, S: c.Model.S, H: c.Model.H,
		NumBlocks: len(c.Model.Blocks), MoEBlocks: moeBlocks,
		ExpertsPer: expertsPer, NumExperts: maxExperts,
		TopK: c.Model.K, NumWorkers: numWorkers,
		CreditSize: 4,
	}
}

// DenseGradBytes returns the bytes of dense (replicated) gradients one
// worker contributes to the data-parallel AllReduce.
func (c Costs) DenseGradBytes(numWorkers int) float64 {
	return costmodel.DenseParamsPerWorker(c.FootprintInput(numWorkers)) * costmodel.BytesPerElem
}

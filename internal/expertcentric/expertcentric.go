// Package expertcentric simulates one training iteration of an MoE
// model under the expert-centric paradigm: experts stay put and tokens
// travel through two synchronous All-to-All operations per MoE block
// per pass, exactly the communication structure of Tutel/DeepSpeed-MoE
// (§2.2 of the Janus paper). It is the baseline every Janus experiment
// compares against.
package expertcentric

import (
	"fmt"
	"math/rand"
	"strconv"

	"janus/internal/collective"
	"janus/internal/config"
	"janus/internal/costmodel"
	"janus/internal/engine"
	"janus/internal/gate"
	"janus/internal/topology"
	"janus/internal/trace"
)

// Config describes one simulated iteration.
type Config struct {
	Model config.Model
	Spec  topology.Spec

	// Assignment returns the token routing for an MoE block. Nil means
	// balanced routing.
	Assignment func(block int) gate.Assignment

	// Hierarchical selects the 2D All-to-All (Tutel's hierarchical
	// optimization) instead of the flat pairwise algorithm.
	Hierarchical bool

	// SkipMemoryCheck disables the OOM check (used by experiments that
	// only care about timing).
	SkipMemoryCheck bool

	// Trace enables timeline recording (compute spans, A2A spans, block
	// completion marks).
	Trace bool

	// ComputeFactors optionally slows individual GPUs: the compute time
	// of global rank i is multiplied by ComputeFactors[i] (nil or 1.0
	// means nominal speed). Used by the straggler experiments — under
	// the synchronous All-to-All, one slow GPU gates everyone.
	ComputeFactors []float64

	// Jitter adds uniform per-op compute noise: each submitted op is
	// stretched by a factor drawn from [1, 1+Jitter], deterministically
	// from JitterSeed. Under synchronous collectives the iteration pays
	// the *maximum* draw at every block (§3.2's "fast machines wait for
	// slow machines").
	Jitter     float64
	JitterSeed int64

	// ForwardOnly runs inference: the iteration ends after the forward
	// pass (no backward All-to-Alls, no AllReduce, no optimizer).
	ForwardOnly bool
}

// factor returns the compute slowdown of a rank.
func (c Config) factor(rank int) float64 {
	if rank < len(c.ComputeFactors) && c.ComputeFactors[rank] > 0 {
		return c.ComputeFactors[rank]
	}
	return 1
}

type runner struct {
	cfg    Config
	c      *topology.Cluster
	costs  engine.Costs
	report engine.Report
	tl     *trace.Timeline

	ownerOf  func(block, expert int) int // expert -> owning worker
	assignOf map[int]gate.Assignment
	jrng     *rand.Rand
	bwdStart float64
}

// Run simulates one iteration and returns its report.
func Run(cfg Config) (engine.Report, error) {
	if err := cfg.Model.Validate(cfg.Spec.TotalGPUs()); err != nil {
		return engine.Report{}, err
	}
	c, err := topology.New(cfg.Spec)
	if err != nil {
		return engine.Report{}, err
	}
	r := &runner{
		cfg:   cfg,
		c:     c,
		costs: engine.NewCosts(cfg.Spec, cfg.Model),
		tl:    &trace.Timeline{},
		jrng:  rand.New(rand.NewSource(cfg.JitterSeed + 1)),
	}
	r.report.Model = cfg.Model.Name
	r.report.NumGPUs = c.NumGPUs()
	r.report.Paradigms = make([]config.Paradigm, len(cfg.Model.Blocks))
	r.report.Timeline = r.tl

	in := r.costs.FootprintInput(c.NumGPUs())
	r.report.PeakMemBytes = costmodel.WorkerFootprintEC(in, costmodel.DefaultMemoryParams())
	if !cfg.SkipMemoryCheck && r.report.PeakMemBytes > cfg.Spec.GPUMemBytes {
		r.report.OOM = true
		return r.report, nil
	}

	r.assignOf = make(map[int]gate.Assignment)
	for _, bi := range cfg.Model.MoEBlockIndices() {
		var a gate.Assignment
		if cfg.Assignment != nil {
			a = cfg.Assignment(bi)
		} else {
			a = gate.Balanced(c.NumGPUs(), cfg.Model.Blocks[bi].NumExperts, int(cfg.Model.TokensPerWorker()))
		}
		if err := a.Validate(); err != nil {
			return engine.Report{}, fmt.Errorf("expertcentric: block %d assignment: %w", bi, err)
		}
		r.assignOf[bi] = a
	}
	r.ownerOf = func(block, expert int) int {
		e := cfg.Model.ExpertsPerWorker(block, c.NumGPUs())
		return expert / e
	}
	if cfg.Trace {
		for _, g := range c.GPUs() {
			g := g
			g.Compute.OnSpan = func(name string, s, e float64) {
				r.tl.AddSpan(g.String(), name, s, e)
			}
		}
	}

	r.forwardBlock(0)
	c.Engine.Run()

	r.report.IterationTime = r.iterationEnd()
	r.report.FinishTraffic(c)
	return r.report, nil
}

func (r *runner) iterationEnd() float64 {
	return r.c.Engine.Now()
}

// dur applies a rank's straggler factor and the per-op jitter draw.
func (r *runner) dur(rank int, d float64) float64 {
	d *= r.cfg.factor(rank)
	if r.cfg.Jitter > 0 {
		d *= 1 + r.cfg.Jitter*r.jrng.Float64()
	}
	return d
}

// spanName names block b's compute op: op followed by b. Only a traced
// run reads span names (the processors' OnSpan), so an untraced run
// builds none.
func (r *runner) spanName(op string, b int) string {
	if !r.cfg.Trace {
		return ""
	}
	return op + strconv.Itoa(b)
}

// computeAll submits the same nominal-duration op to every GPU (scaled
// by its straggler factor and jitter) and fires then when all complete.
func (r *runner) computeAll(name string, dur float64, then func()) {
	b := engine.NewBarrier(r.c.NumGPUs(), then)
	for i, g := range r.c.GPUs() {
		g.Compute.Submit(name, r.dur(i, dur), b.Arrive)
	}
}

// computeEach submits a per-GPU duration (scaled likewise).
func (r *runner) computeEach(name string, durs []float64, then func()) {
	b := engine.NewBarrier(r.c.NumGPUs(), then)
	for i, g := range r.c.GPUs() {
		g.Compute.Submit(name, r.dur(i, durs[i]), b.Arrive)
	}
}

// dispatchSizes returns the All-to-All byte matrix for an MoE block's
// token dispatch: tokens of worker w routed to experts owned by worker
// v, in bytes.
func (r *runner) dispatchSizes(block int) [][]float64 {
	a := r.assignOf[block]
	nw := r.c.NumGPUs()
	sizes := make([][]float64, nw)
	tokB := costmodel.TokenBytes(r.cfg.Model.H)
	for w := 0; w < nw; w++ {
		sizes[w] = make([]float64, nw)
		for e := 0; e < a.NumExperts; e++ {
			v := r.ownerOf(block, e)
			if v != w {
				sizes[w][v] += float64(a.Counts[w][e]) * tokB
			}
		}
	}
	return sizes
}

func transpose(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range out {
		out[i] = make([]float64, len(m))
		for j := range m {
			out[i][j] = m[j][i]
		}
	}
	return out
}

// expertComputeDurs returns, per worker, the duration of computing its
// owned experts: one kernel per expert over that expert's global load
// (forward; scale by the backward factor at the call site by choosing
// the bwd variant).
func (r *runner) expertComputeDurs(block int, backward bool) []float64 {
	a := r.assignOf[block]
	nw := r.c.NumGPUs()
	durs := make([]float64, nw)
	for e := 0; e < a.NumExperts; e++ {
		owner := r.ownerOf(block, e)
		load := a.ExpertLoad(e)
		if backward {
			durs[owner] += r.costs.ExpertBwd(load)
		} else {
			durs[owner] += r.costs.ExpertFwd(load)
		}
	}
	return durs
}

// allToAll runs the configured A2A variant and accounts its wall time
// as communication-blocked time (every GPU waits on it).
func (r *runner) allToAll(name string, sizes [][]float64, then func()) {
	start := r.c.Engine.Now()
	done := func() {
		dur := r.c.Engine.Now() - start
		r.report.CommBlockedTime += dur
		if r.cfg.Trace {
			r.tl.AddSpan("net", name, start, r.c.Engine.Now())
		}
		then()
	}
	if r.cfg.Hierarchical {
		collective.HierarchicalAllToAll(r.c, sizes, name, done)
	} else {
		collective.AllToAll(r.c, r.c.GPUs(), sizes, name, done)
	}
}

func (r *runner) forwardBlock(b int) {
	model := r.cfg.Model
	if b == len(model.Blocks) {
		r.report.ForwardTime = r.c.Engine.Now()
		if r.cfg.ForwardOnly {
			return
		}
		r.backwardBlock(len(model.Blocks) - 1)
		return
	}
	blk := model.Blocks[b]
	next := func() {
		if r.cfg.Trace {
			r.tl.AddMark(fmt.Sprintf("fwd.block%d.done", b), r.c.Engine.Now())
		}
		r.forwardBlock(b + 1)
	}
	attn := r.spanName("attn.fwd.", b)
	if blk.Kind == config.Dense {
		r.computeAll(attn, r.costs.AttentionFwd(), func() {
			r.computeAll(r.spanName("ffn.fwd.", b), r.costs.DenseFFNFwd(), next)
		})
		return
	}
	r.report.Paradigms[b] = config.ExpertCentric
	dispatch := r.dispatchSizes(b)
	expertDurs := r.expertComputeDurs(b, false)
	r.computeAll(attn, r.costs.AttentionFwd(), func() {
		r.computeAll(r.spanName("gate.fwd.", b), r.costs.GateFwd(blk.NumExperts), func() {
			r.allToAll("a2a.dispatch.fwd."+strconv.Itoa(b), dispatch, func() {
				r.computeEach(r.spanName("expert.fwd.", b), expertDurs, func() {
					r.allToAll("a2a.combine.fwd."+strconv.Itoa(b), transpose(dispatch), next)
				})
			})
		})
	})
}

func (r *runner) backwardBlock(b int) {
	model := r.cfg.Model
	if r.bwdStart == 0 {
		r.bwdStart = r.c.Engine.Now()
		// The dense-gradient AllReduce overlaps with backward compute;
		// it shares the NICs with the token traffic, which is exactly
		// the contention real systems see.
		// The AllReduce has no completion dependency beyond the engine
		// draining: the iteration ends at the later of the compute chain
		// and this collective.
		collective.RingAllReduce(r.c, r.c.GPUs(), r.costs.DenseGradBytes(r.c.NumGPUs()),
			"allreduce.dense", nil)
	}
	if b < 0 {
		r.computeAll("optimizer", r.costs.OptimizerStep(r.c.NumGPUs()), func() {
			r.report.BackwardTime = r.c.Engine.Now() - r.report.ForwardTime
		})
		return
	}
	blk := model.Blocks[b]
	next := func() { r.backwardBlock(b - 1) }
	if blk.Kind == config.Dense {
		r.computeAll(r.spanName("dense.bwd.", b), r.costs.AttentionBwd()+r.costs.DenseFFNBwd(), next)
		return
	}
	dispatch := r.dispatchSizes(b)
	expertDurs := r.expertComputeDurs(b, true)
	// Backward mirrors forward: upstream gradients dY travel the
	// dispatch pattern, experts compute their gradients, then dX
	// returns along the combine pattern, then attention backward.
	r.allToAll("a2a.dy.bwd."+strconv.Itoa(b), dispatch, func() {
		r.computeEach(r.spanName("expert.bwd.", b), expertDurs, func() {
			r.allToAll("a2a.dx.bwd."+strconv.Itoa(b), transpose(dispatch), func() {
				r.computeAll(r.spanName("attn.bwd.", b), r.costs.AttentionBwd(), next)
			})
		})
	})
}

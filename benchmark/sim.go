package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// ---- sim_paper32 ---------------------------------------------------------

// paperSkew is the mild Zipf skew the repository's Fig. 14 reproduction
// profiles its gates with.
const paperSkew = 0.3

// paperInputs is everything one pass of sim_paper32 is run on: the three
// 32-expert models of Table 1 on 4 machines x 8 GPUs, and one seeded
// routing histogram per MoE block.
type paperInputs struct {
	spec   simSpec
	models []simModel
	assign []map[int]simAssignment
}

func newPaperInputs(seed int64) *paperInputs {
	in := &paperInputs{
		spec:   defaultSpec(4),
		models: []simModel{moeBERT(32), moeGPT(32), moeTransformerXL(32)},
	}
	workers := in.spec.TotalGPUs()
	for mi, m := range in.models {
		byBlock := map[int]simAssignment{}
		for _, bi := range m.MoEBlockIndices() {
			byBlock[bi] = zipfAssignment(workers, m.Blocks[bi].NumExperts,
				int(m.TokensPerWorker()), paperSkew, seed*1000+int64(mi)*100+int64(bi)+1)
		}
		in.assign = append(in.assign, byBlock)
	}
	return in
}

// assignment hands the engines model mi's pre-generated routing.
func (in *paperInputs) assignment(mi int) func(block int) simAssignment {
	byBlock := in.assign[mi]
	return func(block int) simAssignment { return byBlock[block] }
}

// simNumbers are the simulated results of one engine run that a
// host-speed-only change must leave bit-identical.
type simNumbers struct {
	iter, blocked, internode float64
}

type paperPass struct {
	janus, tutel         [3]simNumbers
	janusHost, tutelHost [3]time.Duration
	host                 time.Duration
	failedRuns           int64
}

func checkReport(r simReport, err error) (simNumbers, error) {
	if err != nil {
		return simNumbers{}, err
	}
	if r.OOM {
		return simNumbers{}, fmt.Errorf("%s: OOM", r.Model)
	}
	for class, b := range r.TrafficByClass {
		if !finite(b) || b < 0 {
			return simNumbers{}, fmt.Errorf("%s: traffic class %q = %v", r.Model, class, b)
		}
	}
	if !finite(r.IterationTime) || r.IterationTime <= 0 {
		return simNumbers{}, fmt.Errorf("%s: iteration time %v", r.Model, r.IterationTime)
	}
	return simNumbers{iter: r.IterationTime, blocked: r.CommBlockedTime, internode: r.InterNodeEgressBytes}, nil
}

func (in *paperInputs) janusConfig(mi int, trace bool) janusConfig {
	return janusConfig{
		Model: in.models[mi], Spec: in.spec, Assignment: in.assignment(mi),
		TopoAware: true, Prefetch: true, SkipMemoryCheck: true, Trace: trace,
	}
}

// pass runs Janus (topology-aware, prefetching, nominal policy) and the
// Tutel baseline once for each model.
func (in *paperInputs) pass(rec *recorder) (paperPass, []error) {
	var p paperPass
	var errs []error
	passStart := time.Now()
	for mi := range in.models {
		t0 := time.Now()
		jr, err := trainJanus(in.janusConfig(mi, false))
		t1 := time.Now()
		tr, terr := trainExpertCentric(tutelConfig{
			Model: in.models[mi], Spec: in.spec, Assignment: in.assignment(mi),
			SkipMemoryCheck: true,
		})
		t2 := time.Now()
		rec.record(0, "sim_paper32", "core", "TrainJanus."+simModels[mi], t0, t1)
		rec.record(0, "sim_paper32", "expertcentric", "TrainExpertCentric."+simModels[mi], t1, t2)
		p.janusHost[mi], p.tutelHost[mi] = t1.Sub(t0), t2.Sub(t1)
		if p.janus[mi], err = checkReport(jr, err); err != nil {
			errs = append(errs, fmt.Errorf("janus: %w", err))
			p.failedRuns++
		}
		if p.tutel[mi], terr = checkReport(tr, terr); terr != nil {
			errs = append(errs, fmt.Errorf("tutel: %w", terr))
			p.failedRuns++
		}
	}
	p.host = time.Since(passStart)
	return p, errs
}

func runSimPaper32(opts sliceOpts) (sliceOut, error) {
	var out sliceOut
	// Set-up is the inputs plus one Janus run per model, after which the
	// heap and the engines' pools have the size the passes need.
	in, setupS, err := timeSetups(opts.setups,
		func() (*paperInputs, error) {
			in := newPaperInputs(opts.seed)
			for mi := range in.models {
				if _, err := checkReport(trainJanus(in.janusConfig(mi, false))); err != nil {
					return nil, err
				}
			}
			return in, nil
		},
		nil)
	if err != nil {
		return out, fmt.Errorf("sim_paper32: set-up: %w", err)
	}
	out.setupS = setupS

	var first paperPass
	hostMs := map[string][]float64{}
	err = out.timedWindows(opts, func(n int, rec *recorder) (float64, bool) {
		p, errs := in.pass(rec)
		out.attempted += 6
		out.failed += p.failedRuns
		for _, e := range errs {
			out.gate("sim_paper32 pass %d: %v", n, e)
		}
		if n == 0 {
			first = p
		} else if p.janus != first.janus || p.tutel != first.tutel {
			// Every run of the pass counts: which one drifted is not known.
			out.failed += 6 - p.failedRuns
			out.gate("sim_paper32 pass %d: simulated numbers differ from pass 0", n)
		}
		for mi, m := range simModels {
			hostMs["core.run_ms."+m] = append(hostMs["core.run_ms."+m], ms(p.janusHost[mi]))
			hostMs["expertcentric.run_ms."+m] = append(hostMs["expertcentric.run_ms."+m], ms(p.tutelHost[mi]))
		}
		return ms(p.host), true
	})
	if err != nil {
		return out, err
	}

	logSpeedup, simIterMs := 0.0, 0.0
	for mi, m := range simModels {
		j, t := first.janus[mi], first.tutel[mi]
		if !(j.iter < t.iter) {
			out.failed++
			out.gate("sim_paper32: Janus (%v s) does not beat Tutel (%v s) on %s", j.iter, t.iter, m)
		}
		logSpeedup += math.Log(t.iter / j.iter)
		simIterMs += j.iter * 1e3
		out.set("core.iter_sim_ms."+m, j.iter*1e3)
		out.set("expertcentric.iter_sim_ms."+m, t.iter*1e3)
		out.set("core.comm_blocked_share."+m, j.blocked/j.iter)
		out.set("core.internode_gib."+m, j.internode/(1<<30))
	}
	speedup := math.Exp(logSpeedup / float64(len(simModels)))
	out.set("core.speedup_geomean", speedup)
	for name, v := range hostMs {
		out.set(name, median(v))
	}
	out.note("sim_paper32: sim_pass_ms median %.1f, sim_iter_ms %.6f (simulated, sum of three Janus iterations), sim_speedup %.6f",
		out.opMs, simIterMs, speedup)

	if opts.rec != nil {
		// What the simulator's own timeline costs: span count per model,
		// and host time with Trace on against the untraced median.
		var on, off float64
		for mi, m := range simModels {
			t0 := time.Now()
			r, err := trainJanus(in.janusConfig(mi, true))
			d := time.Since(t0)
			if err != nil {
				return out, fmt.Errorf("sim_paper32: traced %s: %w", m, err)
			}
			if r.Timeline == nil {
				return out, fmt.Errorf("sim_paper32: Trace:true returned no timeline for %s", m)
			}
			if r.IterationTime != first.janus[mi].iter {
				out.gate("sim_paper32: Trace:true changed %s's simulated iteration time", m)
			}
			out.set("core.trace_spans."+m, float64(len(r.Timeline.Spans)))
			on += ms(d)
			off += out.layer["core.run_ms."+m]
		}
		out.set("core.trace_cost_share", on/off-1)
	}
	return out, nil
}

// ---- sim_scale256 --------------------------------------------------------

const (
	scaleMachines = 256
	scaleTrunks   = 64
	scaleFanout   = 8
	scaleRounds   = 2
)

// scaleFlow is one generated flow of the sparse all-to-all: endpoints,
// trunk and size are fixed by the seed before any timing starts.
type scaleFlow struct {
	name          string
	src, dst, via int
	size          float64
}

// scaleInputs holds the flows of every round. Each machine sends to
// fanout peers at quadratic strides (the two-hop all-to-all shape large
// clusters run); sizes take 97 seeded levels so completions stagger and
// most of them force a reallocation.
type scaleInputs struct {
	up, down, core []string // link names: one up and one down per machine, the trunks
	rounds         [][]scaleFlow
}

// twoTier names the links of a cluster whose machines reach each other
// through a set of shared trunks.
func twoTier(machines, trunks int) *scaleInputs {
	in := &scaleInputs{}
	for m := 0; m < machines; m++ {
		in.up = append(in.up, fmt.Sprintf("up%d", m))
		in.down = append(in.down, fmt.Sprintf("down%d", m))
	}
	for c := 0; c < trunks; c++ {
		in.core = append(in.core, fmt.Sprintf("core%d", c))
	}
	return in
}

func newScaleInputs(seed int64, machines, trunks, fanout, rounds int) *scaleInputs {
	rng := rand.New(rand.NewSource(seed))
	in := twoTier(machines, trunks)
	for r := 0; r < rounds; r++ {
		var flows []scaleFlow
		for s := 0; s < machines; s++ {
			for k := 1; k <= fanout; k++ {
				d := (s + k*k) % machines
				if d == s {
					d = (d + 1) % machines
				}
				flows = append(flows, scaleFlow{
					name: fmt.Sprintf("sa2a.r%d.%d.%d", r, s, k),
					src:  s, dst: d, via: (s*fanout + k) % trunks,
					size: 1e6 * (1 + 0.01*float64(rng.Intn(97))),
				})
			}
		}
		in.rounds = append(in.rounds, flows)
	}
	return in
}

type scalePass struct {
	drain     float64 // simulated seconds until the last flow finished
	flows     int
	settles   int // admission waves plus distinct completion instants
	host      time.Duration
	admit     time.Duration // StartFlows of round 0 up to the first settled rates
	drainHost time.Duration
	mallocs   uint64 // during the drain, when countAllocs
}

// pass builds the two-tier network with the default allocator, admits
// round 0, and admits each next round when the previous one has drained.
func (in *scaleInputs) pass(countAllocs bool) (scalePass, error) {
	var p scalePass
	start := time.Now()
	eng := newSimEngine()
	net := newFabricNet(eng)
	up := make([]*fabricLink, len(in.up))
	down := make([]*fabricLink, len(in.down))
	core := make([]*fabricLink, len(in.core))
	for m := range up {
		up[m] = net.NewLink(in.up[m], "nic", 1e10, 0)
		down[m] = net.NewLink(in.down[m], "nic", 1e10, 0)
	}
	for c := range core {
		core[c] = net.NewLink(in.core[c], "core", 4e10, 0).MarkTrunk()
	}

	lastDone := -1.0
	var kick func(r int)
	kick = func(r int) {
		if r == len(in.rounds) {
			return
		}
		flows := in.rounds[r]
		specs := make([]fabricSpec, len(flows))
		left := len(flows)
		for i, f := range flows {
			specs[i] = fabricSpec{
				Name: f.name, Size: f.size,
				Path: []*fabricLink{up[f.src], core[f.via], down[f.dst]},
				OnComplete: func(fl *fabricFlow) {
					p.flows++
					if at := fl.FinishedAt(); at != lastDone {
						lastDone = at
						p.settles++
					}
					if left--; left == 0 {
						kick(r + 1)
					}
				},
			}
		}
		p.settles++
		net.StartFlows(specs)
	}
	admitStart := time.Now()
	kick(0)
	eng.RunUntil(eng.Now()) // activation and the first settle happen at this instant
	p.admit = time.Since(admitStart)

	var before heapCounts
	if countAllocs {
		before = readHeapCounts()
	}
	drainStart := time.Now()
	eng.Run()
	p.drainHost = time.Since(drainStart)
	if countAllocs {
		p.mallocs = readHeapCounts().since(before).mallocs
	}
	p.drain = eng.Now()
	p.host = time.Since(start)

	want := 0
	for _, r := range in.rounds {
		want += len(r)
	}
	if p.flows != want {
		return p, fmt.Errorf("%d of %d flows completed", p.flows, want)
	}
	if !finite(p.drain) || p.drain <= 0 {
		return p, fmt.Errorf("drain time %v", p.drain)
	}
	return p, nil
}

func runSimScale256(opts sliceOpts) (sliceOut, error) {
	var out sliceOut
	// Set-up is the inputs plus a pass over a quarter of the cluster, which
	// grows the heap and warms the allocator's code paths.
	in, setupS, err := timeSetups(opts.setups,
		func() (*scaleInputs, error) {
			warm := newScaleInputs(opts.seed, scaleMachines/4, scaleTrunks/4, scaleFanout, scaleRounds)
			if _, err := warm.pass(false); err != nil {
				return nil, err
			}
			return newScaleInputs(opts.seed, scaleMachines, scaleTrunks, scaleFanout, scaleRounds), nil
		},
		nil)
	if err != nil {
		return out, fmt.Errorf("sim_scale256: set-up: %w", err)
	}
	out.setupS = setupS

	var first scalePass
	var settleUs, admitUs []float64
	err = out.timedWindows(opts, func(n int, rec *recorder) (float64, bool) {
		t0 := time.Now()
		p, err := in.pass(false)
		rec.record(0, "sim_scale256", "fabric", "sparse_a2a_pass", t0, time.Now())
		out.attempted++
		if err != nil {
			out.failed++
			out.gate("sim_scale256 pass %d: %v", n, err)
		}
		if n == 0 {
			first = p
		} else if p.drain != first.drain || p.settles != first.settles {
			out.failed++
			out.gate("sim_scale256 pass %d: drain %v s / %d settles differ from pass 0 (%v s / %d)",
				n, p.drain, p.settles, first.drain, first.settles)
		}
		settleUs = append(settleUs, us(p.drainHost)/float64(p.settles))
		admitUs = append(admitUs, us(p.admit)/float64(len(in.rounds[0])))
		return ms(p.host), true
	})
	if err != nil {
		return out, err
	}
	out.set("fabric.settle_us.s256", median(settleUs))
	out.set("fabric.admit_us_per_flow.s256", median(admitUs))
	out.set("fabric.drain_sim_ms.s256", first.drain*1e3)
	out.note("sim_scale256: sim_pass_ms median %.1f, sim_iter_ms %.6f (simulated drain of %d flows in %d settles)",
		out.opMs, first.drain*1e3, first.flows, first.settles)
	return out, nil
}

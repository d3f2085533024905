package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"
)

// Layer probes: direct timed calls into one layer's public functions,
// with inputs shaped like the workload named in the metric's suffix.
// Each probe gets probeBudget at most (5 to 30 repetitions, median).
const probeBudget = 150 * time.Millisecond

// runProbes measures every probe-sourced per-layer metric.
func runProbes(seed int64, out *sliceOut) error {
	probeSim(out)
	probeFabric32(out)
	if err := probeSimPlane32(seed, out); err != nil {
		return err
	}
	probeKernels(seed, out)
	return probeTransport(seed, out)
}

func probeSim(out *sliceOut) {
	const events = 100000
	ns := probe(probeBudget, func() {
		eng := newSimEngine()
		fired := 0
		for i := 0; i < events; i++ {
			// Out-of-order times, so the heap does real sifting.
			eng.At(float64((i*7919)%events), func() { fired++ })
		}
		eng.Run()
	})
	out.set("sim.events_per_s", events/(ns/1e9))

	const ops = 100000
	ns = probe(probeBudget, func() {
		eng := newSimEngine()
		p := newSimProcessor(eng, "probe")
		for i := 0; i < ops; i++ {
			p.Submit("op", 1e-6, nil)
		}
		eng.Run()
	})
	out.set("sim.processor_submit_ns", ns/ops)
}

// probeFabric32 runs the fabric on the 32-machine, 8-trunk topology: one
// dense all-to-all round (992 staggered flows, a settle per completion)
// for the settle cost, and a 1000-flow wave for the admission cost.
func probeFabric32(out *sliceOut) {
	const machines, trunks = 32, 8
	dense, wave := twoTier(machines, trunks), twoTier(machines, trunks)
	var flows []scaleFlow
	for s := 0; s < machines; s++ {
		for d := 0; d < machines; d++ {
			if s != d {
				flows = append(flows, scaleFlow{
					name: fmt.Sprintf("a2a.%d.%d", s, d), src: s, dst: d, via: (s + d) % trunks,
					size: 1e6 * (1 + 0.01*float64(s*machines+d)),
				})
			}
		}
	}
	dense.rounds = [][]scaleFlow{flows}
	flows = nil
	for f := 0; f < 1000; f++ {
		s := f % machines
		d := (f + 1 + f/machines) % machines
		if d == s {
			d = (d + 1) % machines
		}
		flows = append(flows, scaleFlow{
			name: fmt.Sprintf("f%d", f), src: s, dst: d, via: f % trunks,
			size: 1e6 + float64(f%7)*1e5,
		})
	}
	wave.rounds = [][]scaleFlow{flows}

	var settleUs, allocs, admitUs []float64
	probe(2*probeBudget, func() {
		p, err := dense.pass(true)
		if err == nil {
			settleUs = append(settleUs, us(p.drainHost)/float64(p.settles))
			allocs = append(allocs, float64(p.mallocs)/float64(p.settles))
		}
	})
	probe(2*probeBudget, func() {
		p, err := wave.pass(false)
		if err == nil {
			admitUs = append(admitUs, us(p.admit)/float64(len(flows)))
		}
	})
	out.set("fabric.settle_us.p32", median(settleUs))
	out.set("fabric.allocs_per_settle.p32", median(allocs))
	out.set("fabric.admit_us_per_flow.p32", median(admitUs))
}

// probeSimPlane32 times topology construction, the Zipf gate and the
// three collectives on the paper's 32-GPU cluster with MoE-GPT's sizes.
func probeSimPlane32(seed int64, out *sliceOut) error {
	spec := defaultSpec(4)
	gpt := moeGPT(32)
	var perr error
	out.set("topology.build_ms.p32", probe(probeBudget, func() {
		if _, err := newTopology(spec); err != nil {
			perr = err
		}
	})/1e6)
	if perr != nil {
		return fmt.Errorf("topology probe: %w", perr)
	}
	tokens := int(gpt.TokensPerWorker())
	out.set("gate.zipf_ms.p32", probe(probeBudget, func() {
		zipfAssignment(spec.TotalGPUs(), 32, tokens, paperSkew, seed)
	})/1e6)

	sampler := newGateSampler(serveExperts, 2, 1.1, seed)
	dst := make([]int, 0, 2)
	id := uint64(0)
	out.set("gate.sampler_ns", probeBatch(probeBudget, 1000, func() {
		id++
		dst = sampler.ExpertsInto(id, dst[:0])
	}))

	// Dispatch bytes of one MoE-GPT block: every worker's T = B*S*k token
	// slots of H fp16 values, spread evenly over the 32 destinations.
	n := spec.TotalGPUs()
	pair := gpt.TokensPerWorker() * float64(gpt.H) * 2 / float64(n)
	sizes := make([][]float64, n)
	for i := range sizes {
		sizes[i] = make([]float64, n)
		for j := range sizes[i] {
			if i != j {
				sizes[i][j] = pair
			}
		}
	}
	denseGradBytes := 12 * 12 * float64(gpt.H) * float64(gpt.H) * 2 // 12 blocks of 12H^2 fp16 parameters
	collectives := []struct {
		name string
		run  func(c *topoCluster, done func())
	}{
		{"collective.a2a_ms.p32", func(c *topoCluster, done func()) { allToAll(c, c.GPUs(), sizes, "probe", done) }},
		{"collective.hier_a2a_ms.p32", func(c *topoCluster, done func()) { hierarchicalAllToAll(c, sizes, "probe", done) }},
		{"collective.allreduce_ms.p32", func(c *topoCluster, done func()) { ringAllReduce(c, c.GPUs(), denseGradBytes, "probe", done) }},
	}
	for _, col := range collectives {
		var hostMs []float64
		probe(probeBudget, func() {
			c, err := newTopology(spec)
			if err != nil {
				perr = err
				return
			}
			finished := false
			t0 := time.Now()
			col.run(c, func() { finished = true })
			c.Engine.Run()
			hostMs = append(hostMs, ms(time.Since(t0)))
			if !finished {
				perr = fmt.Errorf("%s: the collective never completed", col.name)
			}
		})
		if perr != nil {
			return perr
		}
		out.set(col.name, median(hostMs))
	}
	return nil
}

// expertRows is how many token rows one (worker, expert) piece of a
// training step holds on average: tokens x top-2 spread over 32 experts,
// and at least the single row a tiny batch still routes.
func (s trainShape) expertRows() int {
	return max(1, s.tokens*2/trainExperts)
}

func probeKernels(seed int64, out *sliceOut) {
	for _, s := range []trainShape{trainRTT, trainBulk} {
		h, rows := s.hidden, s.expertRows()
		x := newRandomMatrix(rows, h, 1, seed)
		dy := newRandomMatrix(rows, h, 1, seed+1)
		e := newExpert(h, seed+2)
		h1 := newMatrix(rows, 4*h)
		dw := newMatrix(h, 4*h)
		da := newMatrix(rows, 4*h)
		// The three products of an expert's first layer: forward, weight
		// gradient, input gradient; 2*rows*H*4H flops each.
		matmul := probeBatch(probeBudget, 20, func() {
			matMulInto(x, e.W1, h1)
			matMulTransAInto(x, h1, dw)
			matMulTransBInto(dy, e.W2, da)
		})
		flops := 3 * 2 * float64(rows) * float64(h) * float64(4*h)
		if s.suffix == "bulk" {
			out.set("tensor.matmul_gflops.bulk", flops/matmul)
		} else {
			out.set("tensor.matmul_ns.rtt", matmul/3)
		}
		out.set("moe.fwdbwd_us."+s.suffix, probeBatch(probeBudget, 20, func() {
			y, g := e.ForwardBackward(x, dy)
			putMatrix(y)
			putExpertGrad(g)
		})/1e3)
		if s.suffix == "bulk" {
			_, g := e.ForwardBackward(x, dy)
			out.set("moe.sgd_us.bulk", probeBatch(probeBudget, 20, func() { e.ApplySGD(g, 1e-6) })/1e3)
			putExpertGrad(g)
		}
	}
	e := newExpert(serveHidden, seed+3)
	x := newRandomMatrix(serveRows, serveHidden, 1, seed+4)
	out.set("moe.fwd_us.serve", probeBatch(probeBudget, 20, func() {
		y, cache := e.Forward(x)
		cache.Release()
		putMatrix(y)
	})/1e3)
}

// probeStore is the benchmark's own transport.Store: one expert's bytes
// for pulls, a sink for gradients, and a real expert forward for SERVE.
type probeStore struct {
	weights []byte
	model   *expert
}

func (s *probeStore) ExpertBytes(expertID) ([]byte, error)           { return s.weights, nil }
func (s *probeStore) ExpertBytesAt(expertID, uint64) ([]byte, error) { return s.weights, nil }
func (s *probeStore) AddGradient(_ expertID, payload []byte) error {
	if len(payload) == 0 {
		return errors.New("probe store: empty gradient")
	}
	return nil
}

func (s *probeStore) ServeExpert(_ expertID, payload []byte) ([]byte, error) {
	_, rows, cols, data, err := decodeServe(payload)
	if err != nil {
		return nil, err
	}
	x := newMatrix(rows, cols)
	copy(x.Data, data)
	y, cache := s.model.Forward(x)
	cache.Release()
	defer putMatrix(y)
	return encodeServeOut(provOwner, y.Data)
}

// expertWireBytes is the size of one encoded expert: 8H^2 fp32 weights.
func expertWireBytes(h int) int { return 8 * h * h * 4 }

// endpoint is a loopback server and a client for it.
type endpoint struct {
	srv  *wireServer
	cli  *wireClient
	addr string
}

// open serves store on a loopback port. With an injector both the
// listener and the client's connections are wrapped, as the live cluster
// wraps them.
func open(store *probeStore, inj *injector) (endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return endpoint{}, err
	}
	opts := wireOpts{Credits: 16}
	if inj != nil {
		ln = inj.WrapListener(ln, "probe")
		opts.Dial = func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return inj.WrapConn(conn, "probe.client"), nil
		}
	}
	srv := newWireServer(store)
	addr, err := srv.StartListener(ln)
	if err != nil {
		ln.Close()
		return endpoint{}, err
	}
	return endpoint{srv, newWireClientOptions(opts), addr}, nil
}

func (e endpoint) close() {
	e.cli.Close()
	e.srv.Close()
}

// probeTransport times loopback round trips against a server holding one
// expert of each training shape, a SERVE micro-batch of the serving
// shape, and the same small pull through the 100us delay rule.
func probeTransport(seed int64, out *sliceOut) error {
	ctx := context.Background()
	id := expertID{Block: 1, Expert: 2}
	rng := rand.New(rand.NewSource(seed))
	var perr error
	fail := func(err error) {
		if err != nil && perr == nil {
			perr = err
		}
	}
	var plainPullRTT float64
	for _, s := range []trainShape{trainRTT, trainBulk} {
		weights := make([]byte, expertWireBytes(s.hidden))
		rng.Read(weights)
		ep, err := open(&probeStore{weights: weights}, nil)
		if err != nil {
			return err
		}
		dst := make([]byte, 0, len(weights))
		pull := func() {
			got, err := ep.cli.PullVersionInto(ctx, ep.addr, id, 0, dst)
			if err == nil && len(got) != len(weights) {
				err = fmt.Errorf("pulled %d bytes of %d", len(got), len(weights))
			}
			fail(err)
		}
		pullNs := probeBatch(probeBudget, 20, pull)
		out.set("transport.pull_us."+s.suffix, pullNs/1e3)
		out.set("transport.push_us."+s.suffix, probeBatch(probeBudget, 20, func() {
			fail(ep.cli.PushGradient(ctx, ep.addr, id, weights))
		})/1e3)
		if s.suffix == "bulk" {
			out.set("transport.pull_mbps.bulk", float64(len(weights))/1e6/(pullNs/1e9))
		} else {
			plainPullRTT = pullNs
			const pulls = 2000
			before := readHeapCounts()
			for i := 0; i < pulls; i++ {
				pull()
			}
			out.set("transport.allocs_per_pull", float64(readHeapCounts().since(before).mallocs)/pulls)
		}
		ep.close()
	}

	ep, err := open(&probeStore{model: newExpert(serveHidden, seed)}, nil)
	if err != nil {
		return err
	}
	rows := newRandomMatrix(serveRows, serveHidden, 1, seed+1)
	payload, err := encodeServe(uint64(serveDeadline/time.Microsecond), serveRows, serveHidden, rows.Data)
	if err != nil {
		return err
	}
	out.set("transport.serve_us.serve", probeBatch(probeBudget, 20, func() {
		_, data, err := ep.cli.ServeExpert(ctx, ep.addr, id, payload)
		if err == nil && len(data) != serveRows*serveHidden {
			err = fmt.Errorf("SERVE returned %d values", len(data))
		}
		fail(err)
	})/1e3)
	ep.close()

	inj := newFaultInjector(seed)
	inj.AddRule(faultRule{Fault: fault{Delay: trainRTT.delay}})
	weights := make([]byte, expertWireBytes(trainRTT.hidden))
	if ep, err = open(&probeStore{weights: weights}, inj); err != nil {
		return err
	}
	dst := make([]byte, 0, len(weights))
	delayed := probeBatch(probeBudget, 5, func() {
		_, err := ep.cli.PullVersionInto(ctx, ep.addr, id, 0, dst)
		fail(err)
	})
	out.set("faultinject.added_rtt_us", (delayed-plainPullRTT)/1e3)
	ep.close()
	if perr != nil {
		return fmt.Errorf("transport probe: %w", perr)
	}
	return nil
}

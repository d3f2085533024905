package janus_test

import (
	"fmt"
	"log"

	"janus"
	"janus/internal/tensor"
)

// Train one iteration of MoE-BERT on a simulated 4-machine A100
// cluster under both paradigms and print the speedup: the 20-line
// version of the paper's Figure 14.
func Example_quickstart() {
	model := janus.MoEBERT(32)   // Table 1: 32 experts on 32 GPUs
	spec := janus.DefaultSpec(4) // 4 machines × 8 A100s, paper testbed

	tutel, err := janus.TrainExpertCentric(janus.BaselineConfig{Model: model, Spec: spec})
	if err != nil {
		log.Fatal(err)
	}
	fast, err := janus.TrainJanus(janus.JanusConfig{
		Model: model, Spec: spec,
		TopoAware: true, Prefetch: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("expert-centric (Tutel): ", tutel)
	fmt.Println("data-centric   (Janus): ", fast)
	fmt.Printf("speedup: %.2fx, inter-node traffic reduced %.1fx\n",
		tutel.IterationTime/fast.IterationTime,
		tutel.InterNodeEgressBytes/fast.InterNodeEgressBytes)
	// Output:
	// expert-centric (Tutel):  MoE-BERT on 32 GPUs: iter 1789.3ms (fwd 734.7ms, comm-blocked 826.4ms = 46%), inter-node 36.95 GiB
	// data-centric   (Janus):  MoE-BERT on 32 GPUs: iter 1525.5ms (fwd 618.4ms, comm-blocked 58.4ms = 4%), inter-node 7.70 GiB
	// speedup: 1.17x, inter-node traffic reduced 4.8x
}

// The data-centric paradigm with real bytes on real sockets: a
// miniature cluster of TCP "machines" hosting real expert weights runs
// one training step. Workers pull experts through the §6 protocol (once
// per machine, under a credit window), run forward and backward, and
// push one pre-reduced gradient per expert back to its owner. The
// step's outputs equal the expert-centric computation exactly.
func ExampleLiveCluster_Train() {
	cfg := janus.LiveConfig{
		Machines: 2, WorkersPerNode: 2,
		NumExperts: 8, TopK: 2, Hidden: 32,
		TokensPerWorker: 512, // R = T/(4nHE) = 512*2/(4*2*32*2) = 2
		Seed:            7, Credits: 4,
	}
	cl, err := janus.StartLiveCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.Train(janus.LiveTrainOptions{Steps: 1})
	if err != nil {
		log.Fatal(err)
	}
	ref := cl.RunExpertCentricReference()
	for w := range ref {
		if !tensor.Equal(res.FinalOutputs[w], ref[w]) {
			log.Fatalf("worker %d output differs from the expert-centric reference", w)
		}
	}
	fmt.Println("step-1 outputs are bit-identical to the expert-centric reference")
	fmt.Printf("gradient pushes accepted per machine: %v (one pre-reduced push per external expert)\n",
		cl.GradsAccepted())
	tokenBytes := cl.TokenExchangeBytes()
	fmt.Printf("cross-machine bytes per training step: %d (expert pull + gradient push) vs %d (token exchange) = %.1fx reduction\n",
		res.CrossMachineBytes, tokenBytes,
		float64(tokenBytes)/float64(res.CrossMachineBytes))
	// Output:
	// step-1 outputs are bit-identical to the expert-centric reference
	// gradient pushes accepted per machine: [4 4] (one pre-reduced push per external expert)
	// cross-machine bytes per training step: 525728 (expert pull + gradient push) vs 1014784 (token exchange) = 1.9x reduction
}

// The paper's Figure 13 study: trace one MoE-GPT forward pass with
// provident prefetch and show how expert fetches overlap the
// computation of the 11 dense blocks before the MoE block, then
// quantify the overlap against a no-prefetch run.
func ExampleTrainJanus_prefetchTrace() {
	model := janus.MoEGPT(32)
	spec := janus.DefaultSpec(4)
	workers := spec.TotalGPUs()
	assign := func(block int) janus.Assignment {
		return janus.ZipfAssignment(workers, model.Blocks[block].NumExperts,
			int(model.TokensPerWorker()), 0.3, int64(block)+1)
	}

	run := func(prefetch bool) janus.Report {
		rep, err := janus.TrainJanus(janus.JanusConfig{
			Model: model, Spec: spec, Assignment: assign,
			Prefetch: prefetch, CreditSize: 12, Trace: true,
			SkipMemoryCheck: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}
	with := run(true)
	without := run(false)

	fmt.Println("block completions on worker 0 (ms):")
	for _, m := range with.Timeline.MarksNamed("fwd.block") {
		fmt.Printf("  %-18s %8.1f\n", m.Name, m.At*1e3)
	}
	fmt.Println("\nexpert arrivals for the MoE block (block 10) on worker 0 (ms):")
	gate, _ := with.Timeline.MarkAt("fwd.block9.done")
	early := 0
	for _, m := range with.Timeline.MarksNamed("expert.block10.ep") {
		tag := ""
		if m.At < gate {
			tag = "  (before the gate)"
			early++
		}
		fmt.Printf("  %-30s %8.1f%s\n", m.Name, m.At*1e3, tag)
	}
	fmt.Printf("\n%d experts arrived before the MoE gate (paper: 12)\n", early)
	fmt.Printf("forward: %.1f ms with prefetch, %.1f ms without — overlap %.1f ms, speedup %.2fx\n",
		with.ForwardTime*1e3, without.ForwardTime*1e3,
		(without.ForwardTime-with.ForwardTime)*1e3,
		without.ForwardTime/with.ForwardTime)
	fmt.Println("(paper: forward 210.4 ms, overlap ~74.9 ms, 1.36x)")
	// Output:
	// block completions on worker 0 (ms):
	//   fwd.block0.done        11.1
	//   fwd.block1.done        22.2
	//   fwd.block2.done        33.2
	//   fwd.block3.done        44.3
	//   fwd.block4.done        55.4
	//   fwd.block5.done        66.5
	//   fwd.block6.done        77.6
	//   fwd.block7.done        88.7
	//   fwd.block8.done        99.7
	//   fwd.block9.done       110.8
	//   fwd.block10.done      202.7
	//   fwd.block11.done      213.8
	//
	// expert arrivals for the MoE block (block 10) on worker 0 (ms):
	//   expert.block10.ep1.arrived          4.3  (before the gate)
	//   expert.block10.ep2.arrived          4.3  (before the gate)
	//   expert.block10.ep3.arrived          4.3  (before the gate)
	//   expert.block10.ep4.arrived          4.3  (before the gate)
	//   expert.block10.ep5.arrived          4.3  (before the gate)
	//   expert.block10.ep6.arrived          4.3  (before the gate)
	//   expert.block10.ep7.arrived          4.3  (before the gate)
	//   expert.block10.ep8.arrived         31.3  (before the gate)
	//   expert.block10.ep9.arrived         31.3  (before the gate)
	//   expert.block10.ep10.arrived        31.3  (before the gate)
	//   expert.block10.ep11.arrived        31.3  (before the gate)
	//   expert.block10.ep12.arrived        31.3  (before the gate)
	//   expert.block10.ep13.arrived       121.0
	//   expert.block10.ep14.arrived       124.3
	//   expert.block10.ep15.arrived       127.4
	//   expert.block10.ep16.arrived       130.4
	//   expert.block10.ep17.arrived       133.2
	//   expert.block10.ep18.arrived       136.3
	//   expert.block10.ep19.arrived       139.4
	//   expert.block10.ep20.arrived       142.3
	//   expert.block10.ep21.arrived       145.0
	//   expert.block10.ep22.arrived       147.8
	//   expert.block10.ep23.arrived       150.6
	//   expert.block10.ep24.arrived       153.3
	//   expert.block10.ep25.arrived       156.1
	//   expert.block10.ep26.arrived       158.8
	//   expert.block10.ep27.arrived       161.5
	//   expert.block10.ep28.arrived       164.2
	//   expert.block10.ep29.arrived       166.8
	//   expert.block10.ep30.arrived       169.5
	//   expert.block10.ep31.arrived       172.1
	//
	// 12 experts arrived before the MoE gate (paper: 12)
	// forward: 213.8 ms with prefetch, 237.3 ms without — overlap 23.5 ms, speedup 1.11x
	// (paper: forward 210.4 ms, overlap ~74.9 ms, 1.36x)
}

// §7.5 of the paper: on a Pyramid-Residual MoE model the gain metric R
// differs per block, so neither pure paradigm is optimal. Janus runs
// the shallow (high-R) blocks data-centric and the deep (low-R) blocks
// expert-centric, and beats both pure configurations.
func ExampleBlockParadigms() {
	// The paper's 16-GPU run: 4 machines × 4 GPUs; the first two MoE
	// blocks have 16 experts (R=4), the last two have 64 (R=1).
	model := janus.PRMoETransformerXL(16, 64, 32)
	spec := janus.DefaultSpec(4)
	spec.GPUsPerNode = 4
	workers := spec.TotalGPUs()
	assign := func(block int) janus.Assignment {
		return janus.ZipfAssignment(workers, model.Blocks[block].NumExperts,
			int(model.TokensPerWorker()), 0.3, int64(block)+1)
	}

	fmt.Println("per-block paradigm choice (conservative policy):")
	paradigms := janus.BlockParadigms(janus.JanusConfig{
		Model: model, Spec: spec, Policy: janus.ConservativePolicy(),
	})
	for i, blk := range model.Blocks {
		if blk.NumExperts == 0 {
			continue
		}
		r := model.GainR(i, spec.NumMachines, workers)
		fmt.Printf("  block %2d: %3d experts, R=%.1f -> %v\n", i, blk.NumExperts, r, paradigms[i])
	}

	run := func(force *janus.Paradigm) janus.Report {
		rep, err := janus.TrainJanus(janus.JanusConfig{
			Model: model, Spec: spec, Assignment: assign,
			Policy: janus.ConservativePolicy(), ForceParadigm: force,
			TopoAware: true, Prefetch: true, SkipMemoryCheck: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}
	ec, dc := janus.ExpertCentric, janus.DataCentric
	pureEC := run(&ec)
	pureDC := run(&dc)
	unified := run(nil)

	fmt.Printf("\npure expert-centric: %7.1f ms\n", pureEC.IterationTime*1e3)
	fmt.Printf("pure data-centric:   %7.1f ms\n", pureDC.IterationTime*1e3)
	fmt.Printf("unified Janus:       %7.1f ms  (%.2fx over pure expert-centric)\n",
		unified.IterationTime*1e3, pureEC.IterationTime/unified.IterationTime)
	// Output:
	// per-block paradigm choice (conservative policy):
	//   block  2:  16 experts, R=4.0 -> data-centric
	//   block  5:  16 experts, R=4.0 -> data-centric
	//   block  8:  64 experts, R=1.0 -> expert-centric
	//   block 11:  64 experts, R=1.0 -> expert-centric
	//
	// pure expert-centric:   155.4 ms
	// pure data-centric:     164.9 ms
	// unified Janus:         123.2 ms  (1.26x over pure expert-centric)
}

// A short training run (not a single iteration) with a gate whose
// routing drifts from near-uniform to skewed, the way real MoE gates
// specialise during training: the §3.1 methodology of averaging many
// iterations. The synchronous baseline degrades as the gate skews (its
// All-to-All waits for the hottest expert's owner); Janus's iteration
// time stays flat because each worker only ever computes its own
// tokens.
func ExampleTrainRun() {
	base := janus.TrainRunConfig{
		Model: janus.MoEGPT(32), Spec: janus.DefaultSpec(4),
		Iterations: 6, SkewStart: 0.0, SkewEnd: 1.0, Seed: 21,
		TopoAware: true, Prefetch: true,
	}

	tutelCfg := base
	tutelCfg.Engine = janus.TutelEngine
	tutel, err := janus.TrainRun(tutelCfg)
	if err != nil {
		log.Fatal(err)
	}
	janusCfg := base
	janusCfg.Engine = janus.JanusEngine
	fast, err := janus.TrainRun(janusCfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("per-iteration times as the gate drifts (imbalance in brackets):")
	fmt.Printf("%6s %12s %12s %12s\n", "iter", "imbalance", "tutel(ms)", "janus(ms)")
	for i := range tutel.IterationTimes {
		fmt.Printf("%6d %11.2fx %12.1f %12.1f\n",
			i, tutel.Imbalance[i], tutel.IterationTimes[i]*1e3, fast.IterationTimes[i]*1e3)
	}
	fmt.Println()
	fmt.Print(tutel.Render())
	fmt.Println()
	fmt.Print(fast.Render())
	fmt.Printf("\nrun-level speedup: %.2fx (throughput %.2f vs %.2f Mtokens/s)\n",
		tutel.Time.Mean/fast.Time.Mean, fast.Throughput()/1e6, tutel.Throughput()/1e6)
	// Output:
	// per-iteration times as the gate drifts (imbalance in brackets):
	//   iter    imbalance    tutel(ms)    janus(ms)
	//      0        1.03x        674.2        587.7
	//      1        1.65x        834.9        587.7
	//      2        2.59x       1067.2        587.7
	//      3        3.91x       1387.3        587.7
	//      4        5.59x       1766.0        587.7
	//      5        7.95x       2281.0        587.7
	//
	// tutel: 6 iterations
	// iteration time  mean 1335.1 ms  p50 1067.2 ms  p99 1766.0 ms  (min 674.2, max 2281.0)
	// comm-blocked    mean 638.5 ms  (48% of mean iteration)
	// throughput      0.39 Mtokens/s
	// inter-node      60.96 GiB total
	//
	// janus: 6 iterations
	// iteration time  mean 587.7 ms  p50 587.7 ms  p99 587.7 ms  (min 587.7, max 587.7)
	// comm-blocked    mean 0.0 ms  (0% of mean iteration)
	// throughput      0.89 Mtokens/s
	// inter-node      17.07 GiB total
	//
	// run-level speedup: 2.27x (throughput 0.89 vs 0.39 Mtokens/s)
}

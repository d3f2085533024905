package expertcentric

import (
	"math"
	"testing"

	"janus/internal/config"
	"janus/internal/costmodel"
	"janus/internal/engine"
	"janus/internal/gate"
	"janus/internal/metrics"
	"janus/internal/topology"
)

func run(t *testing.T, cfg Config) (rep struct {
	IterationTime, ForwardTime, CommBlockedTime, InterNodeEgressBytes float64
	OOM                                                               bool
	PerMachineEgress                                                  []float64
}) {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep.IterationTime = r.IterationTime
	rep.ForwardTime = r.ForwardTime
	rep.CommBlockedTime = r.CommBlockedTime
	rep.InterNodeEgressBytes = r.InterNodeEgressBytes
	rep.OOM = r.OOM
	rep.PerMachineEgress = r.PerMachineEgress
	return rep
}

func TestRunCompletesBERT(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation sweep; skipped under -short")
	}
	cfg := Config{Model: config.MoEBERT(32), Spec: topology.DefaultSpec(4)}
	r := run(t, cfg)
	if r.OOM {
		t.Fatal("unexpected OOM")
	}
	if r.IterationTime <= 0 || r.ForwardTime <= 0 || r.ForwardTime >= r.IterationTime {
		t.Fatalf("times: iter=%v fwd=%v", r.IterationTime, r.ForwardTime)
	}
	if r.CommBlockedTime <= 0 || r.CommBlockedTime >= r.IterationTime {
		t.Fatalf("comm blocked %v of %v", r.CommBlockedTime, r.IterationTime)
	}
}

// TestTrafficMatchesClosedForm: with balanced routing, the measured
// inter-node egress must match Table 1's Comm_EC formula
// (forward+backward, times MoE blocks, times machines) plus the
// analytically-known cross-machine share of the dense-gradient ring
// AllReduce.
func TestTrafficMatchesClosedForm(t *testing.T) {
	spec := topology.DefaultSpec(2)
	model := config.MoEGPT(16)
	r := run(t, Config{Model: model, Spec: spec})

	costs := engine.NewCosts(spec, model)
	nGPU := 16
	dgb := costs.DenseGradBytes(nGPU)
	// Ring over 16 GPUs: 2(N-1) steps, each step crosses the 2 machine
	// boundaries with one chunk of dgb/N each.
	arCross := float64(2*(nGPU-1)) * 2 * dgb / float64(nGPU)
	want := 2*costmodel.CommECForwardPerMachine(model.B, model.S, model.K, model.H, 8, 2)*2 + arCross
	if math.Abs(r.InterNodeEgressBytes-want)/want > 0.001 {
		t.Fatalf("inter-node bytes = %.0f, closed form %.0f", r.InterNodeEgressBytes, want)
	}
}

func TestEgressBalancedAcrossMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation sweep; skipped under -short")
	}
	r := run(t, Config{Model: config.MoEBERT(32), Spec: topology.DefaultSpec(4)})
	mean := 0.0
	for _, e := range r.PerMachineEgress {
		mean += e
	}
	mean /= float64(len(r.PerMachineEgress))
	for i, e := range r.PerMachineEgress {
		if math.Abs(e-mean)/mean > 0.05 {
			t.Fatalf("machine %d egress %.0f deviates from mean %.0f", i, e, mean)
		}
	}
}

func TestImbalanceSlowsIteration(t *testing.T) {
	spec := topology.DefaultSpec(2)
	model := config.MoEGPT(16)
	bal := run(t, Config{Model: model, Spec: spec})
	skew := run(t, Config{
		Model: model, Spec: spec,
		Assignment: func(block int) gate.Assignment {
			return gate.Zipf(16, 16, int(model.TokensPerWorker()), 1.2, 7)
		},
	})
	if skew.IterationTime <= bal.IterationTime {
		t.Fatalf("skewed iteration %.4f not slower than balanced %.4f",
			skew.IterationTime, bal.IterationTime)
	}
}

func TestHierarchicalNotSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation sweep; skipped under -short")
	}
	spec := topology.DefaultSpec(4)
	model := config.MoETransformerXL(32)
	flat := run(t, Config{Model: model, Spec: spec})
	hier := run(t, Config{Model: model, Spec: spec, Hierarchical: true})
	if hier.IterationTime > 1.5*flat.IterationTime {
		t.Fatalf("hierarchical %.4f much slower than flat %.4f", hier.IterationTime, flat.IterationTime)
	}
	if math.Abs(hier.InterNodeEgressBytes-flat.InterNodeEgressBytes)/flat.InterNodeEgressBytes > 0.01 {
		t.Fatal("hierarchical changed inter-node volume")
	}
}

// TestFig16OOM: MoE-BERT with S=512 (and the Fig. 16 sensitivity k=4)
// must OOM under the expert-centric paradigm on 80 GB GPUs.
func TestFig16OOM(t *testing.T) {
	model := config.MoEBERT(32)
	model.S = 512
	model.K = 4
	r := run(t, Config{Model: model, Spec: topology.DefaultSpec(4)})
	if !r.OOM {
		t.Fatal("expected OOM at S=512")
	}
	if r.IterationTime != 0 {
		t.Fatal("OOM run should not report a time")
	}
	model.S = 256
	r2 := run(t, Config{Model: model, Spec: topology.DefaultSpec(4)})
	if r2.OOM {
		t.Fatal("S=256 should fit")
	}
}

func TestSkipMemoryCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation sweep; skipped under -short")
	}
	model := config.MoEBERT(32)
	model.S = 512
	model.K = 4
	r := run(t, Config{Model: model, Spec: topology.DefaultSpec(4), SkipMemoryCheck: true})
	if r.OOM || r.IterationTime <= 0 {
		t.Fatal("SkipMemoryCheck did not bypass OOM")
	}
}

func TestTraceRecordsBlocksAndA2A(t *testing.T) {
	cfg := Config{Model: config.MoEGPT(16), Spec: topology.DefaultSpec(2), Trace: true}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	marks := r.Timeline.MarksNamed("fwd.block")
	if len(marks) != 12 {
		t.Fatalf("block marks = %d, want 12", len(marks))
	}
	for i := 1; i < len(marks); i++ {
		if marks[i].At < marks[i-1].At {
			t.Fatal("block completion marks out of order")
		}
	}
	a2a := r.Timeline.SpansOn("net")
	// 1 MoE block: 2 forward A2A + 2 backward A2A.
	if len(a2a) != 4 {
		t.Fatalf("a2a spans = %d, want 4", len(a2a))
	}
	var busy float64
	for _, s := range r.Timeline.SpansOn("m0g0") {
		busy += s.Duration()
	}
	if busy <= 0 {
		t.Fatal("no compute spans recorded")
	}
}

// Determinism: two identical runs produce identical timings and bytes.
func TestRunDeterministic(t *testing.T) {
	cfg := Config{Model: config.MoEBERT(16), Spec: topology.DefaultSpec(2)}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.IterationTime != b.IterationTime || a.InterNodeEgressBytes != b.InterNodeEgressBytes {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v",
			a.IterationTime, a.InterNodeEgressBytes, b.IterationTime, b.InterNodeEgressBytes)
	}
}

func TestInvalidModelRejected(t *testing.T) {
	if _, err := Run(Config{Model: config.MoEBERT(16), Spec: topology.DefaultSpec(4)}); err == nil {
		t.Fatal("16 experts on 32 GPUs accepted")
	}
}

// The Figure 3 shape: across the Table 1 configs, the A2A share of
// iteration time lands in the paper's reported 35-70% band.
func TestFig3ShareBand(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation sweep; skipped under -short")
	}
	for _, sc := range config.Table1Scenarios() {
		spec := topology.DefaultSpec(sc.NumGPUs / 8)
		model := sc.Model
		r := run(t, Config{Model: model, Spec: spec, Assignment: func(block int) gate.Assignment {
			return gate.Zipf(sc.NumGPUs, model.Blocks[block].NumExperts,
				int(model.TokensPerWorker()), 0.4, int64(block))
		}})
		share := r.CommBlockedTime / r.IterationTime
		if share < 0.25 || share > 0.88 {
			t.Errorf("%s/%d: A2A share %.1f%% outside the plausible band",
				model.Name, sc.NumGPUs, share*100)
		}
		t.Logf("%s/%d: iter %.1fms share %.1f%% traffic %.2f GiB",
			model.Name, sc.NumGPUs, r.IterationTime*1e3, share*100,
			metrics.GiB(r.InterNodeEgressBytes))
	}
}

package janus

import (
	"testing"
)

// The quickstart path: both engines run through the public API and
// Janus wins on a Table-1 config.
func TestPublicAPIQuickstart(t *testing.T) {
	model := MoEBERT(16)
	spec := DefaultSpec(2)
	base, err := TrainExpertCentric(BaselineConfig{Model: model, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := TrainJanus(JanusConfig{Model: model, Spec: spec, TopoAware: true, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if !(fast.IterationTime < base.IterationTime) {
		t.Fatalf("janus %.1fms not faster than baseline %.1fms",
			fast.IterationTime*1e3, base.IterationTime*1e3)
	}
}

func TestBlockParadigmsPreview(t *testing.T) {
	cfg := JanusConfig{
		Model:  PRMoETransformerXL(16, 64, 32),
		Spec:   func() Spec { s := DefaultSpec(4); s.GPUsPerNode = 4; return s }(),
		Policy: ConservativePolicy(),
	}
	p := BlockParadigms(cfg)
	if p[2] != DataCentric || p[8] != ExpertCentric {
		t.Fatalf("paradigm preview wrong: %v", p)
	}
}

func TestAssignmentHelpers(t *testing.T) {
	bal := BalancedAssignment(4, 8, 64)
	if bal.ImbalanceFactor() != 1 {
		t.Fatal("balanced assignment imbalanced")
	}
	z := ZipfAssignment(4, 8, 64, 1.2, 1)
	if !(z.ImbalanceFactor() > 1) {
		t.Fatal("zipf assignment balanced")
	}
}

func TestExperimentRegistryAccessible(t *testing.T) {
	if len(Experiments()) != 18 {
		t.Fatalf("experiments = %d, want 18", len(Experiments()))
	}
	if _, ok, _ := RunExperiment("does-not-exist"); ok {
		t.Fatal("unknown experiment found")
	}
	res, ok, err := RunExperiment("goodput")
	if !ok || err != nil {
		t.Fatalf("goodput: ok=%v err=%v", ok, err)
	}
	if len(res.Render()) == 0 {
		t.Fatal("empty render")
	}
}

func TestLiveClusterThroughAPI(t *testing.T) {
	cl, err := StartLiveCluster(LiveConfig{
		Machines: 2, WorkersPerNode: 2, NumExperts: 8, TopK: 2,
		Hidden: 8, TokensPerWorker: 16, Seed: 3, Credits: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Train(LiveTrainOptions{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalOutputs) != 4 {
		t.Fatalf("outputs = %d", len(res.FinalOutputs))
	}
}

package janus

import (
	"runtime"
	"strconv"
	"testing"
)

// goldenSeed fixes the Zipf routing of TestSimulatedNumbersGolden.
const goldenSeed = 7

// goldenRuns are the simulated numbers of TestSimulatedNumbersGolden as
// hex floats: iteration time, communication-blocked time and inter-node
// egress bytes, for each model under each engine.
var goldenRuns = map[string][3]string{
	"janus.MoE-BERT":                  {"0x1.870062f207dc8p+00", "0x1.de5497fbdb9eap-05", "0x1.ed0800000004ep+32"},
	"expertcentric.MoE-BERT":          {"0x1.6f0ee905bbff2p+01", "0x1.8c0e47de01c53p+00", "0x1.2798c5fffffd2p+35"},
	"janus.MoE-GPT":                   {"0x1.2ce19aba4c9f8p-01", "0x1.13148p-54", "0x1.6c38000000051p+31"},
	"expertcentric.MoE-GPT":           {"0x1.e0a31648ef49ep-01", "0x1.8c56d3bf0e4bap-02", "0x1.4578a3fffffdep+33"},
	"janus.MoE-TransformerXL":         {"0x1.d6345854be89ap-02", "0x1.04841f1d99d6bp-05", "0x1.25d0000000025p+31"},
	"expertcentric.MoE-TransformerXL": {"0x1.d7f1211680784p+00", "0x1.8d05a774a4f35p+00", "0x1.2041a7ffffff7p+35"},
}

// TestSimulatedNumbersGolden pins the simulator's results bit for bit.
// The three 32-expert models of Table 1 run on DefaultSpec(4), once
// under Janus (TopoAware + Prefetch) and once under the expert-centric
// baseline, with one fixed Zipf routing per MoE block. A change that
// only makes the simulator faster must leave every value unchanged; the
// values are hex floats, so a one-ulp drift fails.
func TestSimulatedNumbersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("six simulated iterations on 32 GPUs")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are amd64's: gate.Zipf and the engines' costs still fuse multiply-adds on %s (ROADMAP item 19)", runtime.GOARCH)
	}
	spec := DefaultSpec(4)
	for mi, model := range []Model{MoEBERT(32), MoEGPT(32), MoETransformerXL(32)} {
		byBlock := map[int]Assignment{}
		for _, bi := range model.MoEBlockIndices() {
			byBlock[bi] = ZipfAssignment(spec.TotalGPUs(), model.Blocks[bi].NumExperts,
				int(model.TokensPerWorker()), 0.3, goldenSeed*1000+int64(mi)*100+int64(bi)+1)
		}
		assign := func(block int) Assignment { return byBlock[block] }
		janus, err := TrainJanus(JanusConfig{Model: model, Spec: spec, Assignment: assign,
			TopoAware: true, Prefetch: true, SkipMemoryCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		base, err := TrainExpertCentric(BaselineConfig{Model: model, Spec: spec, Assignment: assign,
			SkipMemoryCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			engine string
			r      Report
		}{{"janus", janus}, {"expertcentric", base}} {
			key := run.engine + "." + model.Name
			got := [3]string{hexFloat(run.r.IterationTime), hexFloat(run.r.CommBlockedTime), hexFloat(run.r.InterNodeEgressBytes)}
			if want := goldenRuns[key]; got != want {
				t.Errorf("%s: (iteration, blocked, inter-node) = %v, want %v", key, got, want)
			}
		}
	}
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

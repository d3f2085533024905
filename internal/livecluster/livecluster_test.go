package livecluster

import (
	"testing"

	"janus/internal/moe"
	"janus/internal/tensor"
)

func defaultCfg() Config {
	return Config{
		Machines: 2, WorkersPerNode: 2,
		NumExperts: 8, TopK: 2, Hidden: 16,
		TokensPerWorker: 12, Seed: 42, Credits: 4,
	}
}

func TestValidate(t *testing.T) {
	if err := defaultCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	// Uneven splits are legal now (joins and migrations make per-machine
	// counts uneven anyway); only an empty or machine-starved expert set
	// is rejected.
	ok := defaultCfg()
	ok.NumExperts = 7
	if err := ok.Validate(); err != nil {
		t.Fatalf("uneven expert split rejected: %v", err)
	}
	bad := defaultCfg()
	bad.NumExperts = 0
	if bad.Validate() == nil {
		t.Fatal("zero experts accepted")
	}
	bad = defaultCfg()
	bad.Machines = 9
	bad.NumExperts = 8
	if bad.Validate() == nil {
		t.Fatal("fewer experts than machines accepted")
	}
	bad = defaultCfg()
	bad.InitialOwners = []int{0}
	if bad.Validate() == nil {
		t.Fatal("short InitialOwners accepted")
	}
	bad = defaultCfg()
	bad.InitialOwners = []int{0, 0, 0, 0, 1, 1, 1, 7}
	if bad.Validate() == nil {
		t.Fatal("out-of-range initial owner accepted")
	}
	bad = defaultCfg()
	bad.TopK = 99
	if bad.Validate() == nil {
		t.Fatal("topK out of range accepted")
	}
	bad = defaultCfg()
	bad.Machines = 0
	if bad.Validate() == nil {
		t.Fatal("zero machines accepted")
	}
	bad = defaultCfg()
	bad.Hidden = 0
	if bad.Validate() == nil {
		t.Fatal("zero hidden accepted")
	}
}

// The headline live test: the first data-centric training step over
// real TCP computes on untouched weights, so its outputs equal the
// in-process expert-centric reference bit for bit.
func TestLiveEquivalence(t *testing.T) {
	cl, err := Start(defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res := trainStep(t, cl)
	ref := cl.RunExpertCentricReference()
	if len(res.FinalOutputs) != len(ref) {
		t.Fatalf("output counts differ: %d vs %d", len(res.FinalOutputs), len(ref))
	}
	for w := range ref {
		if res.FinalOutputs[w] == nil {
			t.Fatalf("worker %d produced no output", w)
		}
		if !tensor.Equal(res.FinalOutputs[w], ref[w]) {
			t.Fatalf("worker %d output differs: max diff %v", w,
				tensor.MaxAbsDiff(res.FinalOutputs[w], ref[w]))
		}
	}
}

// Hierarchical fetch: each machine pulls each external expert at most
// once per step, no matter how many local workers need it.
func TestLiveSingleFetchPerMachine(t *testing.T) {
	cfg := defaultCfg()
	cfg.WorkersPerNode = 4 // more workers sharing the cache
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	trainStep(t, cl)
	// At most one pull per (machine, routed expert it does not own).
	want := int64(0)
	for m, needed := range cl.needs {
		for _, e := range needed {
			if cl.currentOwner(e) != m {
				want++
			}
		}
	}
	pulls := cl.pullsServed()
	if pulls > want {
		t.Fatalf("pulls served = %d, want <= %d (single flight per machine)", pulls, want)
	}
	if pulls == 0 {
		t.Fatal("no pulls at all")
	}
}

// The live traffic comparison: a data-centric training step (expert
// pulls plus same-sized gradient pushes) moves fewer bytes than an
// expert-centric training step's token exchange whenever R > 1.
func TestLiveTrafficReduction(t *testing.T) {
	cfg := defaultCfg()
	cfg.TokensPerWorker = 256 // R = T/(4nHE) = 256*2/(4*2*16*2) = 2
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res := trainStep(t, cl)
	tokenBytes := cl.TokenExchangeBytes()
	if res.CrossMachineBytes >= tokenBytes {
		t.Fatalf("expert fetch moved %d bytes, token exchange %d — no reduction",
			res.CrossMachineBytes, tokenBytes)
	}
	t.Logf("live traffic per training step: data-centric %d bytes vs expert-centric %d bytes (%.2fx reduction)",
		res.CrossMachineBytes, tokenBytes, float64(tokenBytes)/float64(res.CrossMachineBytes))
}

// Each machine pushes exactly one pre-reduced gradient per external
// expert it routes to: an owner accepts one push per (other machine,
// owned expert) pair where that machine routes tokens to the expert.
func TestLiveGradientPreReduce(t *testing.T) {
	cl, err := Start(defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	trainStep(t, cl)
	want := make([]int64, cl.cfg.Machines)
	for m, needed := range cl.needs {
		for _, e := range needed {
			if owner := cl.currentOwner(e); owner != m {
				want[owner]++
			}
		}
	}
	for m, g := range cl.GradsAccepted() {
		if g != want[m] {
			t.Fatalf("machine %d accepted %d grads, want %d", m, g, want[m])
		}
	}
}

func TestExpertCodecRoundTrip(t *testing.T) {
	e := moe.NewExpert(8, 99)
	buf := encodeExpert(e)
	got, err := decodeExpert(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(e.W1, got.W1) || !tensor.Equal(e.W2, got.W2) {
		t.Fatal("codec round trip mismatch")
	}
}

func TestExpertCodecRejectsGarbage(t *testing.T) {
	if _, err := decodeExpert(nil); err == nil {
		t.Fatal("nil payload accepted")
	}
	if _, err := decodeExpert([]byte{1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("bad shape accepted")
	}
	e := moe.NewExpert(4, 1)
	buf := encodeExpert(e)
	if _, err := decodeExpert(buf[:len(buf)-4]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestLiveDeterministicOutputs(t *testing.T) {
	run := func() []*tensor.Matrix {
		_, res, out := runTrain(t, defaultCfg, TrainOptions{Steps: 2})
		if res.Steps != 2 {
			t.Fatalf("ran %d steps, want 2", res.Steps)
		}
		return out
	}
	a, b := run(), run()
	for w := range a {
		if !tensor.Equal(a[w], b[w]) {
			t.Fatal("live runs nondeterministic")
		}
	}
}

func TestSingleMachineNoNetwork(t *testing.T) {
	cfg := defaultCfg()
	cfg.Machines = 1
	cfg.WorkersPerNode = 4
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res := trainStep(t, cl)
	if pulls := cl.pullsServed(); res.CrossMachineBytes != 0 || pulls != 0 {
		t.Fatalf("single machine used the network: %d bytes, %d pulls",
			res.CrossMachineBytes, pulls)
	}
	ref := cl.RunExpertCentricReference()
	for w := range ref {
		if !tensor.Equal(res.FinalOutputs[w], ref[w]) {
			t.Fatal("single-machine outputs differ from reference")
		}
	}
}

package fabric

import (
	"fmt"
	"math/rand"
	"testing"
)

// randClusterProgram draws cluster-shaped workloads for the
// hierarchical mode: per-machine up/down NIC links (the edge domains)
// plus a small trunk core, with flow waves mixing trunk-crossing
// cross-machine transfers, trunkless cross-domain flows (which union
// their NIC domains), and single-link local flows. Capacities and
// sizes come from the same small grids as randProgram so distinct
// links hit bitwise-equal shares — the tie cases the scope-boundary
// escape hatches exist for.
func randClusterProgram(rng *rand.Rand) progSpec {
	nMach := 3 + rng.Intn(10)
	nTrunk := 1 + rng.Intn(3)
	capGrid := []float64{1e9, 2e9, 4e9, 1e9}
	latGrid := []float64{0, 0, 1e-6}
	var p progSpec
	// links: up[m] = m, down[m] = nMach+m, trunk[t] = 2*nMach+t
	for i := 0; i < 2*nMach; i++ {
		p.caps = append(p.caps, capGrid[rng.Intn(len(capGrid))])
		p.lats = append(p.lats, latGrid[rng.Intn(len(latGrid))])
		p.trunk = append(p.trunk, false)
	}
	for t := 0; t < nTrunk; t++ {
		p.caps = append(p.caps, 4e9)
		p.lats = append(p.lats, latGrid[rng.Intn(len(latGrid))])
		p.trunk = append(p.trunk, true)
	}
	sizeGrid := []float64{1e6, 2e6, 4e6, 1e6, 8e6}
	effGrid := []float64{1, 1, 0.5, 0.85}
	timeGrid := []float64{0, 0, 0.001, 0.002, 0.005, 0.01}
	nBatches := 2 + rng.Intn(5)
	for b := 0; b < nBatches; b++ {
		p.adTimes = append(p.adTimes, timeGrid[rng.Intn(len(timeGrid))])
		p.single = append(p.single, rng.Intn(3) == 0)
		nFlows := 2 + rng.Intn(10)
		var fl []progFlow
		for i := 0; i < nFlows; i++ {
			src := rng.Intn(nMach)
			dst := rng.Intn(nMach)
			var path []int
			switch rng.Intn(6) {
			case 0: // local: source NIC only
				path = []int{src}
			case 1: // trunkless cross-domain: unions the two NIC domains
				if dst == src {
					dst = (dst + 1) % nMach
				}
				path = []int{src, nMach + dst}
			default: // the common shape: up → trunk → down
				path = []int{src, 2*nMach + (src+dst)%nTrunk, nMach + dst}
			}
			size := sizeGrid[rng.Intn(len(sizeGrid))]
			if rng.Intn(12) == 0 {
				size = 0 // pure-latency flow
			}
			fl = append(fl, progFlow{size: size, eff: effGrid[rng.Intn(len(effGrid))], path: path})
		}
		p.batches = append(p.batches, fl)
	}
	for i := 0; i < 6; i++ {
		p.probes = append(p.probes, timeGrid[rng.Intn(len(timeGrid))]+float64(i)*0.0013)
	}
	return p
}

// requireBitIdentical asserts two runs agree float-for-float on every
// observable: completion times, completion callback order, per-link
// carried bytes and busy time, and mid-run rate/remaining probes.
func requireBitIdentical(t *testing.T, tag string, want, got progResult) {
	t.Helper()
	if i, ok := bitEqual(want.finishAt, got.finishAt); !ok {
		t.Fatalf("%s: completion time diverges at flow %d: %v vs %v", tag, i, want.finishAt[i], got.finishAt[i])
	}
	if i, ok := bitEqual(want.carried, got.carried); !ok {
		t.Fatalf("%s: carried bytes diverge at link %d: %v vs %v", tag, i, want.carried[i], got.carried[i])
	}
	if i, ok := bitEqual(want.busy, got.busy); !ok {
		t.Fatalf("%s: busy seconds diverge at link %d: %v vs %v", tag, i, want.busy[i], got.busy[i])
	}
	if i, ok := bitEqual(want.probe, got.probe); !ok {
		t.Fatalf("%s: mid-run probe diverges at sample %d: %v vs %v", tag, i, want.probe[i], got.probe[i])
	}
	if len(want.order) != len(got.order) {
		t.Fatalf("%s: completion count diverges: %d vs %d", tag, len(want.order), len(got.order))
	}
	for i := range want.order {
		if want.order[i] != got.order[i] {
			t.Fatalf("%s: completion order diverges at %d: %q vs %q", tag, i, want.order[i], got.order[i])
		}
	}
}

// TestDifferentialHierarchical pins ModeHierarchical bitwise against
// the incremental allocator (and, on the same programs, the oracle)
// across seeds × topologies × churn schedules. Even seeds run the
// unstructured randProgram topologies with random trunk markings —
// adversarial partitions where "trunks" cut arbitrary link subsets —
// and odd seeds run cluster-shaped programs with real edge domains and
// a shared core. This is the contract that makes the hierarchical mode
// a pure perf change: any float anywhere differing by one ulp fails.
func TestDifferentialHierarchical(t *testing.T) {
	cases := 300
	if testing.Short() {
		cases = 60
	}
	for seed := 0; seed < cases; seed++ {
		rng := rand.New(rand.NewSource(int64(40000 + seed)))
		var p progSpec
		if seed%2 == 0 {
			p = randProgram(rng)
			p.trunk = make([]bool, len(p.caps))
			for i := range p.trunk {
				p.trunk[i] = rng.Intn(4) == 0
			}
		} else {
			p = randClusterProgram(rng)
		}
		inc := runProgram(p, ModeIncremental)
		hier := runProgram(p, ModeHierarchical)
		requireBitIdentical(t, fmt.Sprintf("seed %d: hier vs incremental", seed), hier, inc)
		oracle := runProgram(p, ModeOracle)
		requireBitIdentical(t, fmt.Sprintf("seed %d: hier vs oracle", seed), hier, oracle)
	}
}

// TestHierScopingHoldsAtScale is the count behind the scale benches'
// wall-clock cliff: the hierarchical allocator is fast at 1024 machines
// only while settles stay scoped to the trigger domains. A change that
// loses the scoping still computes the same bits, so no differential
// catches it — it shows as full-component fallbacks and scope restarts.
// The workload is BenchmarkA2AScale1024Hier's; the counts are exactly
// repeatable (0.70 restarts per settle and 1.07 % fallbacks when this
// gate was written), a settle being one distinct completion instant or
// one admission wave.
func TestHierScopingHoldsAtScale(t *testing.T) {
	if raceEnabled {
		t.Skip("1024-machine sparse all-to-all: ~1.5 s plain, minutes under the race runtime")
	}
	settles := 2 // one admission wave per round
	last := -1.0
	topo := runA2AScale(1024, ModeHierarchical, func(f *Flow) {
		if f.FinishedAt() != last {
			last = f.FinishedAt()
			settles++
		}
	})
	restarts, fallbacks := topo.net.HierStats()
	t.Logf("%d settles, %d restarts, %d fallbacks", settles, restarts, fallbacks)
	if float64(fallbacks) > 0.05*float64(settles) {
		t.Errorf("%d full-component fallbacks in %d settles, want at most 5 %%", fallbacks, settles)
	}
	if float64(restarts) > 1.5*float64(settles) {
		t.Errorf("%d scope restarts in %d settles, want at most 1.5 per settle", restarts, settles)
	}
}

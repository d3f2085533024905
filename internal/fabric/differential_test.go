package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"janus/internal/sim"
)

// progSpec is a reproducible random workload: a topology plus a
// scheduled program of flow admissions (some batched, some single).
type progSpec struct {
	caps []float64 // link capacities
	lats []float64 // link latencies
	// batches[t] admitted at time adTimes[t]
	adTimes []float64
	batches [][]progFlow
	single  []bool // admit batch i via StartFlowEff loop instead of StartFlows
	probes  []float64
}

type progFlow struct {
	size float64
	eff  float64
	path []int
}

// randProgram draws topologies/programs engineered to exercise ties:
// capacities and sizes come from small grids so distinct links hit
// bitwise-equal fair shares and distinct flows finish at bitwise-equal
// instants, and several admissions land at the same virtual time.
func randProgram(rng *rand.Rand) progSpec {
	nLinks := 3 + rng.Intn(10)
	capGrid := []float64{1e9, 2e9, 4e9, 1e9, 2e9}
	latGrid := []float64{0, 0, 1e-6, 5e-6}
	var p progSpec
	for i := 0; i < nLinks; i++ {
		p.caps = append(p.caps, capGrid[rng.Intn(len(capGrid))])
		p.lats = append(p.lats, latGrid[rng.Intn(len(latGrid))])
	}
	sizeGrid := []float64{1e6, 2e6, 4e6, 1e6, 8e6}
	effGrid := []float64{1, 1, 0.5, 0.85}
	timeGrid := []float64{0, 0, 0.001, 0.002, 0.005}
	nBatches := 1 + rng.Intn(4)
	for b := 0; b < nBatches; b++ {
		p.adTimes = append(p.adTimes, timeGrid[rng.Intn(len(timeGrid))])
		p.single = append(p.single, rng.Intn(3) == 0)
		nFlows := 1 + rng.Intn(8)
		var fl []progFlow
		for i := 0; i < nFlows; i++ {
			pathLen := 1 + rng.Intn(3)
			var path []int
			used := map[int]bool{}
			for len(path) < pathLen {
				li := rng.Intn(nLinks)
				if used[li] {
					continue
				}
				used[li] = true
				path = append(path, li)
			}
			size := sizeGrid[rng.Intn(len(sizeGrid))]
			if rng.Intn(10) == 0 {
				size = 0 // pure-latency flow
			}
			fl = append(fl, progFlow{size: size, eff: effGrid[rng.Intn(len(effGrid))], path: path})
		}
		p.batches = append(p.batches, fl)
	}
	for i := 0; i < 4; i++ {
		p.probes = append(p.probes, timeGrid[rng.Intn(len(timeGrid))]+float64(i)*0.0017)
	}
	return p
}

// randClusterProgram draws cluster-shaped workloads: per-machine up/down
// NIC links plus a small shared core, with flow waves mixing
// core-crossing cross-machine transfers, coreless cross-machine flows
// and single-link local flows. Capacities and sizes come from the same
// small grids as randProgram, so distinct links hit bitwise-equal
// shares and the (share, index) tie-break decides every bottleneck.
func randClusterProgram(rng *rand.Rand) progSpec {
	nMach := 3 + rng.Intn(10)
	nCore := 1 + rng.Intn(3)
	capGrid := []float64{1e9, 2e9, 4e9, 1e9}
	latGrid := []float64{0, 0, 1e-6}
	var p progSpec
	// links: up[m] = m, down[m] = nMach+m, core[c] = 2*nMach+c
	for i := 0; i < 2*nMach; i++ {
		p.caps = append(p.caps, capGrid[rng.Intn(len(capGrid))])
		p.lats = append(p.lats, latGrid[rng.Intn(len(latGrid))])
	}
	for c := 0; c < nCore; c++ {
		p.caps = append(p.caps, 4e9)
		p.lats = append(p.lats, latGrid[rng.Intn(len(latGrid))])
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
			case 1: // coreless cross-machine: up → down
				if dst == src {
					dst = (dst + 1) % nMach
				}
				path = []int{src, nMach + dst}
			default: // the common shape: up → core → down
				path = []int{src, 2*nMach + (src+dst)%nCore, nMach + dst}
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

// progResult is everything observable about one run, captured so two
// runs can be compared float-for-float.
type progResult struct {
	finishAt []float64 // per flow, admission order
	carried  []float64 // per link, at end
	busy     []float64 // per link, at end
	probe    []float64 // flattened mid-run samples of Rate/Remaining/CarriedBytes
	order    []string  // completion callback order
}

// drainChecked runs net's engine dry. check, if given, runs after every
// event that leaves no settle pending — every state whose committed
// rates are a finished max-min allocation.
func drainChecked(net *Network, check ...func(*Network)) {
	for net.eng.Step() {
		if len(check) > 0 && !net.settleEv.Pending() {
			check[0](net)
		}
	}
}

// runProgram runs p to completion on a fresh network, settling through
// the naive reference fill when oracle is set.
func runProgram(p progSpec, oracle bool, check ...func(*Network)) progResult {
	eng := sim.NewEngine()
	net := NewNetwork(eng)
	if oracle {
		net.UseOracle()
	}
	var links []*Link
	for i := range p.caps {
		links = append(links, net.NewLink("l", "test", p.caps[i], p.lats[i]))
	}
	var res progResult
	var flows []*Flow
	for b := range p.batches {
		b := b
		eng.At(p.adTimes[b], func() {
			var specs []FlowSpec
			for i, pf := range p.batches[b] {
				var path []*Link
				for _, li := range pf.path {
					path = append(path, links[li])
				}
				name := string(rune('a'+b)) + string(rune('0'+i))
				specs = append(specs, FlowSpec{Name: name, Size: pf.size, Eff: pf.eff, Path: path,
					OnComplete: func(f *Flow) { res.order = append(res.order, f.Name()) }})
			}
			if p.single[b] {
				for _, sp := range specs {
					flows = append(flows, net.StartFlowEff(sp.Name, sp.Size, sp.Eff, sp.Path, sp.OnComplete))
				}
			} else {
				flows = append(flows, net.StartFlows(specs)...)
			}
		})
	}
	for _, pt := range p.probes {
		eng.At(pt, func() {
			for _, f := range flows {
				res.probe = append(res.probe, f.Rate(), f.Remaining())
			}
			for _, l := range links {
				res.probe = append(res.probe, l.CarriedBytes(), l.BusySeconds())
			}
		})
	}
	drainChecked(net, check...)
	for _, f := range flows {
		if !f.Done() {
			panic("flow not done at drain")
		}
		res.finishAt = append(res.finishAt, f.FinishedAt())
	}
	for _, l := range links {
		res.carried = append(res.carried, l.CarriedBytes())
		res.busy = append(res.busy, l.BusySeconds())
	}
	return res
}

func bitEqual(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
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

// refillMismatch re-fills every active flow from scratch with the given
// exact fill and returns the first flow whose fresh rate differs
// bitwise from its committed one (nil if none). Component restriction
// is exact (alloc.go), so at a settled state a from-scratch fill must
// reproduce every committed rate; checking it after every settle shows
// that a run forced through this fill would take the identical
// trajectory — same rates at every instant, hence the same completion
// instants and link bytes. The re-fill logs into scratch logs, which it
// returns, and restores the settle's logs and log indices, so the next
// settle can still resume from them.
func refillMismatch(net *Network, fill func(scopeF []*Flow, scopeL []*Link)) (bad *Flow, log []freeze, pre []float64) {
	savedLog, savedPre := net.flog, net.fpre
	net.flog, net.fpre = nil, nil
	defer func() {
		net.flog, net.fpre = savedLog, savedPre
		for i, e := range savedLog {
			e.f.logIdx = i
		}
	}()
	scopeF, scopeL, _ := net.scopeComponent(net.links)
	fill(scopeF, scopeL)
	for _, f := range scopeF {
		if math.Float64bits(f.newRate) != math.Float64bits(f.rate) {
			bad = f
			break
		}
	}
	net.scopeFlows = scopeF[:0]
	net.scopeLinks = scopeL[:0]
	return bad, net.flog, net.fpre
}

// requireFillsAgree is a runProgram check: both exact fills, run
// directly whatever the size selector would pick, reproduce the
// committed rates bitwise. After a whole-set settle, every logged flow
// must record its own log index, and the fresh scan fill must log the
// same flows in the same rounds and order, with the same pre-freeze
// residuals bit for bit, so a resume that restored a link wrongly, or
// cut a log in the wrong place, fails even where no rate shows it.
func requireFillsAgree(t *testing.T, tag string) func(*Network) {
	return func(net *Network) {
		if net.wholeValid {
			for i, e := range net.flog {
				if e.f.logIdx != i {
					t.Fatalf("%s: flow %q is logged at %d but records log index %d", tag, e.f.name, i, e.f.logIdx)
				}
			}
		}
		f, log, pre := refillMismatch(net, net.fillScan)
		if f != nil {
			t.Fatalf("%s: fillScan re-fill of %q = %v, committed %v", tag, f.name, f.newRate, f.rate)
		}
		if net.wholeValid {
			if !slices.Equal(log, net.flog) {
				t.Fatalf("%s: fillScan re-fill's log differs from the settle's (%d vs %d entries)", tag, len(log), len(net.flog))
			}
			if i, ok := bitEqual(pre, net.fpre); !ok {
				t.Fatalf("%s: fillScan re-fill logs %d pre-freeze residuals, the settle %d; first difference at %d (-1: the lengths)", tag, len(pre), len(net.fpre), i)
			}
		}
		if f, _, _ := refillMismatch(net, net.fillHeap); f != nil {
			t.Fatalf("%s: fillHeap re-fill of %q = %v, committed %v", tag, f.name, f.newRate, f.rate)
		}
	}
}

// TestDifferentialOracleVsIncremental runs seeded random flow programs
// through the component settle and through the naive oracle and
// requires bit-identical completion times, completion order, link
// utilization, and mid-run rate/remaining samples. This is the contract
// that lets the incremental settle replace the naive one without
// perturbing any experiment. The settle's run also re-fills every
// settled state with fillScan and with the heap fill directly, so both
// fills the size selector chooses between are pinned on every seed,
// not only the one it picked.
func TestDifferentialOracleVsIncremental(t *testing.T) {
	cases := 300
	if testing.Short() {
		cases = 60
	}
	for seed := 0; seed < cases; seed++ {
		p := randProgram(rand.New(rand.NewSource(int64(seed))))
		tag := fmt.Sprintf("seed %d", seed)
		oracle := runProgram(p, true)
		inc := runProgram(p, false, requireFillsAgree(t, tag))
		requireBitIdentical(t, tag+": incremental vs oracle", oracle, inc)
	}
}

// TestDifferentialHierarchical holds the same bit-identity contract on
// hierarchical cluster topologies: per-machine NIC links under a small
// shared core (randClusterProgram), where many flows cross the core and
// distinct links tie on their shares, so the (share, index) tie-break
// decides every bottleneck.
func TestDifferentialHierarchical(t *testing.T) {
	cases := 300
	if testing.Short() {
		cases = 60
	}
	for seed := 0; seed < cases; seed++ {
		p := randClusterProgram(rand.New(rand.NewSource(int64(40000 + seed))))
		tag := fmt.Sprintf("cluster seed %d", seed)
		oracle := runProgram(p, true)
		inc := runProgram(p, false, requireFillsAgree(t, tag))
		requireBitIdentical(t, tag+": incremental vs oracle", oracle, inc)
	}
}

// TestWideSettleForcedScanMatches is the differential at the size where
// the selector leaves the scan: two rounds of the 256-machine sparse
// All-to-All fused by 64 trunks, the shape whose settles take the heap
// (TestFillSelector). After every settle a forced fillScan must
// reproduce the committed rates bitwise, so a scan-only run has the
// same completion instants and link bytes as the production path.
func TestWideSettleForcedScanMatches(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("one scan re-fill of 576 links per settle over two 2 048-flow rounds")
	}
	topo := newBenchTopo(256, 64)
	runRounds(topo, 2, func(r int) []FlowSpec { return topo.sparseA2ASpecs(r, 8, 1e6) }, func(net *Network) {
		if f, _, _ := refillMismatch(net, net.fillScan); f != nil {
			t.Fatalf("t=%v: fillScan re-fill of %q = %v, production committed %v", net.eng.Now(), f.name, f.newRate, f.rate)
		}
	})
}

// TestFillSelector pins scanHeapC without a timer: at admission, the
// two fabric probe shapes sit on opposite sides of scanFits — the
// 32-machine dense All-to-All on 8 trunks scans, the 256-machine sparse
// one on 64 trunks takes the heap — so a mis-set constant fails here
// rather than as a slower benchmark.
func TestFillSelector(t *testing.T) {
	cases := []struct {
		name           string
		topo           *benchTopo
		specs          func(*benchTopo) []FlowSpec
		links, pathSum int
		wantScan       bool
	}{
		{"p32 dense", newBenchTopo(32, 8),
			func(b *benchTopo) []FlowSpec { return b.allToAllSpecs(0, 1e6) }, 72, 2976, true},
		{"s256 sparse", newBenchTopo(256, 64),
			func(b *benchTopo) []FlowSpec { return b.sparseA2ASpecs(0, 8, 1e6) }, 576, 6144, false},
	}
	for _, c := range cases {
		flows := c.topo.net.StartFlows(c.specs(c.topo))
		c.topo.eng.RunUntil(c.topo.eng.Now()) // activation and the admission settle
		_, scopeL, pathSum := c.topo.net.scopeComponent(flows[0].path)
		if len(scopeL) != c.links || pathSum != c.pathSum {
			t.Fatalf("%s: scope %d links, Σ path %d; want %d, %d", c.name, len(scopeL), pathSum, c.links, c.pathSum)
		}
		if got := scanFits(len(scopeL), pathSum); got != c.wantScan {
			t.Errorf("%s: scanFits(%d, %d) = %v, want %v", c.name, len(scopeL), pathSum, got, c.wantScan)
		}
	}
}

// TestStartFlowsMatchesSingleAdmission checks that batched admission at
// one instant produces the same steady-state rates and completions as
// the equivalent sequence of StartFlowEff calls at that instant.
func TestStartFlowsMatchesSingleAdmission(t *testing.T) {
	for seed := 0; seed < 50; seed++ {
		p := randProgram(rand.New(rand.NewSource(int64(1000 + seed))))
		for i := range p.single {
			p.single[i] = false
		}
		batched := runProgram(p, false)
		for i := range p.single {
			p.single[i] = true
		}
		single := runProgram(p, false)
		if i, ok := bitEqual(batched.finishAt, single.finishAt); !ok {
			t.Fatalf("seed %d: batched vs single completion diverges at flow %d: %v vs %v",
				seed, i, batched.finishAt[i], single.finishAt[i])
		}
		if i, ok := bitEqual(batched.carried, single.carried); !ok {
			t.Fatalf("seed %d: batched vs single carried diverges at link %d: %v vs %v",
				seed, i, batched.carried[i], single.carried[i])
		}
	}
}

// drainSettles runs topo's engine dry and counts the settles it runs.
func drainSettles(topo *benchTopo) (settles int) {
	for {
		pending := topo.net.settleEv.Pending()
		if !topo.eng.Step() {
			return settles
		}
		if pending && !topo.net.settleEv.Pending() {
			settles++
		}
	}
}

// TestDenseDrainReusesWholeSet pins that the resumed whole-set fill
// fires and is checked. A 32-machine dense All-to-All on 8 trunks is one
// component: its admission settle covers every active flow, and each
// later instant only retires flows, so most settles must resume the
// last fill from its log (scopeResume) instead of walking the component
// and filling it again. The drain must also match the oracle bit for
// bit, so a resume that dropped a link or a flow from its scope, or
// kept a round it should refill, fails here, not only in the random
// differentials.
func TestDenseDrainReusesWholeSet(t *testing.T) {
	drain := func(oracle bool) (settles, resumes int, finish, carried []float64) {
		topo := newBenchTopo(32, 8)
		if oracle {
			topo.net.UseOracle()
		}
		flows := topo.net.StartFlows(topo.allToAllSpecs(0, 1e6))
		settles = drainSettles(topo)
		for _, f := range flows {
			finish = append(finish, f.FinishedAt())
		}
		for _, l := range topo.net.links {
			carried = append(carried, l.CarriedBytes())
		}
		if pre := len(topo.net.fpre); pre != 0 {
			// Each resume cuts the pre-freeze residuals with the log, so
			// they shrink with it as the wave drains.
			t.Errorf("drained network keeps %d pre-freeze residuals, want 0", pre)
		}
		if logged := len(topo.net.flog); logged != 0 && !oracle {
			t.Errorf("drained network keeps %d fill-log entries, want 0", logged)
		}
		return settles, topo.net.resumes, finish, carried
	}
	settles, resumes, finish, carried := drain(false)
	if 10*resumes < 9*settles {
		t.Errorf("%d of %d settles resumed the whole-set fill, want at least 90%%", resumes, settles)
	}
	_, oracleResumes, oracleFinish, oracleCarried := drain(true)
	if oracleResumes != 0 {
		t.Errorf("oracle run resumed %d times", oracleResumes)
	}
	if i, ok := bitEqual(oracleFinish, finish); !ok {
		t.Fatalf("completion time diverges at flow %d: oracle %v, settle %v", i, oracleFinish[i], finish[i])
	}
	if i, ok := bitEqual(oracleCarried, carried); !ok {
		t.Fatalf("carried bytes diverge at link %d: oracle %v, settle %v", i, oracleCarried[i], carried[i])
	}
	t.Logf("%d of %d settles resumed the whole-set fill", resumes, settles)
}

// TestSparseDrainResumes pins the resume on the wide shape: the
// 256-machine sparse All-to-All fused by 64 trunks is one component
// that takes the heap fill (TestFillSelector), and at least 90 % of its
// drain's settles must resume from the fill log. Its rates are checked
// against a fresh fill after every settle by
// TestWideSettleForcedScanMatches.
func TestSparseDrainResumes(t *testing.T) {
	topo := newBenchTopo(256, 64)
	topo.net.StartFlows(topo.sparseA2ASpecs(0, 8, 1e6))
	settles := drainSettles(topo)
	if r := topo.net.resumes; 10*r < 9*settles {
		t.Errorf("%d of %d settles resumed the whole-set fill, want at least 90%%", r, settles)
	}
	t.Logf("%d of %d settles resumed the whole-set fill", topo.net.resumes, settles)
}

// TestResumeRefillsWholeRound retires a flow that froze in the same
// fill round as a flow logged before it. Link m (1 GB/s) is the first
// bottleneck and freezes c, which also crosses l (4 GB/s); l then
// freezes a and b at 1.5 GB/s each, in that log order. When b
// finishes, the settle resumes: it replays c's round and fills a's
// again, since b's retirement changes the share of the round they
// shared. Resuming at b's own log entry instead would replay a at its
// old 1.5 GB/s.
func TestResumeRefillsWholeRound(t *testing.T) {
	run := func(oracle bool) (rates, finish []float64, resumes int) {
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		if oracle {
			net.UseOracle()
		}
		m := net.NewLink("m", "test", 1e9, 0)
		l := net.NewLink("l", "test", 4e9, 0)
		flows := net.StartFlows([]FlowSpec{
			{Name: "c", Size: 1e10, Path: []*Link{m, l}},
			{Name: "a", Size: 1e10, Path: []*Link{l}},
			{Name: "b", Size: 1.5e9, Path: []*Link{l}},
		})
		eng.RunUntil(1.5) // b finishes at t=1
		for _, f := range flows {
			rates = append(rates, f.Rate())
		}
		eng.Run()
		for _, f := range flows {
			finish = append(finish, f.FinishedAt())
		}
		return rates, finish, net.resumes
	}
	rates, finish, resumes := run(false)
	if want := []float64{1e9, 3e9, 0}; !slices.Equal(rates, want) {
		t.Fatalf("rates after b retires = %v, want %v", rates, want)
	}
	if resumes == 0 {
		t.Fatal("b's retirement did not resume the fill")
	}
	_, oracleFinish, _ := run(true)
	if i, ok := bitEqual(oracleFinish, finish); !ok {
		t.Fatalf("completion time diverges at flow %d: oracle %v, settle %v", i, oracleFinish[i], finish[i])
	}
}

// TestResumeRecountsUnfrozen runs three settles where a logged unfrozen
// count goes stale. Links a (1 GB/s), b (2 GB/s), l (10 GB/s) and d
// (100 GB/s) carry x on a, y on b and l, g and w on l, and z on d. The
// admission fill freezes x on a, then y on b, which logs l's first
// entry while l has three unfrozen flows, then g and w on l at 4 GB/s,
// then z. When g finishes (t=1), the resume starts at g's round, after
// y's entry, and gives w 8 GB/s. When x finishes (t=2), it starts at
// round 0, where l's first entry is y's. A count logged there would
// still hold g, freeze w at 4 GB/s and leave l one unfrozen flow that
// no round can freeze; counted from the scope, l has two and w keeps
// 8 GB/s.
func TestResumeRecountsUnfrozen(t *testing.T) {
	run := func(oracle bool) (rates [][]float64, finish []float64, resumes int) {
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		if oracle {
			net.UseOracle()
		}
		a := net.NewLink("a", "test", 1e9, 0)
		b := net.NewLink("b", "test", 2e9, 0)
		l := net.NewLink("l", "test", 10e9, 0)
		d := net.NewLink("d", "test", 100e9, 0)
		flows := net.StartFlows([]FlowSpec{
			{Name: "x", Size: 2e9, Path: []*Link{a}},
			{Name: "y", Size: 1e12, Path: []*Link{b, l}},
			{Name: "g", Size: 4e9, Path: []*Link{l}},
			{Name: "w", Size: 1e12, Path: []*Link{l}},
			{Name: "z", Size: 1e13, Path: []*Link{d}},
		})
		for _, at := range []float64{0.5, 1.5, 2.5} {
			eng.RunUntil(at)
			var r []float64
			for _, f := range flows {
				r = append(r, f.Rate())
			}
			rates = append(rates, r)
		}
		eng.Run()
		for _, f := range flows {
			finish = append(finish, f.FinishedAt())
		}
		return rates, finish, net.resumes
	}
	rates, finish, resumes := run(false)
	want := [][]float64{
		{1e9, 2e9, 4e9, 4e9, 100e9},
		{1e9, 2e9, 0, 8e9, 100e9},
		{0, 2e9, 0, 8e9, 100e9},
	}
	for i := range want {
		if !slices.Equal(rates[i], want[i]) {
			t.Fatalf("rates after settle %d = %v, want %v", i+1, rates[i], want[i])
		}
	}
	if resumes < 2 {
		t.Fatalf("%d settles resumed the fill, want the retirements of g and x to", resumes)
	}
	_, oracleFinish, _ := run(true)
	if i, ok := bitEqual(oracleFinish, finish); !ok {
		t.Fatalf("completion time diverges at flow %d: oracle %v, settle %v", i, oracleFinish[i], finish[i])
	}
}

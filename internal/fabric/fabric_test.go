package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"janus/internal/sim"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowFullRate(t *testing.T) {
	eng := sim.NewEngine()
	net := NewNetwork(eng)
	l := net.NewLink("l", "test", 100, 0)
	var doneAt sim.Time
	net.StartFlow("f", 1000, []*Link{l}, func(f *Flow) { doneAt = eng.Now() })
	eng.Run()
	if !almostEqual(doneAt, 10, 1e-9) {
		t.Fatalf("completion at %v, want 10", doneAt)
	}
	if !almostEqual(l.CarriedBytes(), 1000, 1e-6) {
		t.Fatalf("carried %v, want 1000", l.CarriedBytes())
	}
}

func TestLatencyAddsToCompletion(t *testing.T) {
	eng := sim.NewEngine()
	net := NewNetwork(eng)
	a := net.NewLink("a", "test", 100, 0.5)
	b := net.NewLink("b", "test", 100, 0.25)
	var doneAt sim.Time
	net.StartFlow("f", 100, []*Link{a, b}, func(f *Flow) { doneAt = eng.Now() })
	eng.Run()
	if !almostEqual(doneAt, 0.75+1, 1e-9) {
		t.Fatalf("completion at %v, want 1.75", doneAt)
	}
}

func TestZeroSizeFlowIsLatencyOnly(t *testing.T) {
	eng := sim.NewEngine()
	net := NewNetwork(eng)
	a := net.NewLink("a", "test", 100, 0.5)
	var doneAt sim.Time
	net.StartFlow("ctl", 0, []*Link{a}, func(f *Flow) { doneAt = eng.Now() })
	eng.Run()
	if !almostEqual(doneAt, 0.5, 1e-12) {
		t.Fatalf("completion at %v, want 0.5", doneAt)
	}
	if a.CarriedBytes() != 0 {
		t.Fatalf("zero-size flow carried bytes")
	}
}

func TestEmptyPathFlowCompletesImmediately(t *testing.T) {
	eng := sim.NewEngine()
	net := NewNetwork(eng)
	done := false
	net.StartFlow("local", 12345, nil, func(f *Flow) { done = true })
	eng.Run()
	if !done || eng.Now() != 0 {
		t.Fatalf("empty-path flow: done=%v now=%v", done, eng.Now())
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	eng := sim.NewEngine()
	net := NewNetwork(eng)
	l := net.NewLink("l", "test", 100, 0)
	var t1, t2 sim.Time
	net.StartFlow("f1", 500, []*Link{l}, func(f *Flow) { t1 = eng.Now() })
	net.StartFlow("f2", 1000, []*Link{l}, func(f *Flow) { t2 = eng.Now() })
	eng.Run()
	// Both run at 50 B/s until f1 finishes at t=10; f2 then has 500 left
	// at 100 B/s, finishing at t=15.
	if !almostEqual(t1, 10, 1e-9) || !almostEqual(t2, 15, 1e-9) {
		t.Fatalf("t1=%v t2=%v, want 10, 15", t1, t2)
	}
}

func TestMaxMinClassicThreeFlows(t *testing.T) {
	// Classic max-min example: links A(cap 10) and B(cap 4).
	// f1 crosses A only, f2 crosses A and B, f3 crosses B only.
	// Fair shares: B is bottleneck (4/2=2) -> f2=f3=2; then f1 gets 10-2=8.
	eng := sim.NewEngine()
	net := NewNetwork(eng)
	a := net.NewLink("A", "test", 10, 0)
	b := net.NewLink("B", "test", 4, 0)
	f1 := net.StartFlow("f1", 1e6, []*Link{a}, nil)
	f2 := net.StartFlow("f2", 1e6, []*Link{a, b}, nil)
	f3 := net.StartFlow("f3", 1e6, []*Link{b}, nil)
	eng.RunUntil(1) // let rates settle; nothing completes for a long time
	if !almostEqual(f1.Rate(), 8, 1e-9) || !almostEqual(f2.Rate(), 2, 1e-9) || !almostEqual(f3.Rate(), 2, 1e-9) {
		t.Fatalf("rates = %v %v %v, want 8 2 2", f1.Rate(), f2.Rate(), f3.Rate())
	}
}

func TestRateRecomputedOnArrival(t *testing.T) {
	eng := sim.NewEngine()
	net := NewNetwork(eng)
	l := net.NewLink("l", "test", 100, 0)
	var done1 sim.Time
	net.StartFlow("f1", 1000, []*Link{l}, func(f *Flow) { done1 = eng.Now() })
	eng.At(5, func() {
		net.StartFlow("f2", 250, []*Link{l}, nil)
	})
	eng.Run()
	// f1 runs alone 0-5 (500 bytes), then shares 50/50. f2 finishes 250
	// bytes at t=10; f1's last 250 bytes: 5s at 50 B/s -> 250 done at 10,
	// then full rate... exactly: at t=10 both have delivered 250 since t=5,
	// so f1 has 250 left, finishing at 12.5.
	if !almostEqual(done1, 12.5, 1e-9) {
		t.Fatalf("f1 done at %v, want 12.5", done1)
	}
}

// The Figure-7 microcosm: three pullers fetching from the same source
// serialize on its egress (same-order schedule), while a staggered
// schedule where each puller targets a distinct source completes ~3x
// faster.
func TestEgressContentionVsStaggered(t *testing.T) {
	mk := func() (*sim.Engine, *Network, []*Link) {
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		egress := make([]*Link, 4)
		for i := range egress {
			egress[i] = net.NewLink(fmt.Sprintf("egress%d", i), "nvlink", 100, 0)
		}
		return eng, net, egress
	}

	// Same order: workers 1,2,3 all pull from source 0 at once.
	eng, net, eg := mk()
	var last sim.Time
	for i := 0; i < 3; i++ {
		net.StartFlow("pull", 100, []*Link{eg[0]}, func(f *Flow) { last = eng.Now() })
	}
	eng.Run()
	sameOrder := last

	// Staggered: each worker pulls from a distinct source.
	eng2, net2, eg2 := mk()
	var last2 sim.Time
	for i := 1; i <= 3; i++ {
		net2.StartFlow("pull", 100, []*Link{eg2[i]}, func(f *Flow) { last2 = eng2.Now() })
	}
	eng2.Run()
	staggered := last2

	if !almostEqual(sameOrder, 3, 1e-9) || !almostEqual(staggered, 1, 1e-9) {
		t.Fatalf("sameOrder=%v staggered=%v, want 3 and 1", sameOrder, staggered)
	}
}

func TestBusySecondsSaturatedLink(t *testing.T) {
	eng := sim.NewEngine()
	net := NewNetwork(eng)
	l := net.NewLink("l", "test", 100, 0)
	net.StartFlow("f1", 500, []*Link{l}, nil)
	net.StartFlow("f2", 500, []*Link{l}, nil)
	eng.Run()
	if !almostEqual(l.BusySeconds(), 10, 1e-9) {
		t.Fatalf("busy = %v, want 10", l.BusySeconds())
	}
}

// Property: conservation — every byte injected is carried by every link
// on its path, and completion times are consistent with link capacities.
func TestConservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		nLinks := 2 + rng.Intn(5)
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = net.NewLink(fmt.Sprintf("l%d", i), "test", 10+rng.Float64()*1000, 0)
		}
		nFlows := 1 + rng.Intn(12)
		type exp struct{ flowBytes float64 }
		perLink := make([]float64, nLinks)
		var totalIn float64
		for i := 0; i < nFlows; i++ {
			// random non-empty path of distinct links
			perm := rng.Perm(nLinks)
			plen := 1 + rng.Intn(nLinks)
			path := make([]*Link, 0, plen)
			for _, pi := range perm[:plen] {
				path = append(path, links[pi])
			}
			size := 1 + rng.Float64()*10000
			totalIn += size
			for _, l := range path {
				perLink[l.index] += size
			}
			at := rng.Float64() * 5
			eng.At(at, func() { net.StartFlow("f", size, path, nil) })
		}
		eng.Run()
		for i, l := range links {
			if !almostEqual(l.CarriedBytes(), perLink[i], 1e-3*(1+perLink[i])) {
				return false
			}
		}
		_ = totalIn
		return net.ActiveFlows() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: no link is ever overdriven — carried bytes on a link can
// never exceed capacity times the span it was in use, and BusySeconds
// never exceeds total elapsed time.
func TestCapacityRespectedProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		links := make([]*Link, 3)
		for i := range links {
			links[i] = net.NewLink(fmt.Sprintf("l%d", i), "test", 50+rng.Float64()*200, 0)
		}
		for i := 0; i < 10; i++ {
			path := []*Link{links[rng.Intn(3)]}
			if rng.Intn(2) == 0 {
				other := links[rng.Intn(3)]
				if other != path[0] {
					path = append(path, other)
				}
			}
			size := 1 + rng.Float64()*5000
			at := rng.Float64() * 2
			eng.At(at, func() { net.StartFlow("f", size, path, nil) })
		}
		eng.Run()
		elapsed := eng.Now()
		for _, l := range links {
			if l.BusySeconds() > elapsed+1e-9 {
				return false
			}
			if l.CarriedBytes() > l.Capacity()*elapsed+1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: max-min fairness — after rates settle with long flows, no
// flow could be given a higher rate without reducing the rate of a flow
// whose rate is no larger (checked via: every flow crosses at least one
// saturated link where it has a maximal rate among that link's flows).
func TestMaxMinProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		nLinks := 2 + rng.Intn(4)
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = net.NewLink(fmt.Sprintf("l%d", i), "test", 10+rng.Float64()*100, 0)
		}
		nFlows := 1 + rng.Intn(8)
		flows := make([]*Flow, nFlows)
		paths := make([][]*Link, nFlows)
		for i := range flows {
			perm := rng.Perm(nLinks)
			plen := 1 + rng.Intn(nLinks)
			path := make([]*Link, 0, plen)
			for _, pi := range perm[:plen] {
				path = append(path, links[pi])
			}
			paths[i] = path
			flows[i] = net.StartFlow("f", 1e12, path, nil) // effectively infinite
		}
		eng.RunUntil(0.001)
		// Compute per-link allocated sums.
		alloc := make(map[*Link]float64)
		for i, f := range flows {
			for _, l := range paths[i] {
				alloc[l] += f.Rate()
			}
		}
		for i, f := range flows {
			if f.Rate() <= 0 {
				return false
			}
			hasBottleneck := false
			for _, l := range paths[i] {
				saturated := almostEqual(alloc[l], l.Capacity(), 1e-6*l.Capacity())
				if !saturated {
					continue
				}
				maximal := true
				for j, g := range flows {
					if j == i {
						continue
					}
					for _, gl := range paths[j] {
						if gl == l && g.Rate() > f.Rate()+1e-9 {
							maximal = false
						}
					}
				}
				if maximal {
					hasBottleneck = true
					break
				}
			}
			if !hasBottleneck {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: determinism — identical schedules produce identical
// completion sequences.
func TestFabricDeterminismProperty(t *testing.T) {
	run := func(seed int64) []sim.Time {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		links := make([]*Link, 4)
		for i := range links {
			links[i] = net.NewLink(fmt.Sprintf("l%d", i), "test", 100+float64(i)*50, float64(i)*1e-3)
		}
		var completions []sim.Time
		for i := 0; i < 20; i++ {
			path := []*Link{links[rng.Intn(4)], links[rng.Intn(4)]}
			if path[0] == path[1] {
				path = path[:1]
			}
			size := 1 + rng.Float64()*1000
			at := rng.Float64()
			eng.At(at, func() {
				net.StartFlow("f", size, path, func(f *Flow) {
					completions = append(completions, eng.Now())
				})
			})
		}
		eng.Run()
		return completions
	}
	prop := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestChainedFlowsViaCallbacks(t *testing.T) {
	// Completion callbacks that start new flows model dependent transfer
	// stages (e.g. NIC->CPU then CPU->GPU); verify timing composes.
	eng := sim.NewEngine()
	net := NewNetwork(eng)
	nic := net.NewLink("nic", "nic", 25, 0)
	pcie := net.NewLink("pcie", "pcie", 64, 0)
	var doneAt sim.Time
	net.StartFlow("stage1", 100, []*Link{nic}, func(f *Flow) {
		net.StartFlow("stage2", 100, []*Link{pcie}, func(f *Flow) {
			doneAt = eng.Now()
		})
	})
	eng.Run()
	want := 100.0/25 + 100.0/64
	if !almostEqual(doneAt, want, 1e-9) {
		t.Fatalf("done at %v, want %v", doneAt, want)
	}
}

func TestFlowEfficiencySemantics(t *testing.T) {
	eng := sim.NewEngine()
	net := NewNetwork(eng)
	l := net.NewLink("l", "test", 100, 0)
	var doneAt sim.Time
	f := net.StartFlowEff("half", 100, 0.5, []*Link{l}, func(*Flow) { doneAt = eng.Now() })
	eng.RunUntil(0.5)
	// The flow reserves the full link share but delivers at half rate.
	if !almostEqual(f.Rate(), 100, 1e-9) || !almostEqual(f.Goodput(), 50, 1e-9) {
		t.Fatalf("rate=%v goodput=%v", f.Rate(), f.Goodput())
	}
	eng.Run()
	if !almostEqual(doneAt, 2, 1e-9) {
		t.Fatalf("done at %v, want 2 (100 bytes at 50 B/s)", doneAt)
	}
	// Carried bytes account goodput; busy time accounts the reservation.
	if !almostEqual(l.CarriedBytes(), 100, 1e-6) {
		t.Fatalf("carried %v, want 100", l.CarriedBytes())
	}
	if !almostEqual(l.BusySeconds(), 2, 1e-9) {
		t.Fatalf("busy %v, want 2", l.BusySeconds())
	}
}

func TestFlowEfficiencyValidation(t *testing.T) {
	eng := sim.NewEngine()
	net := NewNetwork(eng)
	l := net.NewLink("l", "test", 100, 0)
	for _, eff := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("eff=%v accepted", eff)
				}
			}()
			net.StartFlowEff("bad", 10, eff, []*Link{l}, nil)
		}()
	}
}

// NewLink rejects a capacity or latency the event engine cannot
// schedule with: NaN fails every comparison, so each bound is checked
// for it explicitly.
func TestNewLinkRejectsNonFinite(t *testing.T) {
	net := NewNetwork(sim.NewEngine())
	for _, c := range []struct{ capacity, latency float64 }{
		{0, 0}, {-1, 0}, {math.NaN(), 0}, {math.Inf(1), 0},
		{100, -1e-6}, {100, math.NaN()}, {100, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink(capacity %v, latency %v) accepted", c.capacity, c.latency)
				}
			}()
			net.NewLink("bad", "test", c.capacity, c.latency)
		}()
	}
}

// Property: halving a flow's efficiency exactly doubles its solo
// completion time (above the latency floor).
func TestEfficiencyScalingProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Float64()*1e6
		eff := 0.1 + 0.4*rng.Float64()
		run := func(e float64) sim.Time {
			eng := sim.NewEngine()
			net := NewNetwork(eng)
			l := net.NewLink("l", "test", 1e6, 0)
			var done sim.Time
			net.StartFlowEff("f", size, e, []*Link{l}, func(*Flow) { done = eng.Now() })
			eng.Run()
			return done
		}
		t1, t2 := run(eff), run(eff/2)
		return almostEqual(t2, 2*t1, 1e-9*(1+t1))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

package fabric

import (
	"runtime/debug"
	"testing"
)

// allocsRetry measures fn's steady-state allocations, retrying while
// nonzero: AllocsPerRun counts process-global mallocs, so a stray
// allocation from another test's winding-down goroutine can pollute
// one measurement. A real per-op leak (>= 1 alloc every run) fails
// every attempt deterministically.
func allocsRetry(runs int, fn func()) float64 {
	var n float64
	for attempt := 0; attempt < 3; attempt++ {
		n = testing.AllocsPerRun(runs, fn)
		if n == 0 {
			return 0
		}
	}
	return n
}

// gateNet builds a fat-tree, admits one sparse
// All-to-All (fanout peers per machine) of effectively infinite flows,
// and steps the engine until every flow is active and the initial
// settle has run. The returned trigger is one flow's path — the exact
// trigger shape a completion settle sees.
func gateNet(t *testing.T, machines, trunks, fanout int) (*benchTopo, []*Link) {
	t.Helper()
	topo := newBenchTopo(machines, trunks)
	specs := topo.sparseA2ASpecs(0, fanout, 1e18)
	flows := topo.net.StartFlows(specs)
	for topo.net.nActive < len(flows) || topo.net.settlePending {
		if !topo.eng.Step() {
			t.Fatal("engine drained before the admission settled")
		}
	}
	return topo, flows[0].path
}

// TestSettleSteadyStateZeroAlloc is the settle's allocation-regression
// gate: a warm settle — component walk, scope ordering, progressive
// filling — must perform zero heap allocations on either fill. All fill
// scratch (scope lists, BFS queue, bottleneck heap) lives on the Network
// and grows once; this test pins that the warm path never falls off it
// (allocation count, not bytes, so a single escaped local fails it).
//
// The settle core is invoked directly, with the scratch restore the
// real settle performs, because a full engine-driven flow lifecycle
// legitimately allocates (Flow objects, event scheduling) — the gated
// invariant is the per-settle compute path, the term that multiplies
// with machine count.
//
// GC is disabled for the measurement window because a cycle mid-run
// would make the runtime's own bookkeeping show up in the count.
func TestSettleSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race runtime")
	}
	// Gated on both sides of the fill selector: 8 machines is dense
	// enough to scan, 64 machines sparse enough that the component takes
	// the heap (checked below, so the gate cannot drift onto one branch).
	cases := []struct {
		name                     string
		machines, trunks, fanout int
		wantScan                 bool
	}{
		{"incremental", 8, 4, 4, true},
		{"incremental-heap", 64, 16, 2, false},
	}
	for _, m := range cases {
		t.Run(m.name, func(t *testing.T) {
			topo, trig := gateNet(t, m.machines, m.trunks, m.fanout)
			net := topo.net
			settleOnce := func() {
				scopeF, scopeL, pathSum := net.scopeComponent(trig)
				if scanFits(len(scopeL), pathSum) != m.wantScan {
					t.Fatalf("%d links, Σ path %d: scanFits = %v, want %v", len(scopeL), pathSum, !m.wantScan, m.wantScan)
				}
				net.fillComponent(scopeF, scopeL, pathSum)
				net.scopeFlows = scopeF[:0]
				net.scopeLinks = scopeL[:0]
			}
			settleOnce() // warm the fill scratch
			settleOnce() // grow every reused slice to capacity
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			if n := allocsRetry(50, settleOnce); n != 0 {
				t.Fatalf("%s settle: %v allocs/op in steady state, want 0", m.name, n)
			}
		})
	}
}

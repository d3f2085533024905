package fabric

import (
	"fmt"

	"janus/internal/sim"
)

// benchTopo is a two-tier topology: machines with an up and a down
// link each, joined through one core link per machine pair's hash (a
// small core trunk set), the shape the simulator's All-to-All load puts
// on a cluster. The differential and allocation tests run on it.
type benchTopo struct {
	eng  *sim.Engine
	net  *Network
	up   []*Link
	down []*Link
	core []*Link
}

func newBenchTopo(machines, trunks int) *benchTopo {
	eng := sim.NewEngine()
	net := NewNetwork(eng)
	t := &benchTopo{eng: eng, net: net}
	for m := 0; m < machines; m++ {
		t.up = append(t.up, net.NewLink(fmt.Sprintf("up%d", m), "nic", 1e10, 0))
		t.down = append(t.down, net.NewLink(fmt.Sprintf("down%d", m), "nic", 1e10, 0))
	}
	for c := 0; c < trunks; c++ {
		t.core = append(t.core, net.NewLink(fmt.Sprintf("core%d", c), "core", 4e10, 0))
	}
	return t
}

// allToAllSpecs builds one full All-to-All shuffle: every ordered
// machine pair sends one flow through src-up, a trunk, and dst-down.
// Sizes are skewed per pair (like real token routing imbalance), so
// completions stagger and every one forces a reallocation — the
// settle-heavy regime the incremental allocator is built for.
func (t *benchTopo) allToAllSpecs(round int, size float64) []FlowSpec {
	var specs []FlowSpec
	n := len(t.up)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			specs = append(specs, FlowSpec{
				Name: fmt.Sprintf("a2a.r%d.%d.%d", round, s, d),
				Size: size * (1 + 0.01*float64(s*n+d)),
				Path: []*Link{t.up[s], t.core[(s+d)%len(t.core)], t.down[d]},
			})
		}
	}
	return specs
}

// sparseA2ASpecs builds one sparse All-to-All round: each machine
// sends to `fanout` peers at quadratic strides (the 2-hop A2A shape
// large clusters actually run — dense pairwise flows
// stop being realistic past a few dozen machines). Sizes are skewed so
// completions stagger and every one forces a reallocation.
func (t *benchTopo) sparseA2ASpecs(round, fanout int, size float64) []FlowSpec {
	var specs []FlowSpec
	n := len(t.up)
	for s := 0; s < n; s++ {
		for k := 1; k <= fanout; k++ {
			d := (s + k*k) % n
			if d == s {
				d = (d + 1) % n
			}
			specs = append(specs, FlowSpec{
				Name: fmt.Sprintf("sa2a.r%d.%d.%d", round, s, k),
				Size: size * (1 + 0.01*float64((s+7*k)%97)),
				Path: []*Link{t.up[s], t.core[(s*fanout+k)%len(t.core)], t.down[d]},
			})
		}
	}
	return specs
}

// runRounds drives `rounds` back-to-back shuffles (each admitted when
// the previous drains) and runs the simulation dry, with drainChecked's
// optional check. A spec's own OnComplete still runs, ahead of the
// round bookkeeping.
func runRounds(t *benchTopo, rounds int, specsFor func(r int) []FlowSpec, check ...func(*Network)) {
	var kick func(r int)
	kick = func(r int) {
		if r == rounds {
			return
		}
		specs := specsFor(r)
		left := len(specs)
		for i := range specs {
			own := specs[i].OnComplete
			specs[i].OnComplete = func(f *Flow) {
				if own != nil {
					own(f)
				}
				left--
				if left == 0 {
					kick(r + 1)
				}
			}
		}
		t.net.StartFlows(specs)
	}
	kick(0)
	drainChecked(t.net, check...)
}

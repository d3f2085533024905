package fabric

import (
	"fmt"
	"testing"

	"janus/internal/sim"
)

// benchFatTree builds a two-tier topology: machines with an up and a
// down link each, joined through one core link per machine pair's hash
// (a small core trunk set), the shape the simulator's All-to-All load
// puts on a cluster.
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

// BenchmarkA2AScale1024 is the allocator's superlinear wall: two
// rounds of sparse All-to-All (8 peers per machine) on 1 024 machines,
// ~8k staggered flows per round fused into one component by 256 shared
// trunks, ~6.3 s per iteration on a 2-core x86 box, so the CI smoke
// tier (-short) skips it. Read it with
// go test -run '^$' -bench A2AScale ./internal/fabric.
func BenchmarkA2AScale1024(b *testing.B) {
	if testing.Short() {
		b.Skip("1024-machine A2A is ~6.3 s/op; the -short tier skips it")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := newBenchTopo(1024, 256)
		runRounds(t, 2, func(r int) []FlowSpec { return t.sparseA2ASpecs(r, 8, 1e6) })
	}
}

// benchmarkAdmissionAt measures admitting `flows` flows in one batch
// on a machines-wide topology and running the network dry — the
// admission + reallocation + completion pipeline end to end.
func benchmarkAdmissionAt(b *testing.B, machines, flows int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := newBenchTopo(machines, 8)
		var specs []FlowSpec
		for f := 0; f < flows; f++ {
			s := f % machines
			d := (f + 1 + f/machines) % machines
			if d == s {
				d = (d + 1) % machines
			}
			specs = append(specs, FlowSpec{
				Name: fmt.Sprintf("f%d", f),
				Size: 1e6 + float64(f%7)*1e5,
				Path: []*Link{t.up[s], t.core[f%len(t.core)], t.down[d]},
			})
		}
		t.net.StartFlows(specs)
		t.eng.Run()
	}
}

// AdmissionScale admits one sparse-A2A wave (8 flows per machine) on a
// machines-wide topology — the scaling-curve companion to A2AScale.
func BenchmarkAdmissionScale1024(b *testing.B) { benchmarkAdmissionAt(b, 1024, 8*1024) }
func BenchmarkAdmissionScale4096(b *testing.B) { benchmarkAdmissionAt(b, 4096, 8*4096) }

// BenchmarkReallocation1kIncremental stresses the settle path itself:
// a standing population of long flows keeps every link busy while
// short flows arrive and complete, forcing a reallocation each time.
// Only the affected component should be recomputed.
func BenchmarkReallocation1kIncremental(b *testing.B) {
	b.ReportAllocs()
	const machines, churn = 32, 1000
	for i := 0; i < b.N; i++ {
		t := newBenchTopo(machines, 8)
		// Standing load: one long flow per machine pair ring.
		var specs []FlowSpec
		for m := 0; m < machines; m++ {
			d := (m + 1) % machines
			specs = append(specs, FlowSpec{
				Name: fmt.Sprintf("standing%d", m),
				Size: 1e9,
				Path: []*Link{t.up[m], t.core[m%len(t.core)], t.down[d]},
			})
		}
		t.net.StartFlows(specs)
		// Churn: short flows admitted one at a time as each completes.
		var kick func(k int)
		kick = func(k int) {
			if k == churn {
				return
			}
			s := k % machines
			d := (k + machines/2) % machines
			t.net.StartFlows([]FlowSpec{{
				Name: fmt.Sprintf("churn%d", k),
				Size: 1e5,
				Path: []*Link{t.up[s], t.core[k%len(t.core)], t.down[d]},
				OnComplete: func(*Flow) {
					kick(k + 1)
				},
			}})
		}
		kick(0)
		t.eng.Run()
	}
}

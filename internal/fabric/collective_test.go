package fabric_test

import (
	"math"
	"testing"

	"janus/internal/collective"
	"janus/internal/topology"
)

// runCollectives drives an All-to-All wave, a hierarchical All-to-All
// and a ring AllReduce back to back on a freshly built cluster, settling
// through the naive oracle when oracle is set, and returns the bit-exact
// observables: finish time of each phase and the per-machine egress
// bytes at the end.
func runCollectives(t *testing.T, oracle bool, machines int) []float64 {
	t.Helper()
	c, err := topology.New(topology.DefaultSpec(machines))
	if err != nil {
		t.Fatal(err)
	}
	if oracle {
		c.Net.UseOracle()
	}
	gpus := c.GPUs()
	var out []float64
	collective.AllToAll(c, gpus, uniformSizes(len(gpus), 2e6), "a2a", func() {
		out = append(out, c.Engine.Now())
		collective.HierarchicalAllToAll(c, uniformSizes(len(gpus), 1e6), "ha2a", func() {
			out = append(out, c.Engine.Now())
			collective.RingAllReduce(c, gpus, 4e6, "ar", func() {
				out = append(out, c.Engine.Now())
			})
		})
	})
	c.Engine.Run()
	if len(out) != 3 {
		t.Fatalf("collective chain incomplete: %d/3 phases finished", len(out))
	}
	for mi := 0; mi < machines; mi++ {
		out = append(out, c.MachineEgressBytes(mi))
	}
	return out
}

// uniformSizes is an n×n All-to-All size matrix with bytes off the
// diagonal.
func uniformSizes(n int, bytes float64) [][]float64 {
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			if i != j {
				s[i][j] = bytes
			}
		}
	}
	return s
}

// TestCollectivesOracleDifferential is the fabric's bit-identity
// contract on the real cluster link graph: a full collective workload
// produces the same timeline and byte accounting, bit for bit, through
// the component settle as through the naive oracle.
func TestCollectivesOracleDifferential(t *testing.T) {
	const machines = 3
	inc := runCollectives(t, false, machines)
	oracle := runCollectives(t, true, machines)
	for i := range inc {
		if math.Float64bits(inc[i]) != math.Float64bits(oracle[i]) {
			t.Errorf("sample %d: incremental=%v oracle=%v", i, inc[i], oracle[i])
		}
	}
}

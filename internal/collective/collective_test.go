package collective

import (
	"math"
	"testing"
	"testing/quick"

	"janus/internal/topology"
)

func cluster(t testing.TB, machines int) *topology.Cluster {
	t.Helper()
	c, err := topology.New(topology.DefaultSpec(machines))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

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

func TestAllToAllCompletes(t *testing.T) {
	c := cluster(t, 2)
	gpus := c.GPUs()
	done := false
	AllToAll(c, gpus, uniformSizes(len(gpus), 1e6), "a2a", func() { done = true })
	c.Engine.Run()
	if !done {
		t.Fatal("AllToAll never completed")
	}
	if c.Engine.Now() <= 0 {
		t.Fatal("AllToAll took no time")
	}
}

func TestAllToAllTrafficAccounting(t *testing.T) {
	c := cluster(t, 2)
	gpus := c.GPUs()
	const bytes = 1e6
	AllToAll(c, gpus, uniformSizes(len(gpus), bytes), "a2a", nil)
	c.Engine.Run()
	// Cross-machine bytes: each GPU sends to the 8 GPUs of the other
	// machine => 16 GPUs x 8 x 1e6 over NICs (egress side).
	got := c.InterNodeEgressBytes()
	want := 16 * 8 * bytes
	if math.Abs(got-want) > 1 {
		t.Fatalf("inter-node egress = %v, want %v", got, want)
	}
}

func TestAllToAllEmpty(t *testing.T) {
	c := cluster(t, 1)
	done := false
	AllToAll(c, c.GPUs(), uniformSizes(c.NumGPUs(), 0), "a2a", func() { done = true })
	c.Engine.Run()
	if !done {
		t.Fatal("empty AllToAll never completed")
	}
}

func TestAllToAllIsSynchronous(t *testing.T) {
	// One oversized pair transfer must delay the completion of the whole
	// collective (the imbalance effect of §3.1).
	c := cluster(t, 1)
	gpus := c.GPUs()
	sizes := uniformSizes(len(gpus), 1e6)
	balancedDone := 0.0
	AllToAll(c, gpus, sizes, "bal", nil)
	c.Engine.Run()
	balancedDone = c.Engine.Now()

	c2 := cluster(t, 1)
	gpus2 := c2.GPUs()
	sizes2 := uniformSizes(len(gpus2), 1e6)
	sizes2[0][1] = 64e6 // hot pair
	var skewDone float64
	AllToAll(c2, gpus2, sizes2, "skew", func() { skewDone = c2.Engine.Now() })
	c2.Engine.Run()
	if skewDone <= balancedDone*2 {
		t.Fatalf("skewed A2A (%.6fs) not gated by hot pair (balanced %.6fs)", skewDone, balancedDone)
	}
}

func TestHierarchicalAllToAllConservesBytes(t *testing.T) {
	c := cluster(t, 2)
	const bytes = 1e6
	n := c.NumGPUs()
	HierarchicalAllToAll(c, uniformSizes(n, bytes), "h", nil)
	c.Engine.Run()
	// Inter-node volume is identical to flat: every byte bound for the
	// other machine crosses the NICs exactly once.
	got := c.InterNodeEgressBytes()
	want := 16 * 8 * bytes
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("hierarchical inter-node egress = %v, want %v", got, want)
	}
}

func TestHierarchicalCompletesAndOrdersPhases(t *testing.T) {
	c := cluster(t, 4)
	done := false
	HierarchicalAllToAll(c, uniformSizes(c.NumGPUs(), 1e5), "h", func() { done = true })
	c.Engine.Run()
	if !done {
		t.Fatal("hierarchical A2A never completed")
	}
}

func TestHierarchicalFewerCrossNodeFlows(t *testing.T) {
	// With 4 machines x 8 GPUs, flat A2A creates 32*24=768 cross flows;
	// hierarchical creates one aggregated flow per (srcM,dstM) pair: 12.
	// We verify indirectly: hierarchical must not be slower than ~2x
	// flat for uniform sizes (it adds intra hops but they are fast).
	cFlat := cluster(t, 4)
	AllToAll(cFlat, cFlat.GPUs(), uniformSizes(32, 1e6), "flat", nil)
	cFlat.Engine.Run()
	flat := cFlat.Engine.Now()

	cH := cluster(t, 4)
	HierarchicalAllToAll(cH, uniformSizes(32, 1e6), "hier", nil)
	cH.Engine.Run()
	hier := cH.Engine.Now()
	if hier > 3*flat {
		t.Fatalf("hierarchical %.6fs suspiciously slow vs flat %.6fs", hier, flat)
	}
}

func TestRingAllReduceTime(t *testing.T) {
	c := cluster(t, 2)
	gpus := c.GPUs()
	const bytes = 16e6
	var doneAt float64
	RingAllReduce(c, gpus, bytes, "ar", func() { doneAt = c.Engine.Now() })
	c.Engine.Run()
	if doneAt <= 0 {
		t.Fatal("allreduce did not complete")
	}
	// Lower bound: 2(N-1)/N × bytes must cross the two machine-boundary
	// ring edges; each step is gated by the NIC hop.
	nGPU := float64(len(gpus))
	minTime := 2 * (nGPU - 1) / nGPU * bytes / c.Spec.NICBps
	if doneAt < minTime {
		t.Fatalf("allreduce %.6fs faster than NIC bound %.6fs", doneAt, minTime)
	}
}

func TestRingAllReduceDegenerate(t *testing.T) {
	c := cluster(t, 1)
	done := false
	RingAllReduce(c, c.GPUs()[:1], 1e6, "ar", func() { done = true })
	c.Engine.Run()
	if !done {
		t.Fatal("single-GPU allreduce should complete immediately")
	}
}

func TestBroadcast(t *testing.T) {
	c := cluster(t, 2)
	gpus := c.GPUs()
	var doneAt float64
	Broadcast(c, gpus[0], gpus, 1e6, "bc", func() { doneAt = c.Engine.Now() })
	c.Engine.Run()
	if doneAt <= 0 {
		t.Fatal("broadcast did not complete")
	}
	// Root egress carried (m-1) intra + striped NIC... at minimum the
	// NVLink egress carried 7 copies.
	if got := gpus[0].NVOut.CarriedBytes(); got < 7e6-1 {
		t.Fatalf("root NVLink egress = %v, want >= 7e6", got)
	}
}

func TestBroadcastDegenerate(t *testing.T) {
	c := cluster(t, 1)
	done := false
	Broadcast(c, c.GPU(0), []*topology.GPU{c.GPU(0)}, 1e6, "bc", func() { done = true })
	c.Engine.Run()
	if !done {
		t.Fatal("self-broadcast should complete")
	}
}

// Property: for random sparse size matrices, flat and hierarchical
// all-to-all carry identical inter-node byte totals.
func TestFlatVsHierarchicalTrafficProperty(t *testing.T) {
	prop := func(seed int64) bool {
		sizes := uniformSizes(16, 0)
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64((s>>33)&0xFFFF) * 100
		}
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				if i != j {
					sizes[i][j] = next()
				}
			}
		}
		cF := cluster(t, 2)
		AllToAll(cF, cF.GPUs(), sizes, "f", nil)
		cF.Engine.Run()
		cH := cluster(t, 2)
		HierarchicalAllToAll(cH, sizes, "h", nil)
		cH.Engine.Run()
		a, b := cF.InterNodeEgressBytes(), cH.InterNodeEgressBytes()
		if a == 0 && b == 0 {
			return true
		}
		return math.Abs(a-b)/math.Max(a, 1) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

package topology

import (
	"math"
	"testing"
	"testing/quick"

	"janus/internal/fabric"
)

func TestDefaultSpecValid(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		if err := DefaultSpec(n).Validate(); err != nil {
			t.Fatalf("DefaultSpec(%d): %v", n, err)
		}
	}
}

func TestSpecValidateRejects(t *testing.T) {
	cases := []func(*Spec){
		func(s *Spec) { s.NumMachines = 0 },
		func(s *Spec) { s.GPUsPerNode = 0 },
		func(s *Spec) { s.GPUsPerPCIe = 3 }, // does not divide 8
		func(s *Spec) { s.NICBps = 0 },
		func(s *Spec) { s.NICBps = math.NaN() },
		func(s *Spec) { s.NVLinkBps = math.Inf(1) },
		func(s *Spec) { s.PCIeBps = -1 },
		func(s *Spec) { s.PCIeBps = math.NaN() },
		func(s *Spec) { s.NVLinkLatency = math.NaN() },
		func(s *Spec) { s.PCIeLatency = math.Inf(1) },
		func(s *Spec) { s.NICLatency = -1e-6 },
		func(s *Spec) { s.NICLatency = math.NaN() },
		func(s *Spec) { s.GPUFlops = -1 },
	}
	for i, mut := range cases {
		s := DefaultSpec(2)
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: invalid spec accepted", i)
		}
	}
}

func TestClusterShape(t *testing.T) {
	c, err := New(DefaultSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NumGPUs(); got != 32 {
		t.Fatalf("NumGPUs = %d, want 32", got)
	}
	if len(c.Machines) != 4 {
		t.Fatalf("machines = %d, want 4", len(c.Machines))
	}
	for mi, m := range c.Machines {
		if len(m.GPUs) != 8 {
			t.Fatalf("machine %d has %d GPUs", mi, len(m.GPUs))
		}
		if len(m.Switches) != 4 {
			t.Fatalf("machine %d has %d PCIe switches", mi, len(m.Switches))
		}
	}
	// Global ranks are machine-major.
	g := c.GPU(19)
	if g.Machine.Index != 2 || g.Local != 3 {
		t.Fatalf("GPU(19) = machine %d local %d, want 2/3", g.Machine.Index, g.Local)
	}
}

func TestPCIeSwitchAssignment(t *testing.T) {
	c, _ := New(DefaultSpec(1))
	// GPUs 0,1 -> switch 0; 2,3 -> 1; 4,5 -> 2; 6,7 -> 3.
	for li, want := range []int{0, 0, 1, 1, 2, 2, 3, 3} {
		if got := c.Machines[0].GPUs[li].PCIeSwitchIndex(); got != want {
			t.Fatalf("GPU %d switch = %d, want %d", li, got, want)
		}
	}
	peers := c.Machines[0].GPUs[4].Peers()
	if len(peers) != 1 || peers[0].Local != 5 {
		t.Fatalf("GPU 4 peers = %v, want [g5]", peers)
	}
}

func TestIntraMachinePathUsesNVLink(t *testing.T) {
	c, _ := New(DefaultSpec(2))
	src, dst := c.GPU(0), c.GPU(5)
	path := c.PathGPUToGPU(src, dst)
	if len(path) != 2 {
		t.Fatalf("path length = %d, want 2", len(path))
	}
	if path[0] != src.NVOut || path[1] != dst.NVIn {
		t.Fatalf("intra-machine path does not use NVSwitch ports")
	}
	for _, l := range path {
		if l.Class() != "nvlink" {
			t.Fatalf("link class %q, want nvlink", l.Class())
		}
	}
}

func TestInterMachinePathUsesGDR(t *testing.T) {
	c, _ := New(DefaultSpec(2))
	src, dst := c.GPU(1), c.GPU(14) // machine 0 -> machine 1
	path := c.PathGPUToGPU(src, dst)
	classes := make([]string, len(path))
	for i, l := range path {
		classes[i] = l.Class()
	}
	want := []string{"pcie-gpu", "nic", "nic", "pcie-gpu"}
	if len(classes) != len(want) {
		t.Fatalf("path classes = %v", classes)
	}
	for i := range want {
		if classes[i] != want[i] {
			t.Fatalf("path classes = %v, want %v", classes, want)
		}
	}
}

func TestSameGPUPathIsNil(t *testing.T) {
	c, _ := New(DefaultSpec(1))
	if p := c.PathGPUToGPU(c.GPU(3), c.GPU(3)); p != nil {
		t.Fatalf("self path = %v, want nil", p)
	}
}

func TestHierarchicalFetchPaths(t *testing.T) {
	c, _ := New(DefaultSpec(2))
	src := c.GPU(9) // machine 1
	dst := c.Machines[0]
	p1 := c.PathGPUToRemoteCPU(src, dst, 2)
	wantClasses := []string{"pcie-gpu", "nic", "nic", "pcie-host"}
	for i, l := range p1 {
		if l.Class() != wantClasses[i] {
			t.Fatalf("stage1 classes mismatch at %d: %v", i, l.Class())
		}
	}
	// Stage 2 from CPU to a GPU on switch 2 must use that switch's lanes.
	g := c.Machines[0].GPUs[5]
	p2 := c.PathLocalCPUToGPU(g)
	if len(p2) != 2 || p2[0] != c.Machines[0].Switches[2].FromCPU || p2[1] != g.FromSwitch {
		t.Fatalf("stage2 path wrong: %v", p2)
	}
}

func TestGradientPushPath(t *testing.T) {
	c, _ := New(DefaultSpec(2))
	owner := c.GPU(12) // machine 1
	path := c.PathCPUToRemoteGPU(c.Machines[0], 1, owner)
	if path[0] != c.Machines[0].Switches[1].FromCPU {
		t.Fatalf("gradient push does not start at chosen switch")
	}
	if path[len(path)-1] != owner.FromSwitch {
		t.Fatalf("gradient push does not end at owner GPU")
	}
}

func TestInterNodeLinksCount(t *testing.T) {
	c, _ := New(DefaultSpec(4))
	// 4 machines × 4 NICs × 2 directions.
	links := map[*fabric.Link]bool{}
	for _, m := range c.Machines {
		for _, sw := range m.Switches {
			links[sw.NICOut], links[sw.NICIn] = true, true
		}
	}
	if got := len(links); got != 32 {
		t.Fatalf("inter-node links = %d, want 32", got)
	}
}

// Property: for any valid ranks, routing is symmetric in structure —
// reverse path crosses the same number of links, and inter-machine paths
// always traverse exactly two NIC links.
func TestRoutingStructureProperty(t *testing.T) {
	c, _ := New(DefaultSpec(4))
	prop := func(a, b uint8) bool {
		src := c.GPU(int(a) % c.NumGPUs())
		dst := c.GPU(int(b) % c.NumGPUs())
		fwd := c.PathGPUToGPU(src, dst)
		rev := c.PathGPUToGPU(dst, src)
		if len(fwd) != len(rev) {
			return false
		}
		nics := 0
		for _, l := range fwd {
			if l.Class() == "nic" {
				nics++
			}
		}
		if src.Machine == dst.Machine {
			return nics == 0
		}
		return nics == 2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNICStriping(t *testing.T) {
	c, _ := New(DefaultSpec(2))
	src := c.GPU(8)
	seen := map[*PCIeSwitch]bool{}
	for via := 0; via < 8; via++ {
		p := c.PathGPUToRemoteCPU(src, c.Machines[0], via)
		for _, sw := range c.Machines[0].Switches {
			if p[2] == sw.NICIn {
				seen[sw] = true
			}
		}
	}
	if len(seen) != 4 {
		t.Fatalf("striping used %d NICs, want 4", len(seen))
	}
}

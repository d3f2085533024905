// Package topology builds the cluster model the simulations run on: the
// link graph of an A100-class machine (GPUs on an NVSwitch fabric, PCIe
// switches each connecting two GPUs and one NIC to the host) and a
// multi-machine cluster joined by a non-blocking spine, matching the
// testbed in §7.1 and Figure 6 of the Janus paper.
//
// The package owns path selection: every engine expresses communication
// as "bytes from endpoint A to endpoint B" and the topology translates
// that into an ordered list of fabric links. Keeping routing here means
// the expert-centric and data-centric engines contend on exactly the
// same physical resources.
package topology

import (
	"fmt"
	"math"

	"janus/internal/fabric"
	"janus/internal/sim"
)

// Spec describes the hardware of a cluster. The defaults (DefaultSpec)
// model the paper's testbed: 8×A100 SXM 80GB per machine, NVSwitch,
// four PCIe switches per machine each attaching two GPUs and one
// 200 Gbps NIC.
//
// Capacities are *effective* bytes per second: nominal link rate times a
// protocol-efficiency factor, which is how flow-level models absorb
// header overhead, congestion-control slack and kernel launch gaps.
type Spec struct {
	NumMachines int
	GPUsPerNode int // GPUs per machine
	GPUsPerPCIe int // GPUs attached to one PCIe switch (and one NIC)

	// Effective per-direction capacities, bytes/second.
	NVLinkBps float64 // GPU <-> NVSwitch port
	PCIeBps   float64 // GPU <-> PCIe switch, and PCIe switch <-> CPU
	NICBps    float64 // NIC <-> spine

	// Per-link one-way latencies, seconds.
	NVLinkLatency float64
	PCIeLatency   float64
	NICLatency    float64

	// Protocol efficiencies: the goodput fraction of the allocated
	// link share each traffic type achieves. The Janus paper's §3.1
	// stress test measured All-to-All goodput of 1846.58 Gbps
	// intra-machine (vs ~19.2 Tbps of NVLink egress: ~10-13%) and
	// 101.9 Gbps inter-machine (vs 800 Gbps of NICs per machine:
	// ~13%), so collective All-to-All derates uniformly to ~0.13.
	// Large sequential pulls (the data-centric fetches) behave like
	// single-stream RDMA and reach near line rate; §7.5 notes they are
	// PCIe-limited rather than NIC-limited, consistent with ~0.85.
	A2AEfficiency       float64 // NCCL-style All-to-All goodput fraction
	AllReduceEfficiency float64 // ring AllReduce goodput fraction

	// PullEfficiency is the goodput fraction of a task-queue pull that
	// crosses the network (internal NVLink pulls, external NIC fetches,
	// gradient pushes). It is low: the paper's Figure 13 shows ~9.4 MB
	// experts arriving ~14 ms apart, i.e. the socket-control-plane pull
	// path delivers only a few percent of line rate.
	PullEfficiency float64

	// MemcpyEfficiency is the goodput fraction of local host<->device
	// staging copies (Cache-Manager stage-2, offload, backward reload):
	// plain cudaMemcpy-style transfers that run near line rate.
	MemcpyEfficiency float64

	// FetchOpLatency is the fixed part of the per-fetched-expert
	// framework cost (kernel-stream sync + queue poll), paid once per
	// fetched expert per pass regardless of expert size.
	FetchOpLatency float64

	// FetchOpBps models the size-proportional part of the
	// per-fetched-expert framework cost a
	// data-centric worker pays around each expert's computation — the
	// FetchOp credit-buffer poll, the CUDA stream synchronisation on
	// the arrived weights, and the staging copy into the kernel's
	// layout (§6's FetchOp) — as an effective bandwidth over the
	// expert's bytes, since all three scale with expert size.
	// Expert-centric execution runs one batch per expert layer and
	// does not pay it. 0 disables the cost.
	FetchOpBps float64

	// PullLatency is the fixed control-plane cost of one pull request:
	// the socket round trip to the target plus the scheduler tick before
	// the transfer starts (§6's socket control plane / RDMA data plane
	// split). Figure 13 of the paper shows individual 9.4 MB expert
	// pulls taking ~10-15 ms wall time — an order of magnitude above
	// their wire time — which pins this constant, not bandwidth, as the
	// dominant cost of a single fetch.
	PullLatency float64

	// Compute model.
	GPUFlops       float64 // effective FLOP/s for dense fp16 matmul work
	CPUReduceBps   float64 // host-memory bandwidth for gradient pre-reduce
	KernelOverhead float64 // fixed per-op launch overhead, seconds

	// SmallBatchRampRows models GEMM efficiency collapse on short
	// batches: a kernel over `rows` rows achieves rows/(rows+ramp) of
	// GPUFlops. This is what separates the paradigms on many-expert
	// blocks — data-centric splits the expert layer into per-(worker,
	// expert) kernels of T/numExperts rows, while expert-centric runs
	// each expert once over its global batch. 0 disables the ramp.
	SmallBatchRampRows float64

	// Memory model.
	GPUMemBytes float64
}

// DefaultSpec returns the paper-testbed hardware model. Effective rates:
// NVLink 300 GB/s/direction × 0.80, PCIe 4.0 x16 32 GB/s/direction ×
// 0.80, NIC 200 Gbps = 25 GB/s × 0.90. The GPU FLOP rate is calibrated
// so the MoE-GPT forward pass lands in the paper's ~200 ms regime
// (A100 fp16 peak 312 TFLOPS derated for small-batch and framework
// overhead, matching the iteration times in §7.2.2).
func DefaultSpec(numMachines int) Spec {
	return Spec{
		NumMachines:         numMachines,
		GPUsPerNode:         8,
		GPUsPerPCIe:         2,
		NVLinkBps:           300e9 * 0.80,
		PCIeBps:             32e9 * 0.80,
		NICBps:              25e9 * 0.90,
		NVLinkLatency:       3e-6,
		PCIeLatency:         5e-6,
		NICLatency:          8e-6,
		A2AEfficiency:       0.13,
		AllReduceEfficiency: 0.70,
		PullEfficiency:      0.10,
		MemcpyEfficiency:    0.80,
		PullLatency:         1.5e-3,
		FetchOpLatency:      0.1e-3,
		FetchOpBps:          6e9,
		GPUFlops:            22e12,
		CPUReduceBps:        50e9,
		KernelOverhead:      30e-6,
		SmallBatchRampRows:  512,
		GPUMemBytes:         80e9,
	}
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	switch {
	case s.NumMachines < 1:
		return fmt.Errorf("topology: NumMachines %d < 1", s.NumMachines)
	case s.GPUsPerNode < 1:
		return fmt.Errorf("topology: GPUsPerNode %d < 1", s.GPUsPerNode)
	case s.GPUsPerPCIe < 1 || s.GPUsPerNode%s.GPUsPerPCIe != 0:
		return fmt.Errorf("topology: GPUsPerPCIe %d must divide GPUsPerNode %d", s.GPUsPerPCIe, s.GPUsPerNode)
	case !positiveFinite(s.NVLinkBps) || !positiveFinite(s.PCIeBps) || !positiveFinite(s.NICBps):
		return fmt.Errorf("topology: link capacities must be positive and finite (NVLink %v, PCIe %v, NIC %v)",
			s.NVLinkBps, s.PCIeBps, s.NICBps)
	case !nonNegativeFinite(s.NVLinkLatency) || !nonNegativeFinite(s.PCIeLatency) || !nonNegativeFinite(s.NICLatency):
		return fmt.Errorf("topology: link latencies must be non-negative and finite (NVLink %v, PCIe %v, NIC %v)",
			s.NVLinkLatency, s.PCIeLatency, s.NICLatency)
	case s.GPUFlops <= 0:
		return fmt.Errorf("topology: GPUFlops must be positive")
	case s.A2AEfficiency <= 0 || s.A2AEfficiency > 1:
		return fmt.Errorf("topology: A2AEfficiency %v outside (0,1]", s.A2AEfficiency)
	case s.AllReduceEfficiency <= 0 || s.AllReduceEfficiency > 1:
		return fmt.Errorf("topology: AllReduceEfficiency %v outside (0,1]", s.AllReduceEfficiency)
	case s.PullEfficiency <= 0 || s.PullEfficiency > 1:
		return fmt.Errorf("topology: PullEfficiency %v outside (0,1]", s.PullEfficiency)
	case s.MemcpyEfficiency <= 0 || s.MemcpyEfficiency > 1:
		return fmt.Errorf("topology: MemcpyEfficiency %v outside (0,1]", s.MemcpyEfficiency)
	case s.PullLatency < 0:
		return fmt.Errorf("topology: PullLatency %v negative", s.PullLatency)
	case s.FetchOpBps < 0:
		return fmt.Errorf("topology: FetchOpBps %v negative", s.FetchOpBps)
	case s.FetchOpLatency < 0:
		return fmt.Errorf("topology: FetchOpLatency %v negative", s.FetchOpLatency)
	}
	return nil
}

// positiveFinite reports v in (0, +Inf); NaN fails both comparisons.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// nonNegativeFinite reports v in [0, +Inf); NaN fails both comparisons.
func nonNegativeFinite(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// TotalGPUs returns NumMachines × GPUsPerNode.
func (s Spec) TotalGPUs() int { return s.NumMachines * s.GPUsPerNode }

// GPU is one worker: a global rank, its machine, and the fabric links
// and compute resource attached to it.
type GPU struct {
	Global  int // global rank
	Local   int // rank within machine
	Machine *Machine

	name string // "m<machine>g<local>", built once with the cluster

	Compute *sim.Processor

	// NVSwitch port (intra-machine GPU<->GPU traffic).
	NVOut, NVIn *fabric.Link
	// Lane to this GPU's PCIe switch (GDR traffic and host copies).
	ToSwitch, FromSwitch *fabric.Link
}

// PCIeSwitchIndex returns the index of the PCIe switch this GPU hangs off.
func (g *GPU) PCIeSwitchIndex() int { return g.Local / g.Machine.Cluster.Spec.GPUsPerPCIe }

// Peers returns the other GPUs on the same PCIe switch (for A100, the
// single peer GPU sharing the switch and NIC).
func (g *GPU) Peers() []*GPU {
	var peers []*GPU
	s := g.PCIeSwitchIndex()
	for _, o := range g.Machine.GPUs {
		if o != g && o.PCIeSwitchIndex() == s {
			peers = append(peers, o)
		}
	}
	return peers
}

// String returns "m<machine>g<local>".
func (g *GPU) String() string { return g.name }

// PCIeSwitch aggregates the host-side links of one PCIe switch: the
// lanes to the CPU and the NIC hanging off the switch.
type PCIeSwitch struct {
	Index          int
	ToCPU, FromCPU *fabric.Link
	NICOut, NICIn  *fabric.Link
}

// Machine is one server: GPUs, PCIe switches, and a host CPU used by the
// Inter-Node Scheduler (cache manager, gradient pre-reduce).
type Machine struct {
	Index    int
	Cluster  *Cluster
	GPUs     []*GPU
	Switches []*PCIeSwitch
	CPU      *sim.Processor
}

// Cluster is the full testbed: machines joined by a non-blocking spine
// (per-NIC ingress/egress links are the only inter-machine resources,
// which models a full-bisection fabric).
type Cluster struct {
	Spec     Spec
	Engine   *sim.Engine
	Net      *fabric.Network
	Machines []*Machine

	gpus []*GPU // flat, by global rank
}

// New builds a cluster over a fresh engine and network.
func New(spec Spec) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	return NewOn(eng, fabric.NewNetwork(eng), spec)
}

// NewOn builds a cluster over an existing engine and network, allowing
// callers to share one simulation across additional resources.
func NewOn(eng *sim.Engine, net *fabric.Network, spec Spec) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{Spec: spec, Engine: eng, Net: net}
	for mi := 0; mi < spec.NumMachines; mi++ {
		m := &Machine{Index: mi, Cluster: c}
		m.CPU = sim.NewProcessor(eng, fmt.Sprintf("m%d.cpu", mi))
		nSw := spec.GPUsPerNode / spec.GPUsPerPCIe
		for si := 0; si < nSw; si++ {
			sw := &PCIeSwitch{Index: si}
			sw.ToCPU = net.NewLink(fmt.Sprintf("m%d.sw%d->cpu", mi, si), "pcie-host", spec.PCIeBps, spec.PCIeLatency)
			sw.FromCPU = net.NewLink(fmt.Sprintf("m%d.cpu->sw%d", mi, si), "pcie-host", spec.PCIeBps, spec.PCIeLatency)
			sw.NICOut = net.NewLink(fmt.Sprintf("m%d.nic%d.out", mi, si), "nic", spec.NICBps, spec.NICLatency)
			sw.NICIn = net.NewLink(fmt.Sprintf("m%d.nic%d.in", mi, si), "nic", spec.NICBps, spec.NICLatency)
			m.Switches = append(m.Switches, sw)
		}
		for li := 0; li < spec.GPUsPerNode; li++ {
			g := &GPU{Global: mi*spec.GPUsPerNode + li, Local: li, Machine: m, name: fmt.Sprintf("m%dg%d", mi, li)}
			g.Compute = sim.NewProcessor(eng, g.name)
			g.NVOut = net.NewLink(g.name+".nv.out", "nvlink", spec.NVLinkBps, spec.NVLinkLatency)
			g.NVIn = net.NewLink(g.name+".nv.in", "nvlink", spec.NVLinkBps, spec.NVLinkLatency)
			g.ToSwitch = net.NewLink(g.name+".pcie.up", "pcie-gpu", spec.PCIeBps, spec.PCIeLatency)
			g.FromSwitch = net.NewLink(g.name+".pcie.down", "pcie-gpu", spec.PCIeBps, spec.PCIeLatency)
			m.GPUs = append(m.GPUs, g)
			c.gpus = append(c.gpus, g)
		}
		c.Machines = append(c.Machines, m)
	}
	return c, nil
}

// GPU returns the GPU with the given global rank.
func (c *Cluster) GPU(global int) *GPU { return c.gpus[global] }

// GPUs returns all GPUs in global-rank order. The slice is shared.
func (c *Cluster) GPUs() []*GPU { return c.gpus }

// NumGPUs returns the total GPU count.
func (c *Cluster) NumGPUs() int { return len(c.gpus) }

// switchOf returns the PCIe switch a GPU hangs off.
func switchOf(g *GPU) *PCIeSwitch { return g.Machine.Switches[g.PCIeSwitchIndex()] }

// PathGPUToGPU routes device-to-device traffic. Intra-machine traffic
// crosses the NVSwitch (src egress port, dst ingress port); inter-machine
// traffic uses GPUDirect RDMA: src GPU -> its PCIe switch -> its NIC ->
// spine -> dst NIC -> dst PCIe switch -> dst GPU. A nil path (src == dst)
// means a local no-op.
func (c *Cluster) PathGPUToGPU(src, dst *GPU) []*fabric.Link {
	if src == dst {
		return nil
	}
	if src.Machine == dst.Machine {
		return []*fabric.Link{src.NVOut, dst.NVIn}
	}
	return []*fabric.Link{
		src.ToSwitch, switchOf(src).NICOut,
		switchOf(dst).NICIn, dst.FromSwitch,
	}
}

// PathGPUToLocalCPU routes a device-to-host copy (e.g. offloading a used
// expert out of the credit buffer).
func (c *Cluster) PathGPUToLocalCPU(src *GPU) []*fabric.Link {
	return []*fabric.Link{src.ToSwitch, switchOf(src).ToCPU}
}

// PathLocalCPUToGPU routes a host-to-device copy (stage 2 of the fetch:
// Cache Manager -> worker).
func (c *Cluster) PathLocalCPUToGPU(dst *GPU) []*fabric.Link {
	return []*fabric.Link{switchOf(dst).FromCPU, dst.FromSwitch}
}

// PathGPUToRemoteCPU routes an expert pull from a remote source GPU into
// this machine's CPU cache (stage 1 of the hierarchical fetch): src GPU
// -> src PCIe switch -> src NIC -> spine -> chosen local NIC -> local
// PCIe switch -> CPU. viaNIC selects which of the destination machine's
// NICs terminates the transfer; the Inter-Node Scheduler stripes experts
// across NICs with it.
func (c *Cluster) PathGPUToRemoteCPU(src *GPU, dst *Machine, viaNIC int) []*fabric.Link {
	dsw := dst.Switches[viaNIC%len(dst.Switches)]
	return []*fabric.Link{
		src.ToSwitch, switchOf(src).NICOut,
		dsw.NICIn, dsw.ToCPU,
	}
}

// PathCPUToRemoteGPU routes a pre-reduced gradient push from this
// machine's CPU back to the expert's owner GPU on a remote machine.
func (c *Cluster) PathCPUToRemoteGPU(src *Machine, viaNIC int, dst *GPU) []*fabric.Link {
	ssw := src.Switches[viaNIC%len(src.Switches)]
	return []*fabric.Link{
		ssw.FromCPU, ssw.NICOut,
		switchOf(dst).NICIn, dst.FromSwitch,
	}
}

// InterNodeEgressBytes returns total bytes sent out of all machines'
// NICs (one direction only, so a transfer is not double-counted).
func (c *Cluster) InterNodeEgressBytes() float64 {
	var sum float64
	for _, m := range c.Machines {
		for _, sw := range m.Switches {
			sum += sw.NICOut.CarriedBytes()
		}
	}
	return sum
}

// MachineEgressBytes returns bytes sent out of one machine's NICs.
func (c *Cluster) MachineEgressBytes(mi int) float64 {
	var sum float64
	for _, sw := range c.Machines[mi].Switches {
		sum += sw.NICOut.CarriedBytes()
	}
	return sum
}

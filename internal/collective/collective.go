// Package collective implements the communication collectives the
// training engines use, as flow programs on the fabric: flat and
// hierarchical All-to-All (the expert-centric dispatch/combine), ring
// AllReduce (data-parallel gradient sync of the dense parameters), and
// broadcast.
//
// All collectives are *synchronous* in the sense the paper criticises:
// the completion callback fires only when every constituent flow has
// finished, so the slowest sender/receiver pins the whole operation.
//
// Flow completions are delivered by simulation events, never
// synchronously from StartFlows, so a collective can safely count its
// flows before any of them finishes.
//
// Every collective admits each wave of flows through one batched
// fabric.StartFlows call, so an n-GPU All-to-All costs the fabric a
// single rate settlement instead of n(n−1).
package collective

import (
	"fmt"
	"strconv"

	"janus/internal/fabric"
	"janus/internal/topology"
)

// joinCounter invokes done after n calls to its method.
type joinCounter struct {
	n    int
	done func()
}

func (j *joinCounter) arrive() {
	j.n--
	if j.n == 0 && j.done != nil {
		j.done()
	}
}

// AllToAll moves sizes[i][j] bytes from gpus[i] to gpus[j] concurrently
// and calls onDone when every transfer has completed. Diagonal entries
// (i == j) are local and free. This is the flat algorithm: one flow per
// (src, dst) pair with nonzero payload, all admitted in one batch.
func AllToAll(c *topology.Cluster, gpus []*topology.GPU, sizes [][]float64, name string, onDone func()) {
	if len(sizes) != len(gpus) {
		panic(fmt.Sprintf("collective: sizes has %d rows for %d gpus", len(sizes), len(gpus)))
	}
	var specs []fabric.FlowSpec
	for i, src := range gpus {
		if len(sizes[i]) != len(gpus) {
			panic(fmt.Sprintf("collective: sizes row %d has %d cols for %d gpus", i, len(sizes[i]), len(gpus)))
		}
		for j, dst := range gpus {
			if i == j || sizes[i][j] <= 0 {
				continue
			}
			specs = append(specs, fabric.FlowSpec{
				Name: name + ":" + src.String() + "->" + dst.String(),
				Size: sizes[i][j], Eff: c.Spec.A2AEfficiency,
				Path: c.PathGPUToGPU(src, dst),
			})
		}
	}
	startWave(c, specs, onDone)
}

// startWave admits specs as one batch, wiring each flow's completion
// into a join that fires onDone once the whole wave has drained. An
// empty wave still completes asynchronously, keeping the contract that
// onDone never fires inside the caller's stack frame.
func startWave(c *topology.Cluster, specs []fabric.FlowSpec, onDone func()) {
	if len(specs) == 0 {
		if onDone != nil {
			c.Engine.After(0, onDone)
		}
		return
	}
	join := &joinCounter{n: len(specs), done: onDone}
	arrive := func(*fabric.Flow) { join.arrive() }
	for i := range specs {
		specs[i].OnComplete = arrive
	}
	c.Net.StartFlows(specs)
}

// HierarchicalAllToAll implements the 2D algorithm Tutel and SE-MoE
// use: (1) intra-node phase — data from GPU (M, r) bound for GPU
// (M', r') is first moved over NVLink to the local GPU with rank r';
// (2) inter-node phase — every GPU exchanges one aggregated flow per
// remote machine with its same-rank counterpart, after which every
// payload is already at its final destination. Total bytes are
// unchanged (the tests assert it), but cross-node flows shrink from
// O((nm)²) to O(n²m) aggregated ones, each at full NIC stripe.
//
// sizes is indexed by global rank, like AllToAll over all cluster GPUs.
func HierarchicalAllToAll(c *topology.Cluster, sizes [][]float64, name string, onDone func()) {
	gpus := c.GPUs()
	m := c.Spec.GPUsPerNode
	if len(sizes) != len(gpus) {
		panic(fmt.Sprintf("collective: sizes has %d rows for %d gpus", len(sizes), len(gpus)))
	}

	intraBytes := make(map[[2]int]float64) // (src, local relay) -> bytes
	interBytes := make(map[[2]int]float64) // (relay, dst) -> bytes
	for i := range gpus {
		for j := range gpus {
			sz := sizes[i][j]
			if sz <= 0 || i == j {
				continue
			}
			srcM, dstM := i/m, j/m
			if srcM == dstM {
				intraBytes[[2]int{i, j}] += sz
				continue
			}
			relay := srcM*m + j%m // local GPU with the destination's rank
			if relay != i {
				intraBytes[[2]int{i, relay}] += sz
			}
			interBytes[[2]int{relay, j}] += sz
		}
	}

	runPhase := func(pairs map[[2]int]float64, phase string, then func()) {
		// Deterministic iteration order over the map.
		keys := make([][2]int, 0, len(pairs))
		for k := range pairs {
			keys = append(keys, k)
		}
		sortPairs(keys)
		specs := make([]fabric.FlowSpec, 0, len(keys))
		for _, k := range keys {
			src, dst := gpus[k[0]], gpus[k[1]]
			specs = append(specs, fabric.FlowSpec{
				Name: name + "." + phase + ":" + src.String() + "->" + dst.String(),
				Size: pairs[k], Eff: c.Spec.A2AEfficiency,
				Path: c.PathGPUToGPU(src, dst),
			})
		}
		startWave(c, specs, then)
	}
	runPhase(intraBytes, "intra", func() {
		runPhase(interBytes, "inter", func() {
			if onDone != nil {
				onDone()
			}
		})
	})
}

func sortPairs(keys [][2]int) {
	// insertion sort: tiny inputs, avoids importing sort for a tuple type
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0; j-- {
			a, b := keys[j-1], keys[j]
			if a[0] < b[0] || (a[0] == b[0] && a[1] <= b[1]) {
				break
			}
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
}

// RingAllReduce reduces bytesPerGPU bytes across the given GPUs with
// the standard ring algorithm: 2·(N−1) steps, each moving bytes/N per
// GPU to its ring successor, with a barrier between steps. onDone fires
// when the last step completes. The ring order is global-rank order,
// which places machine boundaries at exactly n points — the usual
// topology-friendly ring. Each step is one admission batch.
func RingAllReduce(c *topology.Cluster, gpus []*topology.GPU, bytesPerGPU float64, name string, onDone func()) {
	nGPU := len(gpus)
	if nGPU < 2 || bytesPerGPU <= 0 {
		c.Engine.After(0, func() {
			if onDone != nil {
				onDone()
			}
		})
		return
	}
	chunk := bytesPerGPU / float64(nGPU)
	steps := 2 * (nGPU - 1)
	var runStep func(s int)
	runStep = func(s int) {
		if s == steps {
			if onDone != nil {
				onDone()
			}
			return
		}
		specs := make([]fabric.FlowSpec, 0, nGPU)
		for i, src := range gpus {
			dst := gpus[(i+1)%nGPU]
			specs = append(specs, fabric.FlowSpec{
				Name: name + ".step" + strconv.Itoa(s) + ":" + src.String() + "->" + dst.String(),
				Size: chunk, Eff: c.Spec.AllReduceEfficiency,
				Path: c.PathGPUToGPU(src, dst),
			})
		}
		startWave(c, specs, func() { runStep(s + 1) })
	}
	runStep(0)
}

// Broadcast sends size bytes from root to every other listed GPU
// concurrently (the flat algorithm; adequate for the expert-push use).
func Broadcast(c *topology.Cluster, root *topology.GPU, gpus []*topology.GPU, size float64, name string, onDone func()) {
	var specs []fabric.FlowSpec
	if size > 0 {
		for _, dst := range gpus {
			if dst == root {
				continue
			}
			specs = append(specs, fabric.FlowSpec{
				Name: name + ":" + root.String() + "->" + dst.String(),
				Size: size, Eff: c.Spec.PullEfficiency,
				Path: c.PathGPUToGPU(root, dst),
			})
		}
	}
	startWave(c, specs, onDone)
}

package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// trainShape is what differs between the two training workloads; the
// cluster (8 machines x 1 worker, 32 experts, top-2, 16 credits) and
// the schedule (2 microbatches, pipelined, depth 2) are common.
type trainShape struct {
	workload    string
	suffix      string // the shape's tag in per-layer names
	hidden      int
	tokens      int           // per worker
	delay       time.Duration // injected on every socket read and write
	windowSteps int
	// warmSteps per warm-up call. The small shape needs several hundred
	// steps before its step time settles (the first windows of a cold
	// cluster run 30-60 % slow); the large one is steady after a few.
	warmSteps int
}

var (
	trainRTT  = trainShape{workload: "train_rtt", suffix: "rtt", hidden: 16, tokens: 2, delay: 100 * time.Microsecond, windowSteps: 200, warmSteps: 300}
	trainBulk = trainShape{workload: "train_bulk", suffix: "bulk", hidden: 64, tokens: 64, windowSteps: 10, warmSteps: 4}
)

const (
	trainMachines = 8
	trainExperts  = 32
	verifySteps   = 16
)

func (s trainShape) config(seed int64) liveConfig {
	cfg := liveConfig{
		Machines: trainMachines, WorkersPerNode: 1,
		NumExperts: trainExperts, TopK: 2,
		Hidden: s.hidden, TokensPerWorker: s.tokens,
		Seed: seed, Credits: 16,
	}
	if s.delay > 0 {
		inj := newFaultInjector(seed)
		inj.AddRule(faultRule{Fault: fault{Delay: s.delay}})
		cfg.Injector = inj
	}
	return cfg
}

func (s trainShape) options(steps int, pipelined bool) trainOptions {
	return trainOptions{Steps: steps, Microbatches: 2, Pipelined: pipelined, Depth: 2, ReuseOutputs: true}
}

type warmCluster struct {
	cl      *liveCluster
	startMs float64 // StartLiveCluster alone
}

// start brings a cluster up and trains two short calls on it, so
// connections, the static plan and every recycled-buffer pool are warm
// before the first timed window.
func (s trainShape) start(seed int64) (warmCluster, error) {
	t0 := time.Now()
	cl, err := startLiveCluster(s.config(seed))
	if err != nil {
		return warmCluster{}, fmt.Errorf("%s: start: %w", s.workload, err)
	}
	w := warmCluster{cl: cl, startMs: ms(time.Since(t0))}
	for i := 0; i < 2; i++ {
		if _, err := cl.Train(s.options(s.warmSteps, true)); err != nil {
			cl.Close()
			return warmCluster{}, fmt.Errorf("%s: warm-up: %w", s.workload, err)
		}
	}
	return w, nil
}

func runTrain(s trainShape, opts sliceOpts) (sliceOut, error) {
	var out sliceOut
	w, setupS, err := timeSetups(opts.setups,
		func() (warmCluster, error) { return s.start(opts.seed) },
		func(w warmCluster) { w.cl.Close() })
	if err != nil {
		return out, err
	}
	cl := w.cl
	defer cl.Close()
	out.setupS = setupS

	var counts trainCounters
	var steps int64
	var heapBefore heapCounts
	if opts.rec != nil {
		heapBefore = readHeapCounts()
	}
	err = out.timedWindows(opts, func(n int, rec *recorder) (float64, bool) {
		t0 := time.Now()
		res, err := cl.Train(s.options(s.windowSteps, true))
		t1 := time.Now()
		rec.record(0, s.workload, "livecluster", "Train", t0, t1)
		out.attempted += int64(s.windowSteps)
		if err != nil {
			out.failed += int64(s.windowSteps)
			out.gate("%s window %d: %v", s.workload, n, err)
			return 0, false
		}
		c := trainCounts(res)
		if bad := c.degradedSteps + c.droppedGrads; bad > 0 {
			out.failed += min(bad, int64(s.windowSteps))
			out.gate("%s window %d: %d degraded steps, %d dropped gradients", s.workload, n, c.degradedSteps, c.droppedGrads)
		}
		if res.Synced {
			out.gate("%s window %d: the trainer kept the step barrier, so cross-step overlap was not measured", s.workload, n)
		}
		counts = counts.add(c)
		steps += int64(res.Steps)
		return ms(t1.Sub(t0)) / float64(s.windowSteps), true
	})
	if err != nil {
		return out, fmt.Errorf("%s: %w", s.workload, err)
	}
	out.note("%s: windows of %d steps, train_steps_per_s median %.2f", s.workload, s.windowSteps, out.opsPerS)

	if opts.rec != nil {
		heap := readHeapCounts().since(heapBefore)
		per := func(v int64) float64 { return float64(v) / float64(steps) }
		sfx := "." + s.suffix
		out.set("livecluster.step_ms"+sfx, out.opMs)
		out.set("livecluster.version_wait_ms_per_step"+sfx, per(counts.versionWaitNanos)/1e6)
		out.set("livecluster.depth_stall_ms_per_step"+sfx, per(counts.depthStallNanos)/1e6)
		out.set("livecluster.merges_per_step"+sfx, per(counts.merges))
		out.set("livecluster.retries_per_kstep"+sfx, per(counts.retries)*1000)
		out.set("livecluster.allocs_per_step"+sfx, per(int64(heap.mallocs)))
		out.set("livecluster.alloc_kb_per_step"+sfx, per(int64(heap.bytes))/1024)
		if s.suffix == "rtt" {
			out.set("livecluster.start_ms", w.startMs)
		}
		if s.suffix == "bulk" {
			if err := probeCheckpoint(cl, &out); err != nil {
				return out, err
			}
		}
	}
	if opts.verify {
		s.verify(opts.seed, &out)
	}
	return out, nil
}

// verify trains a fresh pipelined cluster and a fresh lockstep twin from
// the same seed and requires bit-identical expert weights, the same
// per-machine count of accepted gradient pushes, no degraded step and no
// dropped gradient.
func (s trainShape) verify(seed int64, out *sliceOut) {
	type twin struct {
		hash  [sha256.Size]byte
		grads []int64
	}
	run := func(pipelined bool) (twin, error) {
		cl, err := startLiveCluster(s.config(seed))
		if err != nil {
			return twin{}, err
		}
		defer cl.Close()
		res, err := cl.Train(s.options(verifySteps, pipelined))
		if err != nil {
			return twin{}, err
		}
		if c := trainCounts(res); c.degradedSteps+c.droppedGrads > 0 {
			return twin{}, fmt.Errorf("%d degraded steps, %d dropped gradients", c.degradedSteps, c.droppedGrads)
		}
		state, err := cl.ExpertState()
		if err != nil {
			return twin{}, err
		}
		h := sha256.New()
		for _, enc := range state {
			h.Write(enc)
		}
		var t twin
		h.Sum(t.hash[:0])
		t.grads = cl.GradsAccepted()
		return t, nil
	}
	out.attempted += 2 * verifySteps
	pipe, err := run(true)
	if err != nil {
		out.failed += verifySteps
		out.gate("%s verify (pipelined): %v", s.workload, err)
		return
	}
	lock, err := run(false)
	if err != nil {
		out.failed += verifySteps
		out.gate("%s verify (lockstep): %v", s.workload, err)
		return
	}
	if pipe.hash != lock.hash {
		out.failed += verifySteps
		out.gate("%s verify: pipelined and lockstep expert weights differ after %d steps", s.workload, verifySteps)
	}
	var total int64
	for m := range pipe.grads {
		if pipe.grads[m] != lock.grads[m] {
			out.failed += verifySteps
			out.gate("%s verify: machine %d accepted %d gradient pushes pipelined, %d lockstep", s.workload, m, pipe.grads[m], lock.grads[m])
			break
		}
		total += pipe.grads[m]
	}
	if total == 0 || total%verifySteps != 0 {
		out.failed += verifySteps
		out.gate("%s verify: %d accepted gradient pushes is not a whole number per step over %d steps", s.workload, total, verifySteps)
	}
}

// probeCheckpoint times the checkpoint layer on the bulk cluster's own
// weights. No workload checkpoints, so these rows move no end-to-end
// metric; they exist so a checkpoint change has a baseline.
func probeCheckpoint(cl *liveCluster, out *sliceOut) error {
	snap := cl.ExportSnapshot(cl.TrainSteps(), 1)
	bytes := len(snap.Dense)
	for _, e := range snap.Experts {
		bytes += len(e)
	}
	mb := float64(bytes) / 1e6
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var probeErr error
	n := 0
	save := probe(300*time.Millisecond, func() {
		// A fresh directory per save: a store keeps only a few versions
		// and a repeated step number would be a no-op or an error.
		n++
		if _, err := saveCheckpoint(filepath.Join(dir, fmt.Sprint(n)), snap); err != nil {
			probeErr = err
		}
	})
	load := probe(300*time.Millisecond, func() {
		got, _, err := loadLatestCheckpoint(filepath.Join(dir, "1"))
		if err != nil {
			probeErr = err
		} else if len(got.Experts) != len(snap.Experts) {
			probeErr = fmt.Errorf("checkpoint: loaded %d experts, saved %d", len(got.Experts), len(snap.Experts))
		}
	})
	stream := probe(300*time.Millisecond, func() {
		if _, err := encodeSnapshotStream(snap); err != nil {
			probeErr = err
		}
	})
	if probeErr != nil {
		return fmt.Errorf("checkpoint probe: %w", probeErr)
	}
	out.set("checkpoint.save_mbps", mb/(save/1e9))
	out.set("checkpoint.load_mbps", mb/(load/1e9))
	out.set("checkpoint.stream_mbps", mb/(stream/1e9))
	return nil
}

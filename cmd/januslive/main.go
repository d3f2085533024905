// Command januslive runs a real (non-simulated) miniature Janus
// deployment on loopback TCP: every "machine" hosts its experts behind
// a pull server, workers execute a real numeric MoE forward pass by
// pulling expert weights through the §6 protocol, and the tool verifies
// the result against the in-process expert-centric reference and
// reports the measured wire traffic against the token-exchange volume.
//
// Fault injection: -kill-machine with -kill-from/-kill-to kills one
// machine's server for a window of steps, and -drop/-delay inject
// probabilistic write loss and latency on every machine. With faults
// enabled the cluster runs in stale-weights degradation mode (§5.1.2)
// and the per-step robustness counters (retries, timeouts, reconnects,
// stale serves, degraded steps) are printed so a fault run is
// observable without a debugger:
//
//	januslive -steps 6 -kill-machine 1 -kill-from 3 -kill-to 5
//
// Permanent loss: -fail-permanent makes the kill irreversible and turns
// on heartbeat membership, checkpointing (-checkpoint-dir,
// -checkpoint-every), and deterministic failover — the dead machine's
// experts are re-homed onto survivors from the last committed
// checkpoint and the run completes bit-identically on every survivor:
//
//	januslive -machines 3 -workers 1 -experts 9 -topk 3 -steps 8 \
//	  -kill-machine 2 -kill-from 3 -fail-permanent -checkpoint-dir /tmp/janus-ckpt
//
// Partition drill: -partition-machine cuts one machine off from the
// rest for the window -partition-from/-partition-to. The majority
// quorum declares it dead and re-homes its experts; the minority
// freezes its dead-man clocks instead of forking ownership. With
// -partition-oneway the cut is asymmetric — the minority's writes still
// arrive — and the membership-epoch fence rejects every one (disable it
// with -no-fencing to watch the split brain it prevents):
//
//	januslive -machines 3 -workers 1 -experts 9 -topk 3 -steps 6 \
//	  -partition-machine 2 -partition-from 2 -partition-to 4 -partition-oneway
//
// Gray failure: -slow-machine/-slow-delay make one machine answer
// slowly without dying. Per-peer EWMA scoring flags it past -slow-after
// and pulls hedge to the freshest local replica after -hedge-delay:
//
//	januslive -steps 4 -slow-machine 1 -slow-delay 20ms \
//	  -slow-after 2ms -hedge-delay 5ms
//
// Elastic membership: -join-machine M admits a brand-new machine into
// the running cluster after step -join-at, seeded through member M —
// no restart, the heartbeat absorbs it within two rounds. -rebalance N
// runs the popularity-weighted rebalancer every N steps, migrating the
// hottest experts onto the least-loaded machines through the fenced
// three-phase handoff (with -train the joined machine hosts migrated
// experts while the weights stay bitwise identical to a static run):
//
//	januslive -machines 3 -workers 1 -experts 9 -topk 3 -train \
//	  -steps 8 -join-machine 0 -join-at 2 -rebalance 4
//
// Synchronous replication: -replicas N keeps N in-sync copies of every
// expert on owner-disjoint machines, streamed at each step barrier.
// Combined with -fail-permanent the kill becomes lossless — failover
// promotes a replica that acked the dead owner's last merged version,
// and the tool fails the run if any staleness leaks through:
//
//	januslive -machines 3 -workers 1 -experts 9 -topk 3 -train \
//	  -steps 8 -replicas 2 -kill-machine 2 -kill-from 4 -fail-permanent
//
// Training: -train switches from the forward-only iteration loop to the
// real trainer (backward pass, pre-reduced gradient pushes, SGD merges
// on the owners). -pipelined streams microbatches through the fetch →
// compute → push stages and overlaps steps where the fault policy
// permits; a pipelined run is re-executed in lockstep on a twin cluster
// and the final weights are compared bitwise:
//
//	januslive -train -pipelined -steps 8 -microbatches 4 -delay 100us
//
// Profiling: -cpuprofile/-memprofile write pprof files for any mode.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"janus"
	"janus/internal/tensor"
)

func main() { os.Exit(run()) }

func run() int {
	machines := flag.Int("machines", 2, "number of machines (TCP servers)")
	workers := flag.Int("workers", 2, "workers per machine")
	experts := flag.Int("experts", 8, "experts in the MoE layer")
	hidden := flag.Int("hidden", 32, "hidden dimension H")
	tokens := flag.Int("tokens", 256, "tokens per worker")
	topk := flag.Int("topk", 2, "gate topK")
	seed := flag.Int64("seed", 42, "weight/token/fault seed")
	steps := flag.Int("steps", 1, "training iterations to run")
	killMachine := flag.Int("kill-machine", -1, "machine whose server to kill (-1 = none)")
	killFrom := flag.Int("kill-from", 0, "first step (1-based) the killed server is down")
	killTo := flag.Int("kill-to", 0, "first step the killed server is back (0 = never)")
	drop := flag.Float64("drop", 0, "per-write drop probability on every machine")
	delay := flag.Duration("delay", 0, "added latency per network op on every machine")
	pullTimeout := flag.Duration("pull-timeout", 500*time.Millisecond, "per-attempt pull/push deadline under faults")
	retries := flag.Int("retries", 3, "attempts per pull/push under faults")
	failPermanent := flag.Bool("fail-permanent", false, "treat the kill as a permanent machine loss: heartbeat membership, dead-man declaration, deterministic failover")
	partMachine := flag.Int("partition-machine", -1, "machine to cut off from every other machine (-1 = none); implies failover membership")
	partFrom := flag.Int("partition-from", 0, "first step (1-based) of the partition window")
	partTo := flag.Int("partition-to", 0, "first step the partition is healed (0 = never)")
	partOneWay := flag.Bool("partition-oneway", false, "asymmetric cut: the partitioned machine's writes still arrive (zombie writer), only responses and inbound traffic are lost")
	noFencing := flag.Bool("no-fencing", false, "disable the membership-epoch fence on the wire (demonstrates the split brain fencing prevents)")
	slowMachine := flag.Int("slow-machine", -1, "machine whose server answers slowly — a gray failure (-1 = none)")
	slowDelay := flag.Duration("slow-delay", 20*time.Millisecond, "added latency per network op on the slow machine")
	slowAfter := flag.Duration("slow-after", 0, "per-peer EWMA latency past which a peer is flagged slow (0 = scoring off)")
	hedgeDelay := flag.Duration("hedge-delay", 0, "hedge an expert pull to the local replica after this delay when the owner is flagged slow (0 = off)")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for crash-consistent checkpoints (failover restores from here)")
	checkpointEvery := flag.Int("checkpoint-every", 1, "checkpoint cadence in steps")
	deadman := flag.Int("deadman", janus.DefaultDeadManSteps, "consecutive missed heartbeat rounds before a machine is declared dead")
	joinSeed := flag.Int("join-machine", -1, "seed member a brand-new machine dials to join the running cluster (-1 = no join); implies failover membership")
	joinAt := flag.Int("join-at", 1, "step (1-based) after which the new machine joins")
	rebalance := flag.Int("rebalance", 0, "run the popularity-weighted expert rebalancer every N steps (0 = off); implies failover membership")
	replicas := flag.Int("replicas", 0, "in-sync replicas per expert, streamed at every step barrier (0 = off); implies failover membership")
	replicateTop := flag.Int("replicate-top", 0, "with -replicas: only replicate the N hottest experts (0 = all)")
	train := flag.Bool("train", false, "run the real trainer (backward + SGD merges) instead of forward-only iterations")
	pipelined := flag.Bool("pipelined", false, "with -train: stream microbatches and overlap steps (verified bitwise against a lockstep twin)")
	microbatches := flag.Int("microbatches", 1, "with -train: contiguous token microbatches per worker batch")
	depth := flag.Int("depth", 0, "with -train -pipelined: cross-step in-flight window (0 = default)")
	lr := flag.Float64("lr", 0, "with -train: SGD learning rate (0 = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *failPermanent && *killMachine < 0 {
		fmt.Fprintln(os.Stderr, "januslive: -fail-permanent needs -kill-machine")
		return 2
	}
	if *failPermanent {
		*killTo = 0 // permanent means the server never comes back
	}
	// A drill aimed past the last machine matches no endpoint label: it
	// would inject nothing and report a clean run.
	if m := max(*killMachine, *partMachine, *slowMachine, *joinSeed); m >= *machines {
		fmt.Fprintf(os.Stderr, "januslive: no machine %d to kill, partition, slow or join through (-machines %d)\n", m, *machines)
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "januslive:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "januslive:", err)
			return 1
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "januslive:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "januslive:", err)
			}
		}()
	}

	faulted := *killMachine >= 0 || *drop > 0 || *delay > 0 || *partMachine >= 0 || *slowMachine >= 0
	// buildCfg returns a fresh config with a fresh injector: injectors
	// are stateful, so the pipelined run and its lockstep twin each get
	// their own.
	buildCfg := func() janus.LiveConfig {
		cfg := janus.LiveConfig{
			Machines: *machines, WorkersPerNode: *workers,
			NumExperts: *experts, TopK: *topk, Hidden: *hidden,
			TokensPerWorker: *tokens, Seed: *seed, Credits: 4,
		}
		if faulted {
			inj := janus.NewFaultInjector(*seed)
			if *killMachine >= 0 {
				inj.Kill(janus.MachineLabel(*killMachine), *killFrom, *killTo)
			}
			if *drop > 0 || *delay > 0 {
				inj.AddRule(janus.FaultRule{Fault: janus.Fault{DropProb: *drop, Delay: *delay}})
			}
			if *partMachine >= 0 {
				for m := 0; m < *machines; m++ {
					if m == *partMachine {
						continue
					}
					if *partOneWay {
						inj.PartitionOneWay(janus.MachineLabel(m), janus.MachineLabel(*partMachine), *partFrom, *partTo)
					} else {
						inj.Partition(janus.MachineLabel(m), janus.MachineLabel(*partMachine), *partFrom, *partTo)
					}
				}
			}
			if *slowMachine >= 0 {
				inj.Slow(janus.MachineLabel(*slowMachine), *slowDelay, 0, 1)
			}
			cfg.Injector = inj
			cfg.StaleFallback = true
			cfg.PullTimeout = *pullTimeout
			cfg.PullRetries = *retries
			cfg.RetryBackoff = 5 * time.Millisecond
		}
		if *failPermanent || *partMachine >= 0 || *joinSeed >= 0 || *rebalance > 0 || *replicas > 0 {
			cfg.FailoverEnabled = true
			cfg.DeadManSteps = *deadman
		}
		cfg.Replicas = *replicas
		cfg.ReplicateTop = *replicateTop
		cfg.FencingDisabled = *noFencing
		cfg.SlowAfter = *slowAfter
		cfg.HedgeDelay = *hedgeDelay
		if *checkpointDir != "" {
			cfg.CheckpointDir = *checkpointDir
			cfg.CheckpointEvery = *checkpointEvery
		}
		return cfg
	}

	fmt.Printf("live cluster: %d machines x %d workers, %d experts (H=%d), %d tokens/worker, topK=%d\n",
		*machines, *workers, *experts, *hidden, *tokens, *topk)
	if faulted {
		fmt.Printf("fault policy: kill-machine=%d window=[%d,%d) drop=%.2f delay=%v (stale-weights fallback on)\n",
			*killMachine, *killFrom, *killTo, *drop, *delay)
	}
	if *partMachine >= 0 {
		dir, fence := "two-way", "on"
		if *partOneWay {
			dir = "one-way (zombie writes arrive)"
		}
		if *noFencing {
			fence = "OFF"
		}
		fmt.Printf("partition: machine %d cut off (%s) window=[%d,%d), epoch fencing %s\n",
			*partMachine, dir, *partFrom, *partTo, fence)
	}
	if *slowMachine >= 0 {
		fmt.Printf("gray failure: machine %d +%v/op, slow-after=%v hedge-delay=%v\n",
			*slowMachine, *slowDelay, *slowAfter, *hedgeDelay)
	}
	if *joinSeed >= 0 || *rebalance > 0 {
		ev := ""
		if *joinSeed >= 0 {
			ev = fmt.Sprintf("machine %d joins live via member %d after step %d", *machines, *joinSeed, *joinAt)
		}
		if *rebalance > 0 {
			if ev != "" {
				ev += "; "
			}
			ev += fmt.Sprintf("rebalance every %d steps", *rebalance)
		}
		fmt.Println("elastic membership:", ev)
	}
	if *replicas > 0 {
		scope := "all experts"
		if *replicateTop > 0 {
			scope = fmt.Sprintf("top %d experts", *replicateTop)
		}
		fmt.Printf("replication: %d in-sync replica(s) per expert (%s), streamed at every step barrier\n",
			*replicas, scope)
	}

	if *train {
		opts := janus.LiveTrainOptions{
			Steps: *steps, Microbatches: *microbatches,
			Pipelined: *pipelined, Depth: *depth, LR: float32(*lr),
			RebalanceEvery: *rebalance,
		}
		if *joinSeed >= 0 {
			opts.JoinAfterStep = *joinAt
			opts.JoinSeed = *joinSeed
		}
		return runTrain(buildCfg, opts, *replicas, *failPermanent)
	}
	return runForward(buildCfg(), *steps, faulted, *failPermanent || *partMachine >= 0, *machines,
		elasticPlan{joinSeed: *joinSeed, joinAt: *joinAt, rebalanceEvery: *rebalance})
}

// elasticPlan is the forward-mode membership-event schedule.
type elasticPlan struct {
	joinSeed, joinAt, rebalanceEvery int
}

func (p elasticPlan) active() bool { return p.joinSeed >= 0 || p.rebalanceEvery > 0 }

// runTrain executes the trainer; a pipelined run is verified bitwise
// against a lockstep twin cluster driven by an identical fault policy.
// With replication armed against a permanent kill, the run is held to
// the lossless bar: a promotion must happen and no staleness may leak.
func runTrain(buildCfg func() janus.LiveConfig, opts janus.LiveTrainOptions, replicas int, failPermanent bool) int {
	cl, err := janus.StartLiveCluster(buildCfg())
	if err != nil {
		fmt.Fprintln(os.Stderr, "januslive:", err)
		return 1
	}
	defer cl.Close()

	mode := "lockstep"
	if opts.Pipelined {
		mode = "pipelined"
	}
	start := time.Now()
	res, err := cl.Train(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "januslive: train:", err)
		return 1
	}
	el := time.Since(start)
	fmt.Printf("train (%s): %d steps x %d microbatches in %.1fms (%.1f steps/sec)\n",
		mode, res.Steps, opts.Microbatches, float64(el.Microseconds())/1e3,
		float64(res.Steps)/el.Seconds())
	if opts.Pipelined && res.Synced {
		fmt.Println("schedule: step-synced (fault policy is not outcome-neutral; cross-step overlap disabled)")
	}
	fmt.Printf("pipeline: %v\n", res.Pipeline)
	if res.DegradedSteps > 0 {
		fmt.Printf("degraded: %d/%d steps (stale=%d max-staleness=%d dropped-grads=%d) alive=%d\n",
			res.DegradedSteps, res.Steps, res.StaleFetches, res.MaxStalenessSteps,
			res.DroppedGrads, res.AliveMachines)
	}
	if opts.JoinAfterStep > 0 || opts.RebalanceEvery > 0 {
		if err := cl.ViewConsistency(); err != nil {
			fmt.Fprintln(os.Stderr, "januslive:", err)
			return 1
		}
		tot := cl.RobustnessTotals()
		fmt.Printf("elastic: %d join(s), %d migration(s), %d rollback(s), epoch %d, owners %v (views consistent)\n",
			tot.Joins, tot.Migrations, tot.MigrationRollbacks, cl.Epoch(), cl.OwnerView())
	}
	if replicas > 0 {
		if err := cl.ViewConsistency(); err != nil {
			fmt.Fprintln(os.Stderr, "januslive:", err)
			return 1
		}
		tot := cl.RobustnessTotals()
		fmt.Printf("replication: %d stream(s), %d failure(s), %d promotion(s), %d repair(s), %d retarget(s), %d in-sync hedge(s)\n",
			tot.ReplPushes, tot.ReplFailures, tot.Promotions, tot.ReplRepairs, tot.ReplRetargets, tot.InSyncHedges)
		if failPermanent {
			// The lossless bar: the kill must have promoted an in-sync
			// replica and the run must show zero staleness end to end.
			if tot.Promotions == 0 {
				fmt.Fprintln(os.Stderr, "januslive: permanent kill with replication armed promoted no replica")
				return 1
			}
			if res.MaxStalenessSteps != 0 || res.StaleFetches != 0 {
				fmt.Fprintf(os.Stderr, "januslive: replicated failover leaked staleness (max=%d fetches=%d)\n",
					res.MaxStalenessSteps, res.StaleFetches)
				return 1
			}
			fmt.Println("OK: lossless failover — in-sync replica promoted, zero staleness")
		}
	}

	if !opts.Pipelined {
		return 0
	}
	// Bit-identity check: replay the identical schedule in lockstep on
	// a twin cluster and compare every expert's final weights. The twin
	// must not share -checkpoint-dir: it would restore from the first
	// run's (newer) checkpoints on failover instead of its own.
	tcfg := buildCfg()
	if tcfg.CheckpointDir != "" {
		dir, err := os.MkdirTemp("", "januslive-twin-ckpt-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "januslive: twin:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		tcfg.CheckpointDir = dir
	}
	twin, err := janus.StartLiveCluster(tcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "januslive: twin:", err)
		return 1
	}
	defer twin.Close()
	lockOpts := opts
	lockOpts.Pipelined = false
	if _, err := twin.Train(lockOpts); err != nil {
		fmt.Fprintln(os.Stderr, "januslive: twin train:", err)
		return 1
	}
	got, err := cl.ExpertState()
	if err != nil {
		fmt.Fprintln(os.Stderr, "januslive:", err)
		return 1
	}
	want, err := twin.ExpertState()
	if err != nil {
		fmt.Fprintln(os.Stderr, "januslive:", err)
		return 1
	}
	for e := range got {
		if !bytes.Equal(got[e], want[e]) {
			fmt.Fprintf(os.Stderr, "januslive: expert %d weights diverged from the lockstep twin\n", e)
			return 1
		}
	}
	fmt.Printf("OK: pipelined weights bit-identical to the lockstep twin (%d experts)\n", len(got))
	return 0
}

func runForward(cfg janus.LiveConfig, steps int, faulted, failPermanent bool, machines int, plan elasticPlan) int {
	cl, err := janus.StartLiveCluster(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "januslive:", err)
		return 1
	}
	defer cl.Close()

	ref := cl.RunExpertCentricReference()
	var last janus.LiveResult
	degradedTotal := 0
	for s := 1; s <= steps; s++ {
		start := time.Now()
		res, err := cl.RunDataCentric()
		if err != nil {
			fmt.Fprintf(os.Stderr, "januslive: step %d: %v\n", s, err)
			return 1
		}
		if plan.joinSeed >= 0 && s == plan.joinAt {
			j, err := cl.Join(plan.joinSeed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "januslive: join after step %d: %v\n", s, err)
				return 1
			}
			fmt.Printf("step %2d: machine %d joined live via member %d\n", s, j, plan.joinSeed)
		}
		if plan.rebalanceEvery > 0 && s%plan.rebalanceEvery == 0 {
			n, err := cl.Rebalance(1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "januslive: rebalance after step %d: %v\n", s, err)
				return 1
			}
			if n > 0 {
				fmt.Printf("step %2d: rebalanced %d expert(s), owners now %v\n", s, n, cl.OwnerView())
			}
		}
		if plan.active() {
			if err := cl.ViewConsistency(); err != nil {
				fmt.Fprintln(os.Stderr, "januslive:", err)
				return 1
			}
		}
		last = res
		degradedTotal += res.DegradedSteps
		if steps > 1 || faulted {
			mode := "ok"
			if res.Degraded() {
				mode = fmt.Sprintf("DEGRADED (stale=%d max-staleness=%d dropped-grads=%d)",
					res.StaleFetches, res.MaxStalenessSteps, res.DroppedGrads)
			}
			alive := ""
			if failPermanent {
				alive = fmt.Sprintf("  alive=%d/%d", res.AliveMachines, machines)
				if res.PartitionedMachines > 0 {
					alive += fmt.Sprintf(" parted=%d", res.PartitionedMachines)
				}
			}
			fmt.Printf("step %2d: %6.1fms  %s%s  [%v]\n",
				s, float64(time.Since(start).Microseconds())/1e3, mode, alive, res.Robust)
		}
	}

	// A permanently dead machine's workers compute nothing: their output
	// slots are nil and only survivors are compared.
	maxDiff, survivors := 0.0, 0
	for w := range ref {
		if last.Outputs[w] == nil {
			continue
		}
		survivors++
		if d := tensor.MaxAbsDiff(last.Outputs[w], ref[w]); d > maxDiff {
			maxDiff = d
		}
	}
	tokenBytes := cl.TokenExchangeBytes()
	fmt.Printf("paradigm equivalence:   max |Δ| vs expert-centric reference = %g\n", maxDiff)
	fmt.Printf("expert pulls served:    %d (single flight per machine)\n", last.PullsServed)
	fmt.Printf("cross-machine traffic:  data-centric %d bytes, token exchange would be %d bytes",
		last.CrossMachineBytes, tokenBytes)
	if last.CrossMachineBytes > 0 {
		fmt.Printf("  (%.1fx reduction)", float64(tokenBytes)/float64(last.CrossMachineBytes))
	}
	fmt.Println()
	if faulted || degradedTotal > 0 {
		fmt.Printf("robustness:             %d/%d steps degraded; cumulative %v\n",
			degradedTotal, steps, cl.RobustnessTotals())
	}
	if failPermanent {
		fmt.Printf("membership:             %d/%d machines alive after the run\n",
			last.AliveMachines, machines)
	}
	if plan.active() {
		tot := cl.RobustnessTotals()
		fmt.Printf("elastic:                %d join(s), %d migration(s), %d rollback(s), epoch %d, owners %v (views consistent)\n",
			tot.Joins, tot.Migrations, tot.MigrationRollbacks, cl.Epoch(), cl.OwnerView())
	}
	if cfg.Replicas > 0 {
		if err := cl.ViewConsistency(); err != nil {
			fmt.Fprintln(os.Stderr, "januslive:", err)
			return 1
		}
		tot := cl.RobustnessTotals()
		fmt.Printf("replication:            %d stream(s), %d failure(s), %d promotion(s), %d repair(s), %d in-sync hedge(s)\n",
			tot.ReplPushes, tot.ReplFailures, tot.Promotions, tot.ReplRepairs, tot.InSyncHedges)
	}
	if maxDiff != 0 {
		fmt.Fprintln(os.Stderr, "januslive: outputs differ from reference")
		return 1
	}
	if survivors < len(ref) {
		fmt.Printf("OK: all %d surviving workers bit-identical to the reference (failed machine's workers excluded)\n", survivors)
		return 0
	}
	fmt.Println("OK: data-centric execution over real sockets is bit-identical to the reference")
	return 0
}

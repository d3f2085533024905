// Command januslive runs a real (non-simulated) miniature Janus
// deployment on loopback TCP and trains it: every "machine" hosts its
// experts behind a pull server, and each step pulls every external
// expert once per machine through the §6 protocol, runs a real numeric
// MoE forward and backward pass, pushes one pre-reduced gradient per
// expert back to its owner, and merges SGD updates there. The tool
// reports the measured wire traffic against the token-exchange volume
// of an expert-centric training step; a one-step run (the default) is
// also verified bitwise against the in-process expert-centric reference.
//
// The default schedule is lockstep. -pipelined streams microbatches
// through the fetch → compute → push stages and overlaps steps where the
// fault policy permits; a pipelined run is re-executed in lockstep on a
// twin cluster and the final weights are compared bitwise:
//
//	januslive -pipelined -steps 8 -microbatches 4 -delay 100us
//
// Fault injection: -kill-machine with -kill-from/-kill-to kills one
// machine's server for a window of steps, and -drop/-delay inject
// probabilistic write loss and latency on every machine. With faults
// enabled the cluster trains in stale-weights degradation mode (§5.1.2):
// pulls from an unreachable owner serve the last cached copy and its
// pushes are dropped, the degraded steps and robustness counters
// (retries, timeouts, reconnects, stale serves) are printed, and the
// steps after the window run undegraded again:
//
//	januslive -steps 6 -kill-machine 1 -kill-from 3 -kill-to 5
//
// Permanent loss: -fail-permanent makes the kill irreversible and turns
// on heartbeat membership, checkpointing (-checkpoint-dir,
// -checkpoint-every), and deterministic failover — the dead machine's
// experts are re-homed onto survivors from the last committed
// checkpoint and training continues on the survivors:
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
// slowly without dying. Per-peer EWMA scoring flags it past -slow-after,
// and a pipelined run shrinks its cross-step window instead of stalling
// deeper behind it:
//
//	januslive -pipelined -steps 4 -slow-machine 1 -slow-delay 20ms -slow-after 2ms
//
// Elastic membership: -join-machine M admits a brand-new machine into
// the running cluster after step -join-at, seeded through member M —
// no restart, the heartbeat absorbs it within two rounds. -rebalance N
// runs the popularity-weighted rebalancer every N steps, migrating the
// hottest experts onto the least-loaded machines through the fenced
// three-phase handoff; the joined machine hosts migrated experts while
// the weights stay bitwise identical to a static run:
//
//	januslive -machines 3 -workers 1 -experts 9 -topk 3 \
//	  -steps 8 -join-machine 0 -join-at 2 -rebalance 4
//
// Synchronous replication: -replicas N keeps N in-sync copies of every
// expert on owner-disjoint machines, streamed at each step barrier.
// Combined with -fail-permanent the kill becomes lossless — failover
// promotes a replica that acked the dead owner's last merged version,
// and the tool fails the run if any staleness leaks through:
//
//	januslive -machines 3 -workers 1 -experts 9 -topk 3 \
//	  -steps 8 -replicas 2 -kill-machine 2 -kill-from 4 -fail-permanent
//
// Profiling: -cpuprofile/-memprofile write pprof files.
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
	steps := flag.Int("steps", 1, "training steps to run")
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
	checkpointDir := flag.String("checkpoint-dir", "", "directory for crash-consistent checkpoints (failover restores from here)")
	checkpointEvery := flag.Int("checkpoint-every", 1, "checkpoint cadence in steps")
	deadman := flag.Int("deadman", janus.DefaultDeadManSteps, "consecutive missed heartbeat rounds before a machine is declared dead")
	joinSeed := flag.Int("join-machine", -1, "seed member a brand-new machine dials to join the running cluster (-1 = no join); implies failover membership")
	joinAt := flag.Int("join-at", 1, "step (1-based) after which the new machine joins")
	rebalance := flag.Int("rebalance", 0, "run the popularity-weighted expert rebalancer every N steps (0 = off); implies failover membership")
	replicas := flag.Int("replicas", 0, "in-sync replicas per expert, streamed at every step barrier (0 = off); implies failover membership")
	replicateTop := flag.Int("replicate-top", 0, "with -replicas: only replicate the N hottest experts (0 = all)")
	pipelined := flag.Bool("pipelined", false, "stream microbatches and overlap steps (verified bitwise against a lockstep twin)")
	microbatches := flag.Int("microbatches", 1, "contiguous token microbatches per worker batch")
	depth := flag.Int("depth", 0, "with -pipelined: cross-step in-flight window (0 = default)")
	lr := flag.Float64("lr", 0, "SGD learning rate (0 = default)")
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
		fmt.Printf("gray failure: machine %d +%v/op, slow-after=%v\n",
			*slowMachine, *slowDelay, *slowAfter)
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

	opts := janus.LiveTrainOptions{
		Steps: *steps, Microbatches: *microbatches,
		Pipelined: *pipelined, Depth: *depth, LR: float32(*lr),
		RebalanceEvery: *rebalance,
	}
	if *joinSeed >= 0 {
		opts.JoinAfterStep = *joinAt
		opts.JoinSeed = *joinSeed
	}
	return runTrain(buildCfg, opts, *replicas, *failPermanent, faulted)
}

// runTrain executes the trainer. A one-step run is verified bitwise
// against the expert-centric reference (the step computes on untouched
// weights); a pipelined run is verified bitwise against a lockstep twin
// cluster driven by an identical fault policy. With replication armed
// against a permanent kill, the run is held to the lossless bar: a
// promotion must happen and no staleness may leak.
func runTrain(buildCfg func() janus.LiveConfig, opts janus.LiveTrainOptions, replicas int, failPermanent, faulted bool) int {
	cfg := buildCfg()
	cl, err := janus.StartLiveCluster(cfg)
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
	if faulted || res.DegradedSteps > 0 {
		fmt.Printf("robustness: %d/%d steps degraded (stale=%d max-staleness=%d dropped-grads=%d); cumulative %v\n",
			res.DegradedSteps, res.Steps, res.StaleFetches, res.MaxStalenessSteps,
			res.DroppedGrads, cl.RobustnessTotals())
	}
	if cfg.FailoverEnabled {
		fmt.Printf("membership: %d machine(s) alive, %d partitioned after the run (%d at start)\n",
			res.AliveMachines, res.PartitionedMachines, cfg.Machines)
	}
	tokenBytes := cl.TokenExchangeBytes() * int64(res.Steps)
	fmt.Printf("cross-machine traffic: data-centric %d bytes, expert-centric token exchange would be %d bytes",
		res.CrossMachineBytes, tokenBytes)
	if res.CrossMachineBytes > 0 {
		fmt.Printf(" (%.1fx reduction)", float64(tokenBytes)/float64(res.CrossMachineBytes))
	}
	fmt.Println()
	if res.Steps == 1 {
		// A dead machine's workers compute nothing: their output slots
		// are nil and only survivors are compared.
		ref := cl.RunExpertCentricReference()
		maxDiff := 0.0
		for w, out := range res.FinalOutputs {
			if out != nil {
				maxDiff = max(maxDiff, tensor.MaxAbsDiff(out, ref[w]))
			}
		}
		fmt.Printf("paradigm equivalence: step-1 max |Δ| vs expert-centric reference = %g\n", maxDiff)
		if maxDiff != 0 {
			fmt.Fprintln(os.Stderr, "januslive: step-1 outputs differ from the reference")
			return 1
		}
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
		fmt.Printf("replication: %d stream(s), %d failure(s), %d promotion(s), %d repair(s), %d retarget(s)\n",
			tot.ReplPushes, tot.ReplFailures, tot.Promotions, tot.ReplRepairs, tot.ReplRetargets)
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

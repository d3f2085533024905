// Package metrics aggregates measurements: traffic by link class,
// distribution summaries, and the live plane's counters.
package metrics

import (
	"fmt"
	"sort"
	"sync/atomic"

	"janus/internal/fabric"
)

// TrafficByClass sums carried bytes over links grouped by their class
// label ("nvlink", "nic", "pcie-gpu", "pcie-host").
func TrafficByClass(links []*fabric.Link) map[string]float64 {
	out := make(map[string]float64)
	for _, l := range links {
		out[l.Class()] += l.CarriedBytes()
	}
	return out
}

// Summary describes a sample distribution.
type Summary struct {
	N              int
	Mean, Min, Max float64
	P50, P90, P99  float64
	Sum            float64
}

// Summarize computes a Summary; an empty input returns the zero value.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	q := func(p float64) float64 {
		idx := int(p * float64(len(s)-1))
		return s[idx]
	}
	return Summary{
		N: len(s), Mean: sum / float64(len(s)),
		Min: s[0], Max: s[len(s)-1],
		P50: q(0.50), P90: q(0.90), P99: q(0.99),
		Sum: sum,
	}
}

// Robustness counts fault-tolerance events on a live transport path:
// retried requests, per-attempt deadline expiries, re-established peer
// connections, deduplicated gradient retransmits, experts served from a
// stale local cache, and iterations that completed in degraded mode.
// The zero value is ready to use; all methods are safe for concurrent
// use.
type Robustness struct {
	retries       atomic.Int64
	timeouts      atomic.Int64
	reconnects    atomic.Int64
	gradDups      atomic.Int64
	staleServes   atomic.Int64
	degradedSteps atomic.Int64

	// Permanent-failure counters: membership transitions, experts
	// re-homed to a survivor, checkpoint saves (with volume and
	// latency), and restores from a checkpoint during failover.
	failovers       atomic.Int64
	rehomedExperts  atomic.Int64
	restores        atomic.Int64
	checkpoints     atomic.Int64
	checkpointBytes atomic.Int64
	checkpointNanos atomic.Int64

	// Partition counters: requests rejected by epoch fencing, and
	// heartbeat rounds a machine froze for lack of quorum.
	fenceRejections atomic.Int64
	quorumStalls    atomic.Int64

	// Elastic-membership counters: machines admitted into a running
	// cluster, experts whose ownership moved through a completed live
	// migration, and migrations that were interrupted and rolled back to
	// the old owner.
	joins              atomic.Int64
	migrations         atomic.Int64
	migrationRollbacks atomic.Int64

	// Replication counters: versioned weight streams acked by replicas,
	// streams that could not be delivered (the replica lags until the
	// next sync or anti-entropy sweep), in-sync replicas promoted to
	// owner on failover, versioned pulls served from an in-sync replica
	// with zero staleness, replicas re-streamed by the anti-entropy
	// sweep, and replica-set membership retargets (migration FENCE
	// substitutions and sweep top-ups).
	replPushes    atomic.Int64
	replFailures  atomic.Int64
	promotions    atomic.Int64
	replicaServes atomic.Int64
	replRepairs   atomic.Int64
	replRetargets atomic.Int64
}

// AddRetry records one retried request attempt.
func (r *Robustness) AddRetry() { r.retries.Add(1) }

// AddTimeout records one per-attempt deadline expiry.
func (r *Robustness) AddTimeout() { r.timeouts.Add(1) }

// AddReconnect records one re-dial of a previously connected peer.
func (r *Robustness) AddReconnect() { r.reconnects.Add(1) }

// AddStaleServe records one expert served from a stale local cache.
func (r *Robustness) AddStaleServe() { r.staleServes.Add(1) }

// AddFailover records one machine declared permanently dead and its
// experts re-homed.
func (r *Robustness) AddFailover() { r.failovers.Add(1) }

// AddRehomedExperts records n experts whose ownership moved to another
// machine (during failover or a rejoin reclaim).
func (r *Robustness) AddRehomedExperts(n int64) { r.rehomedExperts.Add(n) }

// AddRestore records one expert's weights reloaded from a checkpoint.
func (r *Robustness) AddRestore() { r.restores.Add(1) }

// AddCheckpoint records one committed checkpoint with its payload
// bytes and wall-clock save latency.
func (r *Robustness) AddCheckpoint(bytes int64, elapsedNanos int64) {
	r.checkpoints.Add(1)
	r.checkpointBytes.Add(bytes)
	r.checkpointNanos.Add(elapsedNanos)
}

// AddQuorumStall records one heartbeat round in which a machine could
// not reach a majority and froze its membership transitions.
func (r *Robustness) AddQuorumStall() { r.quorumStalls.Add(1) }

// AddJoin records one machine admitted into the running cluster.
func (r *Robustness) AddJoin() { r.joins.Add(1) }

// AddMigration records one expert ownership handoff completed live.
func (r *Robustness) AddMigration() { r.migrations.Add(1) }

// AddMigrationRollback records one interrupted migration rolled back
// to the (still fenced-off) old owner.
func (r *Robustness) AddMigrationRollback() { r.migrationRollbacks.Add(1) }

// AddReplPush records one versioned weight stream acked by a replica.
func (r *Robustness) AddReplPush() { r.replPushes.Add(1) }

// AddReplFailure records one replica stream that could not be
// delivered; the replica lags until a later sync repairs it.
func (r *Robustness) AddReplFailure() { r.replFailures.Add(1) }

// AddPromotion records one in-sync replica promoted to owner during
// failover — a lossless recovery, no staleness accounted.
func (r *Robustness) AddPromotion() { r.promotions.Add(1) }

// AddReplicaServe records one versioned pull served from an in-sync
// replica at exactly the requested version (not counted stale).
func (r *Robustness) AddReplicaServe() { r.replicaServes.Add(1) }

// AddReplRepair records one replica re-streamed by the anti-entropy
// sweep because its version digest diverged from the owner's.
func (r *Robustness) AddReplRepair() { r.replRepairs.Add(1) }

// AddReplRetarget records one replica-set membership fix: a migration
// FENCE substituting the new owner out of the set, or the anti-entropy
// sweep replacing a dead or promoted replica holder.
func (r *Robustness) AddReplRetarget() { r.replRetargets.Add(1) }

// Snapshot returns a point-in-time copy of the counters.
func (r *Robustness) Snapshot() RobustnessSnapshot {
	return RobustnessSnapshot{
		Retries:         r.retries.Load(),
		Timeouts:        r.timeouts.Load(),
		Reconnects:      r.reconnects.Load(),
		GradDups:        r.gradDups.Load(),
		StaleServes:     r.staleServes.Load(),
		DegradedSteps:   r.degradedSteps.Load(),
		Failovers:       r.failovers.Load(),
		RehomedExperts:  r.rehomedExperts.Load(),
		Restores:        r.restores.Load(),
		Checkpoints:     r.checkpoints.Load(),
		CheckpointBytes: r.checkpointBytes.Load(),
		CheckpointNanos: r.checkpointNanos.Load(),
		FenceRejections: r.fenceRejections.Load(),
		QuorumStalls:    r.quorumStalls.Load(),

		Joins:              r.joins.Load(),
		Migrations:         r.migrations.Load(),
		MigrationRollbacks: r.migrationRollbacks.Load(),

		ReplPushes:    r.replPushes.Load(),
		ReplFailures:  r.replFailures.Load(),
		Promotions:    r.promotions.Load(),
		ReplicaServes: r.replicaServes.Load(),
		ReplRepairs:   r.replRepairs.Load(),
		ReplRetargets: r.replRetargets.Load(),
	}
}

// RobustnessSnapshot is an immutable view of a Robustness counter set.
type RobustnessSnapshot struct {
	Retries       int64
	Timeouts      int64
	Reconnects    int64
	GradDups      int64
	StaleServes   int64
	DegradedSteps int64

	Failovers       int64
	RehomedExperts  int64
	Restores        int64
	Checkpoints     int64
	CheckpointBytes int64
	CheckpointNanos int64

	FenceRejections int64
	QuorumStalls    int64

	Joins              int64
	Migrations         int64
	MigrationRollbacks int64

	ReplPushes    int64
	ReplFailures  int64
	Promotions    int64
	ReplicaServes int64
	ReplRepairs   int64
	ReplRetargets int64
}

// Sub returns the event counts accumulated since an earlier snapshot.
func (s RobustnessSnapshot) Sub(earlier RobustnessSnapshot) RobustnessSnapshot {
	return RobustnessSnapshot{
		Retries:         s.Retries - earlier.Retries,
		Timeouts:        s.Timeouts - earlier.Timeouts,
		Reconnects:      s.Reconnects - earlier.Reconnects,
		GradDups:        s.GradDups - earlier.GradDups,
		StaleServes:     s.StaleServes - earlier.StaleServes,
		DegradedSteps:   s.DegradedSteps - earlier.DegradedSteps,
		Failovers:       s.Failovers - earlier.Failovers,
		RehomedExperts:  s.RehomedExperts - earlier.RehomedExperts,
		Restores:        s.Restores - earlier.Restores,
		Checkpoints:     s.Checkpoints - earlier.Checkpoints,
		CheckpointBytes: s.CheckpointBytes - earlier.CheckpointBytes,
		CheckpointNanos: s.CheckpointNanos - earlier.CheckpointNanos,
		FenceRejections: s.FenceRejections - earlier.FenceRejections,
		QuorumStalls:    s.QuorumStalls - earlier.QuorumStalls,

		Joins:              s.Joins - earlier.Joins,
		Migrations:         s.Migrations - earlier.Migrations,
		MigrationRollbacks: s.MigrationRollbacks - earlier.MigrationRollbacks,

		ReplPushes:    s.ReplPushes - earlier.ReplPushes,
		ReplFailures:  s.ReplFailures - earlier.ReplFailures,
		Promotions:    s.Promotions - earlier.Promotions,
		ReplicaServes: s.ReplicaServes - earlier.ReplicaServes,
		ReplRepairs:   s.ReplRepairs - earlier.ReplRepairs,
		ReplRetargets: s.ReplRetargets - earlier.ReplRetargets,
	}
}

// Add returns the element-wise sum of two snapshots.
func (s RobustnessSnapshot) Add(o RobustnessSnapshot) RobustnessSnapshot {
	return RobustnessSnapshot{
		Retries:         s.Retries + o.Retries,
		Timeouts:        s.Timeouts + o.Timeouts,
		Reconnects:      s.Reconnects + o.Reconnects,
		GradDups:        s.GradDups + o.GradDups,
		StaleServes:     s.StaleServes + o.StaleServes,
		DegradedSteps:   s.DegradedSteps + o.DegradedSteps,
		Failovers:       s.Failovers + o.Failovers,
		RehomedExperts:  s.RehomedExperts + o.RehomedExperts,
		Restores:        s.Restores + o.Restores,
		Checkpoints:     s.Checkpoints + o.Checkpoints,
		CheckpointBytes: s.CheckpointBytes + o.CheckpointBytes,
		CheckpointNanos: s.CheckpointNanos + o.CheckpointNanos,
		FenceRejections: s.FenceRejections + o.FenceRejections,
		QuorumStalls:    s.QuorumStalls + o.QuorumStalls,

		Joins:              s.Joins + o.Joins,
		Migrations:         s.Migrations + o.Migrations,
		MigrationRollbacks: s.MigrationRollbacks + o.MigrationRollbacks,

		ReplPushes:    s.ReplPushes + o.ReplPushes,
		ReplFailures:  s.ReplFailures + o.ReplFailures,
		Promotions:    s.Promotions + o.Promotions,
		ReplicaServes: s.ReplicaServes + o.ReplicaServes,
		ReplRepairs:   s.ReplRepairs + o.ReplRepairs,
		ReplRetargets: s.ReplRetargets + o.ReplRetargets,
	}
}

// IsZero reports whether no robustness events were recorded.
func (s RobustnessSnapshot) IsZero() bool { return s == RobustnessSnapshot{} }

func (s RobustnessSnapshot) String() string {
	base := fmt.Sprintf("retries=%d timeouts=%d reconnects=%d grad-dups=%d stale-serves=%d degraded-steps=%d",
		s.Retries, s.Timeouts, s.Reconnects, s.GradDups, s.StaleServes, s.DegradedSteps)
	if s.Failovers != 0 || s.RehomedExperts != 0 || s.Restores != 0 || s.Checkpoints != 0 {
		base += fmt.Sprintf(" failovers=%d rehomed=%d restores=%d checkpoints=%d ckpt-bytes=%d ckpt-ms=%.1f",
			s.Failovers, s.RehomedExperts, s.Restores, s.Checkpoints,
			s.CheckpointBytes, float64(s.CheckpointNanos)/1e6)
	}
	if s.FenceRejections != 0 || s.QuorumStalls != 0 {
		base += fmt.Sprintf(" fence-rejections=%d quorum-stalls=%d", s.FenceRejections, s.QuorumStalls)
	}
	if s.Joins != 0 || s.Migrations != 0 || s.MigrationRollbacks != 0 {
		base += fmt.Sprintf(" joins=%d migrations=%d migration-rollbacks=%d",
			s.Joins, s.Migrations, s.MigrationRollbacks)
	}
	if s.ReplPushes != 0 || s.ReplFailures != 0 || s.Promotions != 0 || s.ReplicaServes != 0 ||
		s.ReplRepairs != 0 || s.ReplRetargets != 0 {
		base += fmt.Sprintf(" repl-pushes=%d repl-failures=%d promotions=%d replica-serves=%d repl-repairs=%d repl-retargets=%d",
			s.ReplPushes, s.ReplFailures, s.Promotions, s.ReplicaServes, s.ReplRepairs, s.ReplRetargets)
	}
	return base
}

// Pipeline counts live-cluster training-pipeline events: microbatches
// executed, stalls on the bounded cross-step window (with time spent),
// pulls blocked waiting for an expert version to be published (with
// time spent), and gradient merges by trigger (count-complete vs. step
// flush). The zero value is ready to use; all methods are safe for
// concurrent use.
type Pipeline struct {
	microbatches     atomic.Int64
	depthStalls      atomic.Int64
	depthStallNanos  atomic.Int64
	versionWaits     atomic.Int64
	versionWaitNanos atomic.Int64
	merges           atomic.Int64
	flushes          atomic.Int64
	depthShrinks     atomic.Int64
}

// AddMicrobatches records n executed pieces at once. The trainer batches
// its per-piece counts into one add per (machine, step) so the hot loop
// does not contend on this cache line once per microbatch.
func (p *Pipeline) AddMicrobatches(n int64) { p.microbatches.Add(n) }

// AddDepthStall records one wait on the bounded in-flight step window.
func (p *Pipeline) AddDepthStall(nanos int64) {
	p.depthStalls.Add(1)
	p.depthStallNanos.Add(nanos)
}

// AddVersionWait records one pull that blocked until the requested
// expert version was published.
func (p *Pipeline) AddVersionWait(nanos int64) {
	p.versionWaits.Add(1)
	p.versionWaitNanos.Add(nanos)
}

// AddMerge records one gradient merge applied because every expected
// contribution arrived (the overlap pipeline's trigger).
func (p *Pipeline) AddMerge() { p.merges.Add(1) }

// AddFlush records one gradient merge applied at a step barrier (the
// lockstep / step-synced trigger, which folds whatever arrived).
func (p *Pipeline) AddFlush() { p.flushes.Add(1) }

// AddDepthShrink records one overlap step that ran with a reduced
// in-flight window because a peer was flagged slow (gray failure).
func (p *Pipeline) AddDepthShrink() { p.depthShrinks.Add(1) }

// Snapshot returns a point-in-time copy of the counters.
func (p *Pipeline) Snapshot() PipelineSnapshot {
	return PipelineSnapshot{
		Microbatches:     p.microbatches.Load(),
		DepthStalls:      p.depthStalls.Load(),
		DepthStallNanos:  p.depthStallNanos.Load(),
		VersionWaits:     p.versionWaits.Load(),
		VersionWaitNanos: p.versionWaitNanos.Load(),
		Merges:           p.merges.Load(),
		Flushes:          p.flushes.Load(),
		DepthShrinks:     p.depthShrinks.Load(),
	}
}

// PipelineSnapshot is an immutable view of a Pipeline counter set.
type PipelineSnapshot struct {
	Microbatches     int64
	DepthStalls      int64
	DepthStallNanos  int64
	VersionWaits     int64
	VersionWaitNanos int64
	Merges           int64
	Flushes          int64
	DepthShrinks     int64
}

// Sub returns the event counts accumulated since an earlier snapshot.
func (s PipelineSnapshot) Sub(earlier PipelineSnapshot) PipelineSnapshot {
	return PipelineSnapshot{
		Microbatches:     s.Microbatches - earlier.Microbatches,
		DepthStalls:      s.DepthStalls - earlier.DepthStalls,
		DepthStallNanos:  s.DepthStallNanos - earlier.DepthStallNanos,
		VersionWaits:     s.VersionWaits - earlier.VersionWaits,
		VersionWaitNanos: s.VersionWaitNanos - earlier.VersionWaitNanos,
		Merges:           s.Merges - earlier.Merges,
		Flushes:          s.Flushes - earlier.Flushes,
		DepthShrinks:     s.DepthShrinks - earlier.DepthShrinks,
	}
}

// Add returns the element-wise sum of two snapshots.
func (s PipelineSnapshot) Add(o PipelineSnapshot) PipelineSnapshot {
	return PipelineSnapshot{
		Microbatches:     s.Microbatches + o.Microbatches,
		DepthStalls:      s.DepthStalls + o.DepthStalls,
		DepthStallNanos:  s.DepthStallNanos + o.DepthStallNanos,
		VersionWaits:     s.VersionWaits + o.VersionWaits,
		VersionWaitNanos: s.VersionWaitNanos + o.VersionWaitNanos,
		Merges:           s.Merges + o.Merges,
		Flushes:          s.Flushes + o.Flushes,
		DepthShrinks:     s.DepthShrinks + o.DepthShrinks,
	}
}

// IsZero reports whether no pipeline events were recorded.
func (s PipelineSnapshot) IsZero() bool { return s == PipelineSnapshot{} }

func (s PipelineSnapshot) String() string {
	return fmt.Sprintf("microbatches=%d depth-stalls=%d depth-stall-ms=%.1f version-waits=%d version-wait-ms=%.1f merges=%d flushes=%d depth-shrinks=%d",
		s.Microbatches, s.DepthStalls, float64(s.DepthStallNanos)/1e6,
		s.VersionWaits, float64(s.VersionWaitNanos)/1e6, s.Merges, s.Flushes, s.DepthShrinks)
}

// ExpertLoad accumulates per-expert routing popularity: how many
// tokens the gating function sent to each expert. The rebalancer
// samples it to decide which hot experts to migrate off overloaded
// machines. Safe for concurrent use.
type ExpertLoad struct {
	counts []atomic.Int64
}

// NewExpertLoad returns a load sampler for n experts.
func NewExpertLoad(n int) *ExpertLoad {
	return &ExpertLoad{counts: make([]atomic.Int64, n)}
}

// AddRouted records tokens routed to expert during one step.
func (l *ExpertLoad) AddRouted(expert int, tokens int64) {
	if l == nil || expert < 0 || expert >= len(l.counts) {
		return
	}
	l.counts[expert].Add(tokens)
}

// Counts returns a point-in-time copy of the per-expert token counts.
func (l *ExpertLoad) Counts() []int64 {
	if l == nil {
		return nil
	}
	out := make([]int64, len(l.counts))
	for i := range l.counts {
		out[i] = l.counts[i].Load()
	}
	return out
}

// GiB converts bytes to binary gigabytes (the unit of Table 1).
func GiB(bytes float64) float64 { return bytes / (1024 * 1024 * 1024) }

// Gbps converts a bytes-and-seconds pair to gigabits per second.
func Gbps(bytes, seconds float64) float64 {
	if seconds == 0 {
		return 0
	}
	return bytes * 8 / seconds / 1e9
}

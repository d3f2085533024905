// Package janus is the public API of Janus-Go, a reproduction of
// "Janus: A Unified Distributed Training Framework for Sparse
// Mixture-of-Experts Models" (SIGCOMM 2023) as a deterministic
// flow-level cluster simulator plus a real TCP pull protocol.
//
// The package re-exports the pieces a downstream user needs:
//
//   - model presets and custom model construction (Model, MoEBERT, ...)
//   - cluster hardware description (Spec, DefaultSpec)
//   - the two training engines: TrainExpertCentric (the Tutel-like
//     All-to-All baseline) and TrainJanus (the unified data-centric
//     system with the Janus Task Queue)
//   - the paper's evaluation suite (Experiments, RunExperiment)
//   - the live TCP deployment (StartLiveCluster)
//
// A minimal comparison:
//
//	model := janus.MoEBERT(32)
//	spec := janus.DefaultSpec(4) // 4 machines × 8 GPUs
//	base, _ := janus.TrainExpertCentric(janus.BaselineConfig{Model: model, Spec: spec})
//	fast, _ := janus.TrainJanus(janus.JanusConfig{Model: model, Spec: spec,
//		TopoAware: true, Prefetch: true})
//	fmt.Printf("speedup: %.2fx\n", base.IterationTime/fast.IterationTime)
package janus

import (
	"janus/internal/checkpoint"
	"janus/internal/config"
	"janus/internal/core"
	"janus/internal/engine"
	"janus/internal/experiments"
	"janus/internal/expertcentric"
	"janus/internal/faultinject"
	"janus/internal/gate"
	"janus/internal/livecluster"
	"janus/internal/metrics"
	"janus/internal/topology"
	"janus/internal/trainrun"
	"janus/internal/transport"
)

// Model is a model configuration: training shape (B, S, topK, H) and
// the block structure. Use the presets or build one by hand.
type Model = config.Model

// Block is one layer of a Model.
type Block = config.Block

// Paradigm selects expert-centric or data-centric communication.
type Paradigm = config.Paradigm

// Paradigm values.
const (
	ExpertCentric = config.ExpertCentric
	DataCentric   = config.DataCentric
)

// Model presets from the paper's evaluation (Table 1, §7.5).
var (
	MoEBERT            = config.MoEBERT
	MoEGPT             = config.MoEGPT
	MoETransformerXL   = config.MoETransformerXL
	PRMoETransformerXL = config.PRMoETransformerXL
)

// Spec describes cluster hardware; DefaultSpec models the paper's
// testbed (8×A100 machines with NVSwitch, 4×200 Gbps NICs).
type Spec = topology.Spec

// DefaultSpec returns the paper-testbed hardware model for the given
// machine count.
func DefaultSpec(numMachines int) Spec { return topology.DefaultSpec(numMachines) }

// Assignment is a token→expert routing histogram for one MoE block.
type Assignment = gate.Assignment

// BalancedAssignment routes every worker's tokens evenly over experts.
func BalancedAssignment(numWorkers, numExperts, tokensPerWorker int) Assignment {
	return gate.Balanced(numWorkers, numExperts, tokensPerWorker)
}

// ZipfAssignment routes tokens with a Zipf-skewed expert popularity —
// the imbalanced workload the paper profiles in §3.1.
func ZipfAssignment(numWorkers, numExperts, tokensPerWorker int, skew float64, seed int64) Assignment {
	return gate.Zipf(numWorkers, numExperts, tokensPerWorker, skew, seed)
}

// Report is the outcome of one simulated training iteration.
type Report = engine.Report

// Policy decides per-block paradigms from the gain metric R.
type Policy = config.Policy

// NominalPolicy applies the paper's stated rule (data-centric iff R>1).
func NominalPolicy() Policy { return config.NominalPolicy() }

// ConservativePolicy applies the rule §7.5 actually uses (R>2,
// accounting for the PCIe ceiling on fetches).
func ConservativePolicy() Policy { return config.ConservativePolicy() }

// BaselineConfig configures the expert-centric (Tutel-like) engine.
type BaselineConfig struct {
	Model Model
	Spec  Spec
	// Assignment returns each MoE block's routing; nil means balanced.
	Assignment func(block int) Assignment
	// Hierarchical selects Tutel's 2D All-to-All.
	Hierarchical bool
	// SkipMemoryCheck disables the OOM model.
	SkipMemoryCheck bool
	// Trace records a timeline in the report.
	Trace bool
	// ComputeFactors optionally slows individual GPUs (straggler
	// injection); nil means nominal speed everywhere.
	ComputeFactors []float64
	// Jitter stretches each compute op by a uniform draw from
	// [1, 1+Jitter] (deterministic from JitterSeed).
	Jitter     float64
	JitterSeed int64
	// ForwardOnly runs inference: the iteration ends after forward (§9).
	ForwardOnly bool
}

// TrainExpertCentric simulates one iteration of the expert-centric
// baseline and returns its report (Report.OOM is set instead of an
// error when the memory model rejects the configuration).
func TrainExpertCentric(cfg BaselineConfig) (Report, error) {
	return expertcentric.Run(expertcentric.Config{
		Model: cfg.Model, Spec: cfg.Spec,
		Assignment:      cfg.Assignment,
		Hierarchical:    cfg.Hierarchical,
		SkipMemoryCheck: cfg.SkipMemoryCheck,
		Trace:           cfg.Trace,
		ComputeFactors:  cfg.ComputeFactors,
		Jitter:          cfg.Jitter, JitterSeed: cfg.JitterSeed,
		ForwardOnly: cfg.ForwardOnly,
	})
}

// JanusConfig configures the Janus engine.
type JanusConfig struct {
	Model Model
	Spec  Spec
	// Policy picks per-block paradigms; zero value = NominalPolicy.
	Policy Policy
	// ForceParadigm overrides the policy for every MoE block.
	ForceParadigm *Paradigm
	// Assignment returns each MoE block's routing; nil means balanced.
	Assignment func(block int) Assignment
	// CreditSize is the credit-based buffer capacity (experts); 0 = 4.
	CreditSize int
	// TopoAware enables the §5.2 priority strategy.
	TopoAware bool
	// Prefetch enables the §5.3 provident prefetch.
	Prefetch bool
	// SkipMemoryCheck disables the OOM model.
	SkipMemoryCheck bool
	// Trace records a timeline in the report.
	Trace bool
	// ComputeFactors optionally slows individual GPUs (straggler
	// injection); nil means nominal speed everywhere.
	ComputeFactors []float64
	// Jitter stretches each compute op by a uniform draw from
	// [1, 1+Jitter] (deterministic from JitterSeed).
	Jitter     float64
	JitterSeed int64
	// DisableCache ablates the Cache Manager: external experts are
	// pulled per worker instead of once per machine (§5.1.2 ablation).
	DisableCache bool
	// ForwardOnly runs inference: the iteration ends after forward (§9).
	ForwardOnly bool
}

// TrainJanus simulates one iteration of the unified Janus engine.
func TrainJanus(cfg JanusConfig) (Report, error) {
	return core.Run(core.Config{
		Model: cfg.Model, Spec: cfg.Spec,
		Policy: cfg.Policy, ForceParadigm: cfg.ForceParadigm,
		Assignment: cfg.Assignment, CreditSize: cfg.CreditSize,
		TopoAware: cfg.TopoAware, Prefetch: cfg.Prefetch,
		SkipMemoryCheck: cfg.SkipMemoryCheck, Trace: cfg.Trace,
		ComputeFactors: cfg.ComputeFactors,
		Jitter:         cfg.Jitter, JitterSeed: cfg.JitterSeed,
		DisableCache: cfg.DisableCache, ForwardOnly: cfg.ForwardOnly,
	})
}

// BlockParadigms previews the per-block paradigm choice a JanusConfig
// makes on the given cluster, without running a simulation.
func BlockParadigms(cfg JanusConfig) []Paradigm {
	return core.Paradigms(core.Config{
		Model: cfg.Model, Spec: cfg.Spec,
		Policy: cfg.Policy, ForceParadigm: cfg.ForceParadigm,
	}, cfg.Spec.NumMachines, cfg.Spec.TotalGPUs())
}

// Experiment is one reproducible table/figure from the paper.
type Experiment = experiments.Experiment

// ExperimentResult is a rendered experiment outcome.
type ExperimentResult = experiments.Result

// Experiments lists every reproducible table and figure in paper order.
func Experiments() []Experiment { return experiments.Registry() }

// RunExperiment runs one experiment by id ("table1", "fig14", ...).
func RunExperiment(id string) (ExperimentResult, bool, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return nil, false, nil
	}
	res, err := e.Run()
	return res, true, err
}

// LiveConfig shapes a real (non-simulated) miniature deployment: one
// TCP server per "machine" on loopback, real expert weights, real
// bytes through the §6 pull protocol.
type LiveConfig = livecluster.Config

// LiveCluster is a running live deployment.
type LiveCluster = livecluster.Cluster

// LiveTrainOptions configures the live trainer: step count, microbatch
// split, and the lockstep-vs-pipelined schedule choice.
type LiveTrainOptions = livecluster.TrainOptions

// LiveTrainMigration schedules one fenced live expert handoff inside a
// training run (see LiveTrainOptions.Migrations).
type LiveTrainMigration = livecluster.TrainMigration

// LiveTrainResult reports one live training run, including the
// pipeline-depth and version-wait telemetry.
type LiveTrainResult = livecluster.TrainResult

// StartLiveCluster brings up a live deployment.
func StartLiveCluster(cfg LiveConfig) (*LiveCluster, error) {
	return livecluster.Start(cfg)
}

// FaultInjector is a deterministic, policy-driven network fault
// injector for live deployments: seeded rules delay, drop, corrupt,
// reset, or kill traffic per labelled endpoint over step windows.
type FaultInjector = faultinject.Injector

// FaultRule activates a Fault for one labelled endpoint over a window
// of training steps.
type FaultRule = faultinject.Rule

// Fault describes injected behaviour: delay, drop, corrupt, reset,
// kill.
type Fault = faultinject.Fault

// NewFaultInjector returns an injector whose decisions derive from
// seed alone, so failure scenarios replay identically.
func NewFaultInjector(seed int64) *FaultInjector { return faultinject.New(seed) }

// MachineLabel is the fault-injection label of live machine m's
// endpoints (its server listener; dial-side wraps use
// MachineLabel(m)+".client").
func MachineLabel(m int) string { return livecluster.MachineLabel(m) }

// RobustnessSnapshot is a point-in-time view of fault-tolerance
// counters: retries, timeouts, reconnects, gradient dedups, stale
// serves, degraded steps, failovers, re-homed experts, checkpoint
// saves/restores.
type RobustnessSnapshot = metrics.RobustnessSnapshot

// Checkpoint is a crash-consistent snapshot of training state: expert
// weights by id, dense parameters, the step counter and the model
// version. On disk each version is one CRC-verified file committed by
// atomic rename, so a torn or bit-flipped file is rejected at restore
// rather than loaded.
type Checkpoint = checkpoint.Snapshot

// SaveCheckpoint commits snap as a new version under dir and returns
// the bytes written.
func SaveCheckpoint(dir string, snap *Checkpoint) (int64, error) {
	return checkpoint.Save(dir, snap)
}

// LoadLatestCheckpoint restores the newest version under dir that
// passes verification, returning the snapshot and its version. It
// returns ErrNoCheckpoint when dir holds no loadable version.
func LoadLatestCheckpoint(dir string) (*Checkpoint, int, error) {
	return checkpoint.LoadLatest(dir)
}

// ErrNoCheckpoint reports that a checkpoint directory holds no loadable
// version.
var ErrNoCheckpoint = checkpoint.ErrNoCheckpoint

// DefaultDeadManSteps is the live cluster's default consecutive-miss
// heartbeat budget before a machine is declared permanently dead.
const DefaultDeadManSteps = livecluster.DefaultDeadManSteps

// ErrFencedEpoch reports that a request was rejected because its
// sender's membership epoch is older than the receiver's — the
// split-brain guard: a partitioned ex-owner's writes are refused
// instead of merged. Match with errors.Is; the full rejection (remote
// epoch, readmission state) is carried by transport.FencedEpochError.
var ErrFencedEpoch = transport.ErrFencedEpoch

// TrainRunConfig describes a multi-iteration training run with a gate
// whose routing drifts over the run (§3.1's averaged-profile
// methodology).
type TrainRunConfig = trainrun.Config

// TrainRunResult aggregates a multi-iteration run.
type TrainRunResult = trainrun.Result

// Engine identifiers for TrainRun.
const (
	TutelEngine = trainrun.Tutel
	JanusEngine = trainrun.Janus
)

// TrainRun simulates a sequence of iterations and aggregates the
// per-iteration statistics.
func TrainRun(cfg TrainRunConfig) (TrainRunResult, error) {
	return trainrun.Run(cfg)
}

package main

// api.go is the only file of the benchmark that imports the repository.
// Every package function, type and constant the benchmark uses is bound
// to a local name here, so a rename in the repository breaks this file
// and nothing else; benchmark_test.go fails if another file imports a
// janus package. Methods and struct fields are reached through the
// aliased types; README.md ("Pinned API") lists them per type.
//
// Deliberately absent, because ROADMAP items 2-4 plan to delete them:
// fabric.SetAllocMode, fabric.SetFillStrategy, topology.Spec.AllocMode,
// Cluster.RunDataCentric and the metrics.* counter types (the two
// snapshot structs a TrainResult returns are read in trainCounts and
// nowhere else).

import (
	"janus"
	"janus/internal/checkpoint"
	"janus/internal/collective"
	"janus/internal/fabric"
	"janus/internal/gate"
	"janus/internal/livecluster"
	"janus/internal/metrics"
	"janus/internal/moe"
	"janus/internal/serving"
	"janus/internal/sim"
	"janus/internal/tensor"
	"janus/internal/topology"
	"janus/internal/trace"
	"janus/internal/transport"
)

// Simulator plane.
type (
	simModel      = janus.Model
	simSpec       = janus.Spec
	simAssignment = janus.Assignment
	simReport     = janus.Report
	janusConfig   = janus.JanusConfig
	tutelConfig   = janus.BaselineConfig

	fabricLink    = fabric.Link
	fabricFlow    = fabric.Flow
	fabricSpec    = fabric.FlowSpec
	topoCluster   = topology.Cluster
	traceTimeline = trace.Timeline
)

var (
	moeBERT            = janus.MoEBERT
	moeGPT             = janus.MoEGPT
	moeTransformerXL   = janus.MoETransformerXL
	defaultSpec        = janus.DefaultSpec
	zipfAssignment     = janus.ZipfAssignment
	trainJanus         = janus.TrainJanus
	trainExpertCentric = janus.TrainExpertCentric

	newSimEngine    = sim.NewEngine
	newSimProcessor = sim.NewProcessor
	newFabricNet    = fabric.NewNetwork
	newTopology     = topology.New

	allToAll             = collective.AllToAll
	hierarchicalAllToAll = collective.HierarchicalAllToAll
	ringAllReduce        = collective.RingAllReduce
)

// Live plane.
type (
	liveConfig   = janus.LiveConfig
	liveCluster  = janus.LiveCluster
	trainOptions = janus.LiveTrainOptions
	trainResult  = janus.LiveTrainResult

	expert     = moe.Expert
	expertID   = transport.ExpertID
	wireServer = transport.Server
	wireClient = transport.Client
	wireOpts   = transport.Options
	injector   = janus.FaultInjector
	faultRule  = janus.FaultRule
	fault      = janus.Fault
)

var (
	startLiveCluster     = janus.StartLiveCluster
	newFaultInjector     = janus.NewFaultInjector
	saveCheckpoint       = janus.SaveCheckpoint
	loadLatestCheckpoint = janus.LoadLatestCheckpoint
	encodeSnapshotStream = checkpoint.EncodeStream
	decodeExpertPlane    = livecluster.DecodeExpertPlane

	newRandomMatrix  = tensor.NewRandom
	newMatrix        = tensor.New
	putMatrix        = tensor.Put
	matMulInto       = tensor.MatMulInto
	matMulTransAInto = tensor.MatMulTransAInto
	matMulTransBInto = tensor.MatMulTransBInto

	newExpert     = moe.NewExpert
	putExpertGrad = moe.PutExpertGrad

	newWireServer        = transport.NewServer
	newWireClientOptions = transport.NewClientOptions
	encodeServe          = transport.EncodeServe
	decodeServe          = transport.DecodeServe
	encodeServeOut       = transport.EncodeServeOut
)

const provOwner = transport.ProvOwner

// Serving plane.
type (
	serveBackend  = serving.Backend
	serveConfig   = serving.Config
	serveFrontend = serving.Frontend
)

var (
	newFrontend    = serving.New
	serveReference = serving.Reference
	newGateSampler = gate.NewSampler
	errShed        = serving.ErrShed
	errExpired     = serving.ErrExpired
)

// Ladder rungs a serving.Result reports.
const (
	rungFull = metrics.RungFull
	rungTop1 = metrics.RungTop1
)

// trainCounters is the benchmark's own view of the counts a Train call
// returns, so the metrics.* snapshot types are named in this file only.
type trainCounters struct {
	degradedSteps    int64
	droppedGrads     int64
	retries          int64
	merges           int64
	versionWaitNanos int64
	depthStallNanos  int64
}

func trainCounts(r trainResult) trainCounters {
	return trainCounters{
		degradedSteps:    int64(r.DegradedSteps),
		droppedGrads:     r.DroppedGrads,
		retries:          r.Robust.Retries,
		merges:           r.Pipeline.Merges,
		versionWaitNanos: r.Pipeline.VersionWaitNanos,
		depthStallNanos:  r.Pipeline.DepthStallNanos,
	}
}

func (a trainCounters) add(b trainCounters) trainCounters {
	return trainCounters{
		degradedSteps:    a.degradedSteps + b.degradedSteps,
		droppedGrads:     a.droppedGrads + b.droppedGrads,
		retries:          a.retries + b.retries,
		merges:           a.merges + b.merges,
		versionWaitNanos: a.versionWaitNanos + b.versionWaitNanos,
		depthStallNanos:  a.depthStallNanos + b.depthStallNanos,
	}
}

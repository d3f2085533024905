package experiments

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"janus/internal/faultinject"
	"janus/internal/gate"
	"janus/internal/livecluster"
	"janus/internal/metrics"
	"janus/internal/serving"
)

// ServingRow is one offered-load point of the overload sweep.
type ServingRow struct {
	Mult      float64 // offered load as a multiple of the calibrated knee
	OfferedPS float64 // offered requests/sec
	Submitted int
	Answered  int64
	Shed      int64
	Expired   int64
	Degraded  int64 // answers below full quality
	GoodputPS float64
	P50Ms     float64
	P99Ms     float64
}

// ServingResult is the overload-robustness drill on the live cluster:
// a seeded open-loop traffic generator (Zipf popularity, diurnal ramp,
// flash-crowd burst) drives the serving front-end across offered loads
// from half the calibrated knee to 4x past it. The headline is the
// goodput curve: with admission control and the degradation ladder,
// answered-per-second holds near capacity as offered load quadruples,
// instead of collapsing. A canary-rollback phase then rolls out a
// latency-regressed checkpoint and pins the auto-rollback fence.
type ServingResult struct {
	Machines   int
	NumExperts int
	TopK       int
	DeadlineMs float64
	KneePS     float64 // calibrated closed-loop capacity, requests/sec
	Rows       []ServingRow

	// Differential gate: low-load answers vs the in-process reference.
	DiffChecked int

	// Canary-rollback drill.
	CanaryServed    int64 // candidate answers before the fence
	RolledBack      int64 // must be exactly 1
	PostFenceCanary int64 // candidate answers after the fence (must be 0)
}

// servingSweep is the drill's fixed seeded shape.
var servingSweep = struct {
	mults      []float64
	ticks      int
	tick       time.Duration
	burstFrom  int // burst window inside the top point, in ticks
	burstTo    int
	burstMult  float64
	diurnalAmp float64
}{
	mults:      []float64{0.5, 1, 2, 4},
	ticks:      60,
	tick:       5 * time.Millisecond,
	burstFrom:  20,
	burstTo:    40,
	burstMult:  1.5,
	diurnalAmp: 0.25,
}

func servingClusterCfg(inj *faultinject.Injector) livecluster.Config {
	return livecluster.Config{
		Machines: 3, WorkersPerNode: 1,
		NumExperts: 9, TopK: 3, Hidden: 16,
		TokensPerWorker: 24, Seed: 42, Credits: 8,
		Injector:         inj,
		PullTimeout:      300 * time.Millisecond,
		PullRetries:      2,
		RetryBackoff:     2 * time.Millisecond,
		FailoverEnabled:  true,
		HeartbeatTimeout: 200 * time.Millisecond,
		Replicas:         1,
	}
}

func servingFrontendCfg(b serving.Backend) serving.Config {
	return serving.Config{
		Backend: b, Seed: 77, TopK: 2, Zipf: 1.1,
		RowsPerRequest: 2, QueueCap: 64,
		Deadline: 150 * time.Millisecond,
		Workers:  2, MaxBatch: 8,
		MaxStalenessSteps: 5,
		Top1Pressure:      32,
	}
}

// Serving runs the overload drill and the canary-rollback drill with
// every invariant gated in-run.
func Serving() (*ServingResult, error) {
	inj := faultinject.New(7)
	cl, err := livecluster.Start(servingClusterCfg(inj))
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	cl.SyncReplicas()
	backend := cl.ServeBackend()
	defer backend.Close()

	fcfg := servingFrontendCfg(backend)
	front, err := serving.New(fcfg)
	if err != nil {
		return nil, err
	}
	defer front.Close()

	res := &ServingResult{
		Machines:   3,
		NumExperts: 9,
		TopK:       fcfg.TopK,
		DeadlineMs: float64(fcfg.Deadline) / float64(time.Millisecond),
	}

	// Differential gate first, at zero load: front-end answers must be
	// bitwise the in-process reference computed from the exported
	// weight plane.
	plane, err := livecluster.DecodeExpertPlane(cl.ExportSnapshot(0, 1))
	if err != nil {
		return nil, err
	}
	sampler := gate.NewSampler(9, fcfg.TopK, fcfg.Zipf, fcfg.Seed)
	for id := uint64(1); id <= 16; id++ {
		got := front.Submit(context.Background(), id)
		if got.Err != nil {
			return nil, fmt.Errorf("serving: low-load request %d: %w", id, got.Err)
		}
		want, err := serving.Reference(plane, sampler, fcfg.Seed, id, fcfg.RowsPerRequest, 16, false)
		if err != nil {
			return nil, err
		}
		for j := range want {
			if got.Out[j] != want[j] {
				return nil, fmt.Errorf("serving: request %d differs from reference at %d (%v vs %v)",
					id, j, got.Out[j], want[j])
			}
		}
		res.DiffChecked++
	}

	// Knee calibration: closed-loop sequential throughput.
	kneeStart := time.Now()
	const kneeReqs = 200
	for id := uint64(1000); id < 1000+kneeReqs; id++ {
		if r := front.Submit(context.Background(), id); r.Err != nil {
			return nil, fmt.Errorf("serving: knee calibration: %w", r.Err)
		}
	}
	res.KneePS = kneeReqs / time.Since(kneeStart).Seconds()

	// Offered-load sweep. Each point is open-loop: arrivals keep coming
	// at the offered rate whatever the front-end does with them.
	nextID := uint64(10000)
	for pi, mult := range servingSweep.mults {
		tr := serving.Traffic{
			BaseRate:      mult * res.KneePS * servingSweep.tick.Seconds(),
			DiurnalAmp:    servingSweep.diurnalAmp,
			DiurnalPeriod: servingSweep.ticks,
			Injector:      inj,
			Label:         "traffic",
			Seed:          int64(300 + pi),
		}
		if mult == servingSweep.mults[len(servingSweep.mults)-1] {
			// Flash crowd rides on top of the heaviest point.
			inj.Burst("traffic", servingSweep.burstFrom, servingSweep.burstTo, servingSweep.burstMult)
		}
		before := front.Stats()
		var (
			mu        sync.Mutex
			latencies []float64
			wg        sync.WaitGroup
			submitted int
		)
		sweepStart := time.Now()
		for tick := 0; tick < servingSweep.ticks; tick++ {
			inj.SetStep(tick)
			n := tr.Arrivals(tick)
			for i := 0; i < n; i++ {
				id := nextID
				nextID++
				submitted++
				wg.Add(1)
				go func(id uint64) {
					defer wg.Done()
					r := front.Submit(context.Background(), id)
					if r.Err == nil {
						mu.Lock()
						latencies = append(latencies, float64(r.Latency)/float64(time.Millisecond))
						mu.Unlock()
					}
				}(id)
			}
			time.Sleep(servingSweep.tick)
		}
		wg.Wait()
		elapsed := time.Since(sweepStart).Seconds()
		inj.SetStep(0) // close any burst window before the next point
		d := front.Stats().Sub(before)

		lat := metrics.Summarize(latencies)
		row := ServingRow{
			Mult:      mult,
			OfferedPS: float64(submitted) / elapsed,
			Submitted: submitted,
			Answered:  d.AnsweredTotal(),
			Shed:      d.Shed,
			Expired:   d.DeadlineExpired,
			Degraded:  d.DegradedTotal(),
			GoodputPS: float64(d.AnsweredTotal()) / elapsed,
			P50Ms:     lat.P50,
			P99Ms:     lat.P99,
		}
		res.Rows = append(res.Rows, row)

		// In-run invariant gates.
		if got := d.AnsweredTotal() + d.DeadlineExpired + d.Shed; got != int64(submitted) {
			return nil, fmt.Errorf("serving: %gx point lost requests: %d terminals of %d submitted (%v)",
				mult, got, submitted, d)
		}
		if d.Shed != d.Answered[metrics.RungShed] {
			return nil, fmt.Errorf("serving: %gx point: shed %d but shed-rung terminals %d — a shed request answered",
				mult, d.Shed, d.Answered[metrics.RungShed])
		}
		if int64(len(latencies)) != d.AnsweredTotal() {
			return nil, fmt.Errorf("serving: %gx point: %d answers but %d latency samples",
				mult, d.AnsweredTotal(), len(latencies))
		}
		if lat.P99 > res.DeadlineMs {
			return nil, fmt.Errorf("serving: %gx point: p99 %.2fms over the %.0fms deadline",
				mult, lat.P99, res.DeadlineMs)
		}
	}

	// Goodput must not collapse past the knee: the heaviest point keeps
	// at least 80%% of the best point's answered-per-second.
	var peak float64
	for _, row := range res.Rows {
		if row.GoodputPS > peak {
			peak = row.GoodputPS
		}
	}
	last := res.Rows[len(res.Rows)-1]
	if last.GoodputPS < 0.8*peak {
		return nil, fmt.Errorf("serving: goodput collapsed past the knee: %.0f/s at %gx vs %.0f/s peak",
			last.GoodputPS, last.Mult, peak)
	}

	// Canary-rollback drill: roll out a latency-regressed candidate
	// (version 2 of the same weights plus an injected delay), let the
	// SLO monitor trip, and pin the fence.
	canaryPlane, err := livecluster.DecodeExpertPlane(cl.ExportSnapshot(0, 2))
	if err != nil {
		return nil, err
	}
	err = front.StartCanary(serving.Canary{
		Version: 2, Plane: canaryPlane, Frac: 0.5,
		SLO: 2 * time.Millisecond, Strikes: 3,
		Delay: 20 * time.Millisecond, // the injected regression
	})
	if err != nil {
		return nil, err
	}
	preRoll := front.Stats()
	for i := 0; i < 200; i++ {
		front.Submit(context.Background(), nextID)
		nextID++
		if front.Stats().RolledBack > preRoll.RolledBack {
			break
		}
	}
	afterRoll := front.Stats()
	res.RolledBack = afterRoll.RolledBack - preRoll.RolledBack
	res.CanaryServed = afterRoll.CanaryServed - preRoll.CanaryServed
	if res.RolledBack != 1 {
		return nil, fmt.Errorf("serving: regressed canary not rolled back (rollbacks=%d)", res.RolledBack)
	}

	// Post-fence: more traffic; the rolled-back candidate must answer
	// exactly nothing.
	fenced := front.Stats()
	for i := 0; i < 60; i++ {
		r := front.Submit(context.Background(), nextID)
		nextID++
		if r.Canary {
			res.PostFenceCanary++
		}
	}
	res.PostFenceCanary += front.Stats().CanaryServed - fenced.CanaryServed
	if res.PostFenceCanary != 0 {
		return nil, fmt.Errorf("serving: %d answers from the rolled-back canary", res.PostFenceCanary)
	}
	return res, nil
}

// Render formats the sweep and the canary drill.
func (r *ServingResult) Render() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Overload-robust serving plane: %d machines, %d experts, top-%d, %.0fms deadline\n",
		r.Machines, r.NumExperts, r.TopK, r.DeadlineMs)
	fmt.Fprintf(&b, "calibrated knee: %.0f req/s; differential vs reference: %d/%d bitwise\n\n",
		r.KneePS, r.DiffChecked, r.DiffChecked)
	fmt.Fprintf(&b, "%6s %10s %9s %9s %7s %8s %9s %10s %8s %8s\n",
		"load", "offered/s", "submitted", "answered", "shed", "expired", "degraded", "goodput/s", "p50 ms", "p99 ms")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%5.1fx %10.0f %9d %9d %7d %8d %9d %10.0f %8.2f %8.2f\n",
			row.Mult, row.OfferedPS, row.Submitted, row.Answered, row.Shed,
			row.Expired, row.Degraded, row.GoodputPS, row.P50Ms, row.P99Ms)
	}
	fmt.Fprintf(&b, "\ncanary rollout: %d candidate answers before auto-rollback (rollbacks=%d), %d after the fence\n",
		r.CanaryServed, r.RolledBack, r.PostFenceCanary)
	return b.String()
}

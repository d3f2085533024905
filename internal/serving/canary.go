// Canary checkpoint rollout: a seeded fraction of traffic is answered
// from a candidate model version while an SLO monitor compares it to
// the baseline; a regression rolls the canary back automatically, and
// a generation fence guarantees a rolled-back canary never answers
// another request — in-flight canary work is discarded at emission.
package serving

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"janus/internal/metrics"
	"janus/internal/moe"
)

// Canary configures one rollout.
type Canary struct {
	// Version is the candidate's model version (the ModelVersion of the
	// snapshot its plane was exported from).
	Version int
	// Plane holds the candidate's expert weights; it must cover every
	// expert so any routed request is computable.
	Plane map[int]*moe.Expert
	// Frac in (0,1] is the seeded fraction of requests answered from
	// the candidate. Membership is a pure function of (seed, reqID), so
	// replays canary the same requests.
	Frac float64
	// SLO is the per-answer latency bound; a canary answer over it (or
	// an expired canary request) is one strike (0 = the deadline).
	SLO time.Duration
	// Strikes is how many consecutive strikes trigger auto-rollback
	// (0 = DefaultCanaryStrikes).
	Strikes int
	// Delay injects extra compute latency into every canary answer —
	// the drills' knob for a regressed candidate.
	Delay time.Duration
}

// DefaultCanaryStrikes is the consecutive-strike budget before
// auto-rollback.
const DefaultCanaryStrikes = 3

type canaryState struct {
	cfg     Canary
	gen     uint64       // generation this rollout was started under
	strikes atomic.Int64 // consecutive SLO strikes across workers
}

// StartCanary begins routing a seeded fraction of traffic to the
// candidate plane. A running canary is replaced (its generation is
// fenced off exactly as a rollback would).
func (f *Frontend) StartCanary(c Canary) error {
	if c.Frac <= 0 || c.Frac > 1 {
		return fmt.Errorf("serving: canary fraction %v outside (0,1]", c.Frac)
	}
	if c.Delay < 0 || c.SLO < 0 {
		return errors.New("serving: negative canary knob")
	}
	for e := 0; e < f.cfg.Backend.NumExperts(); e++ {
		if c.Plane[e] == nil {
			return fmt.Errorf("serving: canary plane missing expert %d", e)
		}
	}
	if c.SLO == 0 {
		c.SLO = f.cfg.Deadline
	}
	if c.Strikes == 0 {
		c.Strikes = DefaultCanaryStrikes
	}
	st := &canaryState{cfg: c, gen: f.canaryGen.Add(1)}
	f.canary.Store(st)
	return nil
}

func (f *Frontend) rollbackCanary(h *metrics.ServingHandle, st *canaryState) {
	// The CAS makes rollback idempotent per generation: only the caller
	// that actually unseats the plane advances the fence and counts.
	if f.canary.CompareAndSwap(st, nil) {
		f.canaryGen.Add(1)
		h.AddRolledBack()
	}
}

// splitmixServe is the local splitmix64 finalizer for canary
// membership draws (a different stream constant than routing, so
// canary membership and expert picks stay independent).
func splitmixServe(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// canaryFor returns the live canary state when reqID is a seeded
// member of the canary fraction.
func (f *Frontend) canaryFor(reqID uint64) *canaryState {
	st := f.canary.Load()
	if st == nil {
		return nil
	}
	u := float64(splitmixServe(uint64(f.cfg.Seed)*0x9E3779B97F4A7C15^reqID^0xC2B2AE3D27D4EB4F)>>11) / (1 << 53)
	if u < st.cfg.Frac {
		return st
	}
	return nil
}

// combineFromPlane sums the selected experts' outputs (ascending
// order, matching Reference) over one request's rows.
func combineFromPlane(plane map[int]*moe.Expert, experts []int, rows, hid int, data []float32) []float32 {
	var out []float32
	for _, e := range experts {
		y := forwardLocal(plane[e], rows, hid, data)
		if out == nil {
			out = y
		} else {
			for j, v := range y {
				out[j] += v
			}
		}
	}
	return out
}

// serveCanary drives one canary-member request to its terminal: the
// answer is computed from the candidate plane, the generation fence is
// re-checked at emission, and the SLO monitor strikes (and eventually
// rolls back) on regressed answers. experts arrive ascending and
// already top-1-trimmed.
func (f *Frontend) serveCanary(h *metrics.ServingHandle, req *request, experts []int, top1 bool, st *canaryState) {
	data := RequestRows(f.cfg.Seed, req.id, f.cfg.RowsPerRequest, f.cfg.Backend.Hidden())
	if st.cfg.Delay > 0 {
		time.Sleep(st.cfg.Delay) // the injected regression
	}
	out := combineFromPlane(st.cfg.Plane, experts, f.cfg.RowsPerRequest, f.cfg.Backend.Hidden(), data)
	rung := metrics.RungFull
	if top1 {
		rung = metrics.RungTop1
	}

	if f.canaryGen.Load() != st.gen {
		// Fenced: the rollout was rolled back (or replaced) while this
		// answer was in flight. The candidate's bytes must never reach
		// a user — discard them and re-answer from the baseline's stale
		// plane when the budget still allows.
		f.answerFromStale(h, req, experts, rung)
		return
	}
	lat := time.Since(req.start)
	expired := time.Now().After(req.deadline)

	// SLO monitor: consecutive over-SLO (or expired) canary answers
	// trip auto-rollback. strikes is only touched here, after the gen
	// check, so a fenced generation can't keep striking.
	if expired || lat > st.cfg.SLO {
		if st.strikes.Add(1) >= int64(st.cfg.Strikes) {
			f.rollbackCanary(h, st)
		}
	} else {
		st.strikes.Store(0)
	}

	if expired {
		h.AddDeadlineExpired()
		req.done <- Result{ReqID: req.id, Latency: lat, Err: ErrExpired}
		return
	}
	h.AddCanaryServed()
	h.AddAnswered(rung)
	req.done <- Result{ReqID: req.id, Rung: rung, Out: out, Latency: lat, Canary: true}
}

// answerFromStale is the fenced-canary fallback: recompute from the
// frontend's local stale cache at the stale rung, or shed when the
// cache can't serve. It never emits candidate bytes.
func (f *Frontend) answerFromStale(h *metrics.ServingHandle, req *request, experts []int, floor int) {
	hid := f.cfg.Backend.Hidden()
	data := RequestRows(f.cfg.Seed, req.id, f.cfg.RowsPerRequest, hid)
	plane := make(map[int]*moe.Expert, len(experts))
	f.staleMu.RLock()
	usable := true
	for _, e := range experts {
		ent, ok := f.stale[e]
		if !ok || f.cfg.Backend.Step()-ent.step > f.cfg.MaxStalenessSteps {
			usable = false
			break
		}
		plane[e] = ent.ex
	}
	f.staleMu.RUnlock()
	if !usable {
		h.AddShed()
		h.AddAnswered(metrics.RungShed)
		req.done <- Result{
			ReqID: req.id, Rung: metrics.RungShed,
			Latency: time.Since(req.start), RetryAfter: f.cfg.Deadline, Err: ErrShed,
		}
		return
	}
	out := combineFromPlane(plane, experts, f.cfg.RowsPerRequest, hid, data)
	if time.Now().After(req.deadline) {
		h.AddDeadlineExpired()
		req.done <- Result{ReqID: req.id, Latency: time.Since(req.start), Err: ErrExpired}
		return
	}
	rung := metrics.RungStale
	if floor > rung {
		rung = floor
	}
	h.AddAnswered(rung)
	req.done <- Result{ReqID: req.id, Rung: rung, Out: out, Latency: time.Since(req.start)}
}

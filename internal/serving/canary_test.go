package serving

import (
	"context"
	"testing"
	"time"

	"janus/internal/metrics"
	"janus/internal/moe"
)

// healthyCanary is a candidate plane built from distinct weights so a
// canary answer is distinguishable from a baseline answer bitwise.
func healthyCanary(n, h int, frac float64) (map[int]*moe.Expert, Canary) {
	plane := make(map[int]*moe.Expert, n)
	for e := 0; e < n; e++ {
		plane[e] = moe.NewExpert(h, int64(5000+7*e))
	}
	return plane, Canary{Version: 2, Plane: plane, Frac: frac}
}

// A healthy canary serves its seeded fraction from the candidate
// plane: members answer candidate bytes (bitwise pinned), non-members
// answer baseline bytes, and membership replays.
func TestCanaryServesSeededFraction(t *testing.T) {
	b := newFakeBackend(5, 8, 40)
	cfg := testConfig(b)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plane, c := healthyCanary(b.n, b.h, 0.5)
	if err := f.StartCanary(c); err != nil {
		t.Fatal(err)
	}
	if v, ok := f.CanaryVersion(); !ok || v != 2 {
		t.Fatalf("CanaryVersion = %d/%v", v, ok)
	}

	base := b.plane()
	var members, others int
	for i := 1; i <= 30; i++ {
		res := mustAnswer(t, f, uint64(i))
		src := base
		if res.Canary {
			members++
			src = plane
		} else {
			others++
		}
		want, err := Reference(src, f.sampler, cfg.Seed, uint64(i), cfg.RowsPerRequest, b.h, false)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if res.Out[j] != want[j] {
				t.Fatalf("req %d (canary=%v) differs from its plane at %d", i, res.Canary, j)
			}
		}
	}
	if members == 0 || others == 0 {
		t.Fatalf("fraction split degenerate: %d canary, %d baseline", members, others)
	}
	s := f.Stats()
	if s.CanaryServed != int64(members) || s.RolledBack != 0 {
		t.Fatalf("canary accounting: %v, want canary=%d", s, members)
	}
}

// The headline rollback drill, seeded: a canary with an injected
// latency regression is auto-rolled-back after the strike budget, and
// after the fence not a single further answer comes from the
// candidate.
func TestCanaryAutoRollbackOnRegression(t *testing.T) {
	b := newFakeBackend(5, 8, 41)
	cfg := testConfig(b)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, c := healthyCanary(b.n, b.h, 1.0) // every request canaries
	c.SLO = 2 * time.Millisecond
	c.Delay = 10 * time.Millisecond // the injected regression
	c.Strikes = 2
	if err := f.StartCanary(c); err != nil {
		t.Fatal(err)
	}

	var canaryAnswers int
	for i := 1; i <= 20; i++ {
		if mustAnswer(t, f, uint64(i)).Canary {
			canaryAnswers++
		}
	}
	s := f.Stats()
	if s.RolledBack != 1 {
		t.Fatalf("rollbacks = %d, want 1: %v", s.RolledBack, s)
	}
	if canaryAnswers != int(c.Strikes) {
		t.Fatalf("candidate answered %d requests, want exactly the strike budget %d", canaryAnswers, c.Strikes)
	}
	if s.CanaryServed != int64(canaryAnswers) {
		t.Fatalf("canary-served counter %d != observed %d", s.CanaryServed, canaryAnswers)
	}
	if _, ok := f.CanaryVersion(); ok {
		t.Fatal("canary still live after rollback")
	}

	// Post-fence: more traffic, zero candidate answers, counter frozen.
	for i := 21; i <= 40; i++ {
		if mustAnswer(t, f, uint64(i)).Canary {
			t.Fatalf("request %d answered by rolled-back canary", i)
		}
	}
	if after := f.Stats(); after.CanaryServed != s.CanaryServed {
		t.Fatalf("canary-served moved after rollback: %d -> %d", s.CanaryServed, after.CanaryServed)
	}
}

// The generation fence catches in-flight work: a canary answer whose
// generation was fenced mid-compute is discarded at emission and the
// request re-answers from the baseline's stale plane — candidate bytes
// never escape.
func TestCanaryFenceDiscardsInFlightAnswer(t *testing.T) {
	b := newFakeBackend(5, 8, 42)
	cfg := testConfig(b)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, c := healthyCanary(b.n, b.h, 1.0)
	if err := f.StartCanary(c); err != nil {
		t.Fatal(err)
	}
	st := f.canary.Load()

	// Fence the generation as a concurrent rollback would, then emit a
	// request that was already computing under the old generation.
	f.RollbackCanary()
	const reqID = 3
	req := &request{
		id: reqID, start: time.Now(),
		deadline: time.Now().Add(cfg.Deadline),
		done:     make(chan Result, 1),
	}
	h := f.cfg.Metrics.Handle()
	f.serveCanary(h, req, f.sampler.Experts(reqID), false, st)
	res := <-req.done
	if res.Canary {
		t.Fatal("fenced canary answer was emitted")
	}
	if res.Err != nil {
		t.Fatalf("fenced request not re-answered: %v", res.Err)
	}
	if res.Rung != metrics.RungStale {
		t.Fatalf("fenced fallback rung = %d, want %d (stale)", res.Rung, metrics.RungStale)
	}
	want, err := Reference(b.plane(), f.sampler, cfg.Seed, reqID, cfg.RowsPerRequest, b.h, false)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if res.Out[j] != want[j] {
			t.Fatalf("fenced fallback differs from baseline at %d", j)
		}
	}
	if s := f.Stats(); s.CanaryServed != 0 {
		t.Fatalf("fenced answer counted as canary-served: %v", s)
	}
}

func TestStartCanaryValidates(t *testing.T) {
	b := newFakeBackend(5, 8, 43)
	f, err := New(testConfig(b))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plane, _ := healthyCanary(b.n, b.h, 1)
	if err := f.StartCanary(Canary{Plane: plane, Frac: 0}); err == nil {
		t.Fatal("zero fraction accepted")
	}
	if err := f.StartCanary(Canary{Plane: plane, Frac: 1.5}); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	delete(plane, 2)
	if err := f.StartCanary(Canary{Plane: plane, Frac: 0.5}); err == nil {
		t.Fatal("incomplete plane accepted")
	}
}

// RollbackCanary is idempotent per generation: a double rollback (the
// monitor and an operator racing) counts exactly one.
func TestRollbackIdempotent(t *testing.T) {
	b := newFakeBackend(5, 8, 44)
	f, err := New(testConfig(b))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plane, c := healthyCanary(b.n, b.h, 1)
	_ = plane
	if err := f.StartCanary(c); err != nil {
		t.Fatal(err)
	}
	st := f.canary.Load()
	f.RollbackCanary()
	f.RollbackCanary()
	f.rollbackCanary(f.admitH, st) // stale pointer: must be a no-op
	if s := f.Stats(); s.RolledBack != 1 {
		t.Fatalf("rollbacks = %d, want 1", s.RolledBack)
	}
	if err := f.StartCanary(c); err != nil {
		t.Fatal(err)
	}
	_ = f.Submit(context.Background(), 1)
	f.RollbackCanary()
	if s := f.Stats(); s.RolledBack != 2 {
		t.Fatalf("second rollout rollbacks = %d, want 2", s.RolledBack)
	}
}

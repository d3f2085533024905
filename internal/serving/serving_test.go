package serving

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"janus/internal/metrics"
	"janus/internal/moe"
	"janus/internal/transport"
)

// fakeBackend gives the ladder tests full control over every rung's
// entry condition: which experts have alive owners, which have
// replicas, which addresses are gray-slow, and how slow the owner-side
// compute is. Serve computes real outputs from a truth plane so the
// differential assertions are bitwise.
type fakeBackend struct {
	n, h int

	mu         sync.Mutex
	experts    map[int]*moe.Expert
	step       int
	ownerDown  map[int]bool
	replicaUp  map[int]bool
	slow       map[string]bool
	ownerDelay time.Duration
	// ownerHold, if set, parks every owner-side call until it is
	// closed; ownerEntered then receives once a call has parked.
	ownerHold    chan struct{}
	ownerEntered chan struct{}
	ownerErr     error
	ownerProv    byte
	fetchErr     error
}

func newFakeBackend(n, h int, seed int64) *fakeBackend {
	b := &fakeBackend{
		n: n, h: h,
		experts:   make(map[int]*moe.Expert, n),
		ownerDown: make(map[int]bool),
		replicaUp: make(map[int]bool),
		slow:      make(map[string]bool),
		ownerProv: transport.ProvOwner,
	}
	for e := 0; e < n; e++ {
		b.experts[e] = moe.NewExpert(h, seed+int64(10*e))
	}
	return b
}

func (b *fakeBackend) plane() map[int]*moe.Expert {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[int]*moe.Expert, b.n)
	for e, ex := range b.experts {
		out[e] = ex.Clone()
	}
	return out
}

func (b *fakeBackend) NumExperts() int { return b.n }
func (b *fakeBackend) Hidden() int     { return b.h }

func (b *fakeBackend) Step() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.step
}

func (b *fakeBackend) OwnerAddr(e int) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ownerDown[e] {
		return "", false
	}
	return fmt.Sprintf("owner:%d", e), true
}

func (b *fakeBackend) ReplicaAddr(e int) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.replicaUp[e] {
		return "", false
	}
	return fmt.Sprintf("replica:%d", e), true
}

func (b *fakeBackend) PeerSlow(addr string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.slow[addr]
}

func (b *fakeBackend) Serve(ctx context.Context, addr string, e int, payload []byte) (byte, []float32, error) {
	_, rows, cols, data, err := transport.DecodeServe(payload)
	if err != nil {
		return 0, nil, err
	}
	b.mu.Lock()
	ex := b.experts[e]
	delay, oerr, prov := b.ownerDelay, b.ownerErr, b.ownerProv
	hold, entered := b.ownerHold, b.ownerEntered
	b.mu.Unlock()
	if strings.HasPrefix(addr, "owner:") {
		if hold != nil {
			select {
			case entered <- struct{}{}:
			default:
			}
			select {
			case <-hold:
			case <-ctx.Done():
				return 0, nil, ctx.Err()
			}
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return 0, nil, ctx.Err()
			}
		}
		if oerr != nil {
			return 0, nil, oerr
		}
	} else {
		prov = transport.ProvReplica
	}
	return prov, forwardLocal(ex, rows, cols, data), nil
}

func (b *fakeBackend) FetchExpert(e int) (*moe.Expert, int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fetchErr != nil {
		return nil, 0, b.fetchErr
	}
	return b.experts[e].Clone(), b.step, nil
}

func testConfig(b Backend) Config {
	return Config{
		Backend: b, Seed: 9, TopK: 2, Zipf: 0.8,
		RowsPerRequest: 2, QueueCap: 8,
		Deadline: 2 * time.Second, Workers: 1, MaxBatch: 4,
		MaxStalenessSteps: 3,
	}
}

// mustAnswer submits and requires an answered terminal.
func mustAnswer(t *testing.T, f *Frontend, id uint64) Result {
	t.Helper()
	res := f.Submit(context.Background(), id)
	if res.Err != nil {
		t.Fatalf("req %d: %v", id, res.Err)
	}
	return res
}

// The ladder, one transition per row: each case arranges exactly one
// rung's entry condition and pins the terminal rung, the counter that
// moved, and (for answered rungs) that the output is the bitwise
// reference. serveBatch is driven directly so queue pressure is a
// controlled input rather than a race.
func TestLadderTransitions(t *testing.T) {
	cases := []struct {
		name     string
		arrange  func(b *fakeBackend, f *Frontend)
		pressure int
		wantRung int
		wantErr  error
	}{
		{
			name:     "full: owner answers",
			arrange:  func(b *fakeBackend, f *Frontend) {},
			wantRung: metrics.RungFull,
		},
		{
			name: "replica by provenance: owner address serves a replica copy",
			arrange: func(b *fakeBackend, f *Frontend) {
				b.mu.Lock()
				b.ownerProv = transport.ProvReplica
				b.mu.Unlock()
			},
			wantRung: metrics.RungReplica,
		},
		{
			name: "replica by address: owner dead, replica alive",
			arrange: func(b *fakeBackend, f *Frontend) {
				b.mu.Lock()
				for e := 0; e < b.n; e++ {
					b.ownerDown[e] = true
					b.replicaUp[e] = true
				}
				b.mu.Unlock()
			},
			wantRung: metrics.RungReplica,
		},
		{
			name: "stale: owner and replica dead, cache fresh enough",
			arrange: func(b *fakeBackend, f *Frontend) {
				b.mu.Lock()
				for e := 0; e < b.n; e++ {
					b.ownerDown[e] = true
				}
				b.step = 3 // cache warmed at step 0; within MaxStalenessSteps
				b.mu.Unlock()
			},
			wantRung: metrics.RungStale,
		},
		{
			name:     "top1: queue pressure degrades routing",
			arrange:  func(b *fakeBackend, f *Frontend) {},
			pressure: 5,
			wantRung: metrics.RungTop1,
		},
		{
			name: "top1 beats stale: pressured and degraded",
			arrange: func(b *fakeBackend, f *Frontend) {
				b.mu.Lock()
				for e := 0; e < b.n; e++ {
					b.ownerDown[e] = true
				}
				b.step = 2
				b.mu.Unlock()
			},
			pressure: 5,
			wantRung: metrics.RungTop1,
		},
		{
			name: "shed: ladder exhausted",
			arrange: func(b *fakeBackend, f *Frontend) {
				b.mu.Lock()
				for e := 0; e < b.n; e++ {
					b.ownerDown[e] = true
				}
				b.step = 99 // cache hopelessly stale
				b.mu.Unlock()
			},
			wantRung: metrics.RungShed,
			wantErr:  ErrShed,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newFakeBackend(6, 8, 21)
			cfg := testConfig(b)
			cfg.Top1Pressure = 4
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			tc.arrange(b, f)

			const reqID = 7
			req := &request{
				id: reqID, start: time.Now(),
				deadline: time.Now().Add(cfg.Deadline),
				pressure: tc.pressure,
				done:     make(chan Result, 1),
			}
			h := f.cfg.Metrics.Handle()
			before := f.Stats()
			f.serveBatch(h, []*request{req})
			res := <-req.done
			d := f.Stats().Sub(before)

			if res.Rung != tc.wantRung && tc.wantErr == nil {
				t.Fatalf("rung = %d, want %d", res.Rung, tc.wantRung)
			}
			if !errors.Is(res.Err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", res.Err, tc.wantErr)
			}
			if d.Answered[tc.wantRung] != 1 {
				t.Fatalf("rung counter delta = %+v, want rung %d = 1", d, tc.wantRung)
			}
			if tc.wantErr != nil {
				if d.Shed != 1 || res.Out != nil {
					t.Fatalf("shed terminal wrong: delta=%+v out=%v", d, res.Out)
				}
				return
			}
			if d.Shed != 0 {
				t.Fatalf("answered request also shed: %+v", d)
			}
			want, err := Reference(b.plane(), f.sampler, cfg.Seed, reqID,
				cfg.RowsPerRequest, b.h, tc.wantRung == metrics.RungTop1)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Out) != len(want) {
				t.Fatalf("answer has %d floats, want %d", len(res.Out), len(want))
			}
			for i := range want {
				if res.Out[i] != want[i] {
					t.Fatalf("answer differs from reference at %d: %v vs %v", i, res.Out[i], want[i])
				}
			}
		})
	}
}

// Degraded answers are bitwise identical to the no-load full-quality
// control when the weights are in sync — the property that makes
// "replica" and "stale" quality-preserving rungs rather than quality
// losses.
func TestDegradedAnswersBitwiseMatchControl(t *testing.T) {
	const reqs = 12
	answers := func(arrange func(b *fakeBackend)) ([]Result, metrics.ServingSnapshot) {
		b := newFakeBackend(6, 8, 33)
		arrange(b)
		f, err := New(testConfig(b))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		out := make([]Result, reqs)
		for i := range out {
			out[i] = mustAnswer(t, f, uint64(i+1))
		}
		return out, f.Stats()
	}

	control, cs := answers(func(b *fakeBackend) {})
	replica, rs := answers(func(b *fakeBackend) {
		for e := 0; e < b.n; e++ {
			b.ownerDown[e] = true
			b.replicaUp[e] = true
		}
	})
	stale, ss := answers(func(b *fakeBackend) {
		for e := 0; e < b.n; e++ {
			b.ownerDown[e] = true
		}
	})

	if cs.Answered[metrics.RungFull] != reqs {
		t.Fatalf("control not all full: %v", cs)
	}
	if rs.Answered[metrics.RungReplica] != reqs {
		t.Fatalf("replica run not all replica rung: %v", rs)
	}
	if ss.Answered[metrics.RungStale] != reqs {
		t.Fatalf("stale run not all stale rung: %v", ss)
	}
	for i := range control {
		for j := range control[i].Out {
			if replica[i].Out[j] != control[i].Out[j] {
				t.Fatalf("replica answer %d differs from control at %d", i, j)
			}
			if stale[i].Out[j] != control[i].Out[j] {
				t.Fatalf("stale answer %d differs from control at %d", i, j)
			}
		}
	}
}

// Admission control: a full queue sheds instead of blocking, and a
// queue whose estimated wait exceeds the deadline sheds with a
// retry-after hint — both count shed once and never answer.
func TestAdmissionSheds(t *testing.T) {
	t.Run("infeasible wait", func(t *testing.T) {
		b := newFakeBackend(4, 8, 5)
		f, err := New(testConfig(b))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// A cold frontend admits; teach it that one request costs more
		// than the whole deadline.
		f.svcNanos.Store(int64(3 * time.Second))
		res := f.Submit(context.Background(), 1)
		if !errors.Is(res.Err, ErrShed) || res.RetryAfter <= 0 {
			t.Fatalf("infeasible submit = %+v, want shed with retry-after", res)
		}
		s := f.Stats()
		if s.Shed != 1 || s.Answered[metrics.RungShed] != 1 || s.Admitted != 0 {
			t.Fatalf("shed accounting: %v", s)
		}
	})

	t.Run("queue full", func(t *testing.T) {
		b := newFakeBackend(4, 8, 6)
		// Pin the worker on req 1 until req 3 has been submitted.
		b.ownerHold = make(chan struct{})
		b.ownerEntered = make(chan struct{}, 1)
		cfg := testConfig(b)
		cfg.QueueCap = 1
		cfg.MaxBatch = 1
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()

		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); f.Submit(context.Background(), 1) }()
		// The worker owns req 1 (queue drained) once its owner call has
		// parked. Then fill the queue with req 2 and overflow with req 3.
		<-b.ownerEntered
		go func() { defer wg.Done(); f.Submit(context.Background(), 2) }()
		for len(f.queue) != 1 {
			time.Sleep(time.Millisecond)
		}
		res := f.Submit(context.Background(), 3)
		close(b.ownerHold)
		wg.Wait()
		if !errors.Is(res.Err, ErrShed) {
			t.Fatalf("overflow submit = %+v, want shed", res)
		}
		s := f.Stats()
		if s.Shed != 1 || s.Admitted != 2 {
			t.Fatalf("accounting after overflow: %v", s)
		}
		if s.AnsweredTotal() != 2 {
			t.Fatalf("admitted requests not all answered: %v", s)
		}
	})
}

// Deadline propagation stage 4: an answer computed past its budget is
// cancelled at emission, not delivered late.
func TestDeadlineExpiresAtEmission(t *testing.T) {
	b := newFakeBackend(4, 8, 7)
	b.ownerDelay = 40 * time.Millisecond
	cfg := testConfig(b)
	cfg.Deadline = 10 * time.Millisecond
	cfg.MaxStalenessSteps = 0
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res := f.Submit(context.Background(), 1)
	if !errors.Is(res.Err, ErrExpired) || res.Out != nil {
		t.Fatalf("late answer = %+v, want expired with no output", res)
	}
	s := f.Stats()
	if s.DeadlineExpired == 0 || s.AnsweredTotal() != 0 {
		t.Fatalf("expiry accounting: %v", s)
	}
}

// A gray-slow owner is hedged: the replica leg answers well before the
// owner would have, and the hedge is counted.
func TestHedgedReadBeatsSlowOwner(t *testing.T) {
	b := newFakeBackend(4, 8, 8)
	b.ownerDelay = 200 * time.Millisecond
	for e := 0; e < b.n; e++ {
		b.replicaUp[e] = true
		b.slow[fmt.Sprintf("owner:%d", e)] = true
	}
	cfg := testConfig(b)
	cfg.HedgeDelay = 2 * time.Millisecond
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	res := mustAnswer(t, f, 1)
	if el := time.Since(start); el > 150*time.Millisecond {
		t.Fatalf("hedged answer took %v, owner delay not bypassed", el)
	}
	if res.Rung != metrics.RungReplica {
		t.Fatalf("hedged answer rung = %d, want %d (replica)", res.Rung, metrics.RungReplica)
	}
	if s := f.Stats(); s.Hedged == 0 {
		t.Fatalf("hedge not counted: %v", s)
	}
}

// Terminal-state arithmetic over a mixed run: every submitted request
// lands in exactly one of answered/expired/shed, and the shed counter
// equals the shed-rung terminal count (no shed request also answered).
func TestTerminalInvariants(t *testing.T) {
	b := newFakeBackend(6, 8, 10)
	// Half the experts lose their owner (stale rung picks them up).
	for e := 0; e < b.n; e += 2 {
		b.ownerDown[e] = true
	}
	f, err := New(testConfig(b))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const reqs = 40
	for i := 0; i < reqs; i++ {
		f.Submit(context.Background(), uint64(i+1))
	}
	s := f.Stats()
	if got := s.AnsweredTotal() + s.DeadlineExpired + s.Shed; got != reqs {
		t.Fatalf("terminals = %d, want %d: %v", got, reqs, s)
	}
	if s.Shed != s.Answered[metrics.RungShed] {
		t.Fatalf("shed %d != shed-rung terminals %d", s.Shed, s.Answered[metrics.RungShed])
	}
	if s.Admitted != s.AnsweredTotal()+s.DeadlineExpired {
		t.Fatalf("admitted %d, terminals %d+%d", s.Admitted, s.AnsweredTotal(), s.DeadlineExpired)
	}
}

func TestSubmitAfterCloseRejects(t *testing.T) {
	b := newFakeBackend(4, 8, 11)
	f, err := New(testConfig(b))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if res := f.Submit(context.Background(), 1); !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("submit after close = %+v", res)
	}
}

func TestConfigValidation(t *testing.T) {
	b := newFakeBackend(4, 8, 12)
	bad := []Config{
		{},
		{Backend: b, TopK: 9, RowsPerRequest: 1, QueueCap: 1, Deadline: time.Second, Workers: 1, MaxBatch: 1},
		{Backend: b, TopK: 1, RowsPerRequest: 0, QueueCap: 1, Deadline: time.Second, Workers: 1, MaxBatch: 1},
		{Backend: b, TopK: 1, RowsPerRequest: 1, QueueCap: 1, Deadline: 0, Workers: 1, MaxBatch: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

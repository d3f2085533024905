package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of order: pos %d got %d", i, v)
		}
	}
}

func TestEngineAfterNesting(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.After(1, func() {
		trace = append(trace, e.Now())
		e.After(2, func() {
			trace = append(trace, e.Now())
		})
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 1 || trace[1] != 3 {
		t.Fatalf("trace = %v, want [1 3]", trace)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double-cancel is a no-op
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Steps() != 0 {
		t.Fatalf("steps = %d, want 0", e.Steps())
	}
}

func TestEngineCancelWhileOthersPending(t *testing.T) {
	e := NewEngine()
	var got []int
	ev := e.At(2, func() { got = append(got, 2) })
	e.At(1, func() {
		got = append(got, 1)
		e.Cancel(ev)
	})
	e.At(3, func() { got = append(got, 3) })
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

// TestEngineScheduleReuse queues one caller-owned event again after it
// fired, after it was cancelled, and while it is pending. Each queueing
// takes a fresh seq, so the event fires after every event already
// queued for its instant, the order Cancel followed by At gives.
func TestEngineScheduleReuse(t *testing.T) {
	e := NewEngine()
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }
	ev := NewEvent(note("ev"))
	if ev.Pending() {
		t.Fatal("a new event is pending")
	}
	e.Schedule(ev, 1)
	e.At(1, note("a"))
	e.RunUntil(1)
	if ev.Pending() {
		t.Fatal("a fired event is pending")
	}
	e.At(2, note("b"))
	e.Schedule(ev, 2) // after it fired
	e.RunUntil(2)
	e.Schedule(ev, 3)
	e.Cancel(ev)
	if ev.Pending() {
		t.Fatal("a cancelled event is pending")
	}
	e.At(3, note("c"))
	e.Schedule(ev, 3) // after it was cancelled
	e.RunUntil(3)
	e.Schedule(ev, 5)
	e.At(4, note("d"))
	e.Schedule(ev, 4) // while pending: moved behind d
	e.At(4, note("e"))
	if !ev.Pending() || ev.At() != 4 {
		t.Fatalf("moved event: pending %v at %v, want pending at 4", ev.Pending(), ev.At())
	}
	e.Run()
	want := []string{"ev", "a", "b", "ev", "c", "ev", "d", "ev", "e"}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if e.Steps() != uint64(len(want)) || e.Now() != 4 {
		t.Fatalf("steps %d at %v, want %d at 4", e.Steps(), e.Now(), len(want))
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(1, func() {})
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want 3 events", fired)
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("fired %v, want 5 events", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want clock advanced to 10", e.Now())
	}
}

// Property: events always fire in non-decreasing timestamp order, no
// matter the insertion order.
func TestEngineMonotonicProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []Time
		count := int(n%64) + 1
		for i := 0; i < count; i++ {
			at := rng.Float64() * 100
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == count
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: determinism — two engines fed the same schedule produce the
// same firing sequence.
func TestEngineDeterminismProperty(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []Time
		for i := 0; i < 50; i++ {
			e.At(rng.Float64()*10, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		return fired
	}
	prop := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProcessorSerializes(t *testing.T) {
	e := NewEngine()
	p := NewProcessor(e, "gpu0")
	var spans [][2]Time
	p.OnSpan = func(_ string, s, en Time) { spans = append(spans, [2]Time{s, en}) }
	p.Submit("a", 2, nil)
	p.Submit("b", 3, nil)
	p.Submit("c", 1, nil)
	e.Run()
	want := [][2]Time{{0, 2}, {2, 5}, {5, 6}}
	if len(spans) != len(want) {
		t.Fatalf("spans = %v", spans)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("span %d = %v, want %v", i, spans[i], want[i])
		}
	}
	if p.BusySeconds() != 6 {
		t.Fatalf("busy = %v, want 6", p.BusySeconds())
	}
}

func TestProcessorCompletionOrderAndCallbacks(t *testing.T) {
	e := NewEngine()
	p := NewProcessor(e, "gpu0")
	var order []string
	p.Submit("a", 1, func() { order = append(order, "a") })
	// Submit from within a completion callback: must queue behind nothing
	// and run immediately after.
	p.Submit("b", 1, func() {
		order = append(order, "b")
		p.Submit("d", 1, func() { order = append(order, "d") })
	})
	p.Submit("c", 1, func() { order = append(order, "c") })
	e.Run()
	want := "abcd"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
	if e.Now() != 4 {
		t.Fatalf("Now = %v, want 4", e.Now())
	}
}

func TestProcessorZeroDuration(t *testing.T) {
	e := NewEngine()
	p := NewProcessor(e, "gpu0")
	done := 0
	for i := 0; i < 10; i++ {
		p.Submit("z", 0, func() { done++ })
	}
	e.Run()
	if done != 10 {
		t.Fatalf("done = %d, want 10", done)
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %v, want 0", e.Now())
	}
}

// Property: for random workloads, total busy time equals the sum of
// durations and the processor finishes at exactly that sum (work
// conservation for a serial resource fed at t=0).
func TestProcessorWorkConservationProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		p := NewProcessor(e, "gpu")
		count := int(n%32) + 1
		var sum float64
		for i := 0; i < count; i++ {
			d := rng.Float64()
			sum += d
			p.Submit("w", d, nil)
		}
		e.Run()
		const eps = 1e-9
		return abs(p.BusySeconds()-sum) < eps && abs(e.Now()-sum) < eps
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

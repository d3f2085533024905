// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking), which makes every simulation in this
// repository fully deterministic: the same inputs always produce the
// same timeline, bit for bit.
//
// Time is modelled as float64 seconds. All durations in the repository
// are derived from byte counts divided by bandwidths or FLOP counts
// divided by throughputs, so float64 precision (~15 significant digits)
// is far beyond what the model claims.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time = float64

// Event is a scheduled callback. At and After return a new one, which
// the caller can cancel before it fires. A caller that schedules the
// same callback again and again can own one (NewEvent) and queue it
// with Schedule, which allocates nothing.
type Event struct {
	at    Time
	seq   uint64 // FIFO tie-breaker for events at the same instant
	fn    func()
	index int // heap index, -1 when not queued
}

// NewEvent returns an unqueued event that runs fn, for Schedule.
func NewEvent(fn func()) *Event { return &Event{fn: fn, index: -1} }

// At returns the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Pending reports whether the event is queued: neither fired nor
// cancelled since it was last scheduled.
func (e *Event) Pending() bool { return e.index >= 0 }

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	stepped uint64
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.stepped }

// At schedules fn to run at virtual time t. Scheduling in the past
// (t < Now) panics: it always indicates a logic error in a model, and
// silently clamping would hide it.
func (e *Engine) At(t Time, fn func()) *Event {
	ev := NewEvent(fn)
	e.Schedule(ev, t)
	return ev
}

// Schedule queues ev at virtual time t, or moves it there if it is
// pending; an event that fired or was cancelled may be queued again.
// Either way ev takes a fresh seq, so it fires after every event already
// queued for t — the order Cancel(ev) followed by At(t, fn) gives. t is
// checked as in At.
func (e *Engine) Schedule(ev *Event, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", t))
	}
	ev.at, ev.seq = t, e.seq
	e.seq++
	if ev.index >= 0 {
		heap.Fix(&e.queue, ev.index)
	} else {
		heap.Push(&e.queue, ev)
	}
}

// After schedules fn to run d seconds from now. Negative d panics.
func (e *Engine) After(d float64, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a pending event. Cancelling an event that already fired
// or was already cancelled is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev != nil && ev.index >= 0 {
		heap.Remove(&e.queue, ev.index)
		ev.index = -1
	}
}

// Step executes the next pending event and advances the clock to its
// timestamp. It returns false when no events remain.
func (e *Engine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	ev.index = -1
	e.now = ev.at
	e.stepped++
	ev.fn()
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t (even if no event fired at t).
func (e *Engine) RunUntil(t Time) {
	for e.queue.Len() > 0 && e.queue[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// eventHeap is a min-heap ordered by (at, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

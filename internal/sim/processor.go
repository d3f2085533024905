package sim

// Processor models a serial compute resource: a GPU executes one kernel
// at a time, so submitted work items run strictly in FIFO order with no
// overlap. Communication, modelled elsewhere, can overlap with compute
// because it uses different resources (links).
type Processor struct {
	eng  *Engine
	name string

	busy    bool
	queue   []workItem
	busyAcc float64 // total busy seconds, for utilization accounting
	curEnd  Time

	// OnSpan, if set, is called when a work item finishes, with the item
	// name and its [start, end) interval. Used by the trace recorder.
	OnSpan func(name string, start, end Time)
}

type workItem struct {
	name   string
	dur    float64
	onDone func()
}

// NewProcessor returns an idle processor bound to eng.
func NewProcessor(eng *Engine, name string) *Processor {
	return &Processor{eng: eng, name: name}
}

// Name returns the processor's name.
func (p *Processor) Name() string { return p.name }

// BusySeconds returns the cumulative time spent executing work.
func (p *Processor) BusySeconds() float64 { return p.busyAcc }

// Submit enqueues a work item of the given duration. onDone (may be nil)
// fires when the item completes. Zero-duration items are legal and
// complete via a zero-delay event, preserving FIFO ordering.
func (p *Processor) Submit(name string, dur float64, onDone func()) {
	if dur < 0 {
		panic("sim: negative work duration")
	}
	p.queue = append(p.queue, workItem{name: name, dur: dur, onDone: onDone})
	if !p.busy {
		p.startNext()
	}
}

func (p *Processor) startNext() {
	if len(p.queue) == 0 {
		p.busy = false
		return
	}
	item := p.queue[0]
	p.queue = p.queue[1:]
	p.busy = true
	start := p.eng.Now()
	p.curEnd = start + item.dur
	p.eng.After(item.dur, func() {
		p.busyAcc += item.dur
		if p.OnSpan != nil {
			p.OnSpan(item.name, start, p.eng.Now())
		}
		done := item.onDone
		p.startNext()
		if done != nil {
			done()
		}
	})
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the call; nothing inside the program is instrumented.
type span struct {
	id, parent int // parent 0: a root
	layer      string
	name       string
	workload   string
	start, end time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how an untraced run switches tracing off.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	nextID int
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open reserves an id, so children can name their parent before the
// parent's own span is closed.
func (r *recorder) open() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	return id
}

func (r *recorder) close(id, parent int, workload, layer, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		id: id, parent: parent, layer: layer, name: name, workload: workload,
		start: start.Sub(r.epoch), end: end.Sub(r.epoch),
	})
	r.mu.Unlock()
}

// record is open+close for a span without children.
func (r *recorder) record(parent int, workload, layer, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.close(r.open(), parent, workload, layer, name, start, end)
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// childCover returns, per parent id, how much of the parent's interval
// its direct children cover (overlapping children counted once). A
// span's self time is its duration minus this.
func childCover(spans []span) map[int]time.Duration {
	byParent := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			byParent[s.parent] = append(byParent[s.parent], s)
		}
	}
	cover := make(map[int]time.Duration, len(byParent))
	for p, kids := range byParent {
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var total, curStart, curEnd time.Duration
		curStart, curEnd = kids[0].start, kids[0].end
		for _, k := range kids[1:] {
			if k.start > curEnd {
				total += curEnd - curStart
				curStart, curEnd = k.start, k.end
			} else if k.end > curEnd {
				curEnd = k.end
			}
		}
		cover[p] = total + curEnd - curStart
	}
	return cover
}

// spanName carries id and parent through the Chrome trace format, which
// has no field for them: "Submit#41" is a root, "Serve#42^41" its child.
func spanName(s span) string {
	if s.parent == 0 {
		return fmt.Sprintf("%s:%s#%d", s.workload, s.name, s.id)
	}
	return fmt.Sprintf("%s:%s#%d^%d", s.workload, s.name, s.id, s.parent)
}

// writeChrome writes the spans as Chrome trace-event JSON (one thread per
// layer) through internal/trace's writer and returns the file path.
func (r *recorder) writeChrome(dir, workload string) (string, error) {
	var tl traceTimeline
	for _, s := range r.snapshot() {
		tl.AddSpan(s.layer, spanName(s), s.start.Seconds(), s.end.Seconds())
	}
	raw, err := tl.ChromeJSON()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

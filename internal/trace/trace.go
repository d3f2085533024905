// Package trace records simulation timelines: named spans on named
// resources (compute ops on GPUs, transfers on links) and point marks
// (block completions, expert arrivals). Figure 13 of the paper is a
// rendering of exactly this data.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Span is a half-open interval [Start, End) of activity on a resource.
type Span struct {
	Resource string
	Name     string
	Start    float64
	End      float64
}

// Duration returns End-Start.
func (s Span) Duration() float64 { return s.End - s.Start }

// Mark is an instantaneous named event.
type Mark struct {
	Name string
	At   float64
}

// Timeline accumulates spans and marks. The zero value is ready to use.
type Timeline struct {
	Spans []Span
	Marks []Mark
}

// AddSpan records a span. End < Start panics: it always means a model
// bug upstream.
func (t *Timeline) AddSpan(resource, name string, start, end float64) {
	if end < start {
		panic(fmt.Sprintf("trace: span %s/%s ends (%v) before it starts (%v)", resource, name, end, start))
	}
	t.Spans = append(t.Spans, Span{Resource: resource, Name: name, Start: start, End: end})
}

// AddMark records an instantaneous event.
func (t *Timeline) AddMark(name string, at float64) {
	t.Marks = append(t.Marks, Mark{Name: name, At: at})
}

// SpansOn returns the spans recorded on one resource, ordered by start.
func (t *Timeline) SpansOn(resource string) []Span {
	var out []Span
	for _, s := range t.Spans {
		if s.Resource == resource {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// MarksNamed returns marks whose name has the given prefix, ordered by
// time.
func (t *Timeline) MarksNamed(prefix string) []Mark {
	var out []Mark
	for _, m := range t.Marks {
		if strings.HasPrefix(m.Name, prefix) {
			out = append(out, m)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// MarkAt returns the time of the first mark with exactly this name, and
// whether it exists.
func (t *Timeline) MarkAt(name string) (float64, bool) {
	found := false
	var at float64
	for _, m := range t.Marks {
		if m.Name == name && (!found || m.At < at) {
			at = m.At
			found = true
		}
	}
	return at, found
}

// End returns the latest span end or mark time.
func (t *Timeline) End() float64 {
	var end float64
	for _, s := range t.Spans {
		if s.End > end {
			end = s.End
		}
	}
	for _, m := range t.Marks {
		if m.At > end {
			end = m.At
		}
	}
	return end
}

// Gantt renders an ASCII gantt chart of the given resources with the
// given number of character columns. Each row is one resource; a span
// covering a column paints it with the first letter of its name.
func (t *Timeline) Gantt(resources []string, cols int) string {
	end := t.End()
	if end <= 0 || cols <= 0 {
		return ""
	}
	var b strings.Builder
	width := 0
	for _, r := range resources {
		if len(r) > width {
			width = len(r)
		}
	}
	for _, r := range resources {
		row := make([]byte, cols)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range t.SpansOn(r) {
			c0 := int(s.Start / end * float64(cols))
			c1 := int(s.End / end * float64(cols))
			if c1 == c0 {
				c1 = c0 + 1
			}
			ch := byte('#')
			if len(s.Name) > 0 {
				ch = s.Name[0]
			}
			for c := c0; c < c1 && c < cols; c++ {
				row[c] = ch
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", width, r, string(row))
	}
	fmt.Fprintf(&b, "%-*s  0%*s%.1fms\n", width, "", cols-6, "", end*1e3)
	return b.String()
}

package trace

import (
	"fmt"
	"strings"
)

// Renderings only the tests read: the simulator and the benchmark emit
// ChromeJSON, and callers that need a resource's busy time sum SpansOn.

// BusyOn returns the summed span durations on a resource.
func (t *Timeline) BusyOn(resource string) float64 {
	var sum float64
	for _, s := range t.Spans {
		if s.Resource == resource {
			sum += s.Duration()
		}
	}
	return sum
}

// CSV renders "resource,name,start,end" rows for all spans followed by
// "mark,<name>,<at>," rows for all marks.
func (t *Timeline) CSV() string {
	var b strings.Builder
	b.WriteString("resource,name,start,end\n")
	for _, s := range t.Spans {
		fmt.Fprintf(&b, "%s,%s,%.9f,%.9f\n", s.Resource, s.Name, s.Start, s.End)
	}
	for _, m := range t.Marks {
		fmt.Fprintf(&b, "mark,%s,%.9f,\n", m.Name, m.At)
	}
	return b.String()
}

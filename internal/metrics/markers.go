package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Marker annotates an instant of a run with a phase-boundary label so
// traces can be read the way the paper's figures are ("the merge phase
// is the 280-400s interval"). A job's internal/exec.Record derives one
// from every phase boundary and event it logs.
type Marker struct {
	At    time.Duration
	Label string
}

// AnnotatedASCII renders the trace with a marker ruler underneath:
// each phase-start marker appears as a caret column labelled in a
// legend, so phase intervals can be read off the chart. Markers are on
// the trace's clock; each lands in column (At - Start) / Bucket.
func (tr *Trace) AnnotatedASCII(height int, markers []Marker) string {
	base := tr.ASCII(height)
	if len(markers) == 0 || len(tr.Samples) == 0 {
		return base
	}
	cols := len(tr.Samples)
	ruler := []byte(strings.Repeat(" ", cols))
	var legend []string
	n := 0
	for _, m := range markers {
		at := m.At - tr.Start
		col := int(at / tr.Bucket)
		if col < 0 || col >= cols {
			continue
		}
		n++
		tag := byte('0' + n%10)
		ruler[col] = tag
		legend = append(legend, fmt.Sprintf("%c=%s@%.1fs", tag, m.Label, at.Seconds()))
	}
	var b strings.Builder
	b.WriteString(base)
	fmt.Fprintf(&b, "      |%s|\n", ruler)
	fmt.Fprintf(&b, "      markers: %s\n", strings.Join(legend, "  "))
	return b.String()
}

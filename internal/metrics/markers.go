package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Marker annotates an instant of a run with a phase-boundary label so
// traces can be read the way the paper's figures are ("the merge phase
// is the 280-400s interval"). The Timer emits markers automatically
// when wired with WithMarkers.
type Marker struct {
	At    time.Duration
	Label string
}

// WithMarkers makes the timer log "phase start/end" markers, read back
// with Markers.
func (t *Timer) WithMarkers() *Timer {
	t.mu.Lock()
	t.marking = true
	t.mu.Unlock()
	return t
}

// Markers returns a time-sorted snapshot of the logged markers.
func (t *Timer) Markers() []Marker {
	t.mu.Lock()
	out := append([]Marker(nil), t.markers...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Mark logs a free-form event marker (e.g. "ingest stall") at the
// current time; without WithMarkers it is a no-op. Event markers render
// on the same trace ruler as phase boundaries, so stalls can be read off
// a utilization chart the way the paper reads the ingest/compute gap in
// Fig. 1.
func (t *Timer) Mark(label string) {
	t.mu.Lock()
	t.mark(t.now(), label)
	t.mu.Unlock()
}

// mark logs a marker when marking is on; t.mu must be held.
func (t *Timer) mark(at time.Duration, label string) {
	if t.marking {
		t.markers = append(t.markers, Marker{At: at, Label: label})
	}
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

// markerLabel builds a phase-boundary label.
func markerLabel(p Phase, boundary string) string {
	return p.String() + ":" + boundary
}

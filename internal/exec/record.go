package exec

import (
	"sort"
	"sync"
	"time"

	"supmr/internal/metrics"
)

// Record is one job's log on the job clock, in the order things
// happened: every ForEach and GoIO call (task count, queue wait, busy
// time, activity spans, the bytes its IO lane carried), every phase
// boundary and every event. Each report of a job — PhaseTimes, markers,
// task stats, lane bytes, the trace's spans — is read from it, so no two
// can disagree about what the job ran. A pool owns one for its own
// submissions; a multi-job engine gives each submission its own.
//
// A run reads its own window: Mark notes where the record stood, and
// each reader takes only the entries logged after a mark — by position,
// not by clock, since a simulated clock stamps many entries at one
// instant. The zero Mark is the record's start.
type Record struct {
	now   func() time.Duration
	lanes int
	mu    sync.Mutex
	log   []entry // append-only: a logged entry never changes
}

// Mark is a position in a Record: the entries logged before it, and the
// job-clock reading when it was taken.
type Mark struct {
	n  int
	At time.Duration
}

// Entry kinds: a ForEach or GoIO call, a phase opened or closed, an event.
const (
	taskEntry = iota
	startEntry
	endEntry
	eventEntry
)

type entry struct {
	kind  int
	phase metrics.Phase     // a boundary's
	at    time.Duration     // a boundary's or event's instant
	label string            // a task's phase label, or an event's text
	stats metrics.TaskStats // a task's, with the bytes its IO lane carried
	lane  int
	bytes int64
	spans []metrics.Segment // a task's non-empty activity spans
}

// NewRecord builds an empty record that stamps boundaries and events
// with now and attributes IO bytes across lanes IO lanes.
func NewRecord(lanes int, now func() time.Duration) *Record {
	return &Record{now: now, lanes: max(lanes, 1)}
}

func (r *Record) add(e entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, e)
}

// Mark notes where the record stands now: the start of a run's window.
func (r *Record) Mark() Mark {
	at := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return Mark{n: len(r.log), At: at}
}

// StartPhase opens phase p. A phase may open and close repeatedly (the
// SupMR pipeline's rounds); its closed intervals add up.
func (r *Record) StartPhase(p metrics.Phase) {
	r.add(entry{kind: startEntry, phase: p, at: r.now()})
}

// EndPhase closes phase p; closing a phase that is not open counts
// nothing.
func (r *Record) EndPhase(p metrics.Phase) {
	r.add(entry{kind: endEntry, phase: p, at: r.now()})
}

// Event marks a free-form event (e.g. "ingest stall") now. Events land
// on the trace ruler beside the phase boundaries, so stalls can be read
// off a utilization chart the way the paper reads the ingest/compute
// gap in Fig. 1.
func (r *Record) Event(label string) {
	r.add(entry{kind: eventEntry, label: label, at: r.now()})
}

// task logs one ForEach or GoIO call, keeping its non-empty spans.
func (r *Record) task(label string, st metrics.TaskStats, lane int, bytes int64, spans []metrics.Segment) {
	kept := spans[:0]
	for _, sp := range spans {
		if sp.End > sp.Start {
			kept = append(kept, sp)
		}
	}
	r.add(entry{kind: taskEntry, label: label, stats: st, lane: lane, bytes: bytes, spans: kept})
}

// window returns the entries logged after m. They never change, so the
// caller reads them without the lock.
func (r *Record) window(m Mark) []entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log[m.n:len(r.log):len(r.log)]
}

// Times is each phase's closed intervals after m, summed, with Total
// from m to now.
func (r *Record) Times(m Mark) metrics.PhaseTimes {
	t := r.replay(m, nil)
	t.Total = r.now() - m.At
	return t
}

// Markers returns the phase boundaries ("<phase>:start", "<phase>:end")
// and events after m, in time order.
func (r *Record) Markers(m Mark) []metrics.Marker {
	var ms []metrics.Marker
	r.replay(m, &ms)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].At < ms[j].At })
	return ms
}

// replay walks the boundaries after m: a start (re)opens its phase, an
// end closes an open one and adds the interval, and an end with no open
// start is dropped. With ms set it collects the boundaries that count,
// and the events, as markers.
func (r *Record) replay(m Mark, ms *[]metrics.Marker) (t metrics.PhaseTimes) {
	open := make(map[metrics.Phase]time.Duration)
	mark := func(at time.Duration, label string) {
		if ms != nil {
			*ms = append(*ms, metrics.Marker{At: at, Label: label})
		}
	}
	for _, e := range r.window(m) {
		switch e.kind {
		case startEntry:
			open[e.phase] = e.at
			mark(e.at, e.phase.String()+":start")
		case endEntry:
			if start, ok := open[e.phase]; ok {
				delete(open, e.phase)
				t.Add(e.phase, e.at-start)
				mark(e.at, e.phase.String()+":end")
			}
		case eventEntry:
			mark(e.at, e.label)
		}
	}
	return t
}

// TaskStats folds the task calls after m per phase label.
func (r *Record) TaskStats(m Mark) map[string]metrics.TaskStats {
	out := make(map[string]metrics.TaskStats)
	for _, e := range r.window(m) {
		if e.kind == taskEntry {
			st := out[e.label]
			st.Add(e.stats)
			out[e.label] = st
		}
	}
	return out
}

// LaneBytes is the payload bytes each IO lane carried for tasks labelled
// label after m, indexed by lane.
func (r *Record) LaneBytes(m Mark, label string) []int64 {
	out := make([]int64, r.lanes)
	for _, e := range r.window(m) {
		if e.kind == taskEntry && e.label == label && e.lane >= 0 && e.lane < len(out) {
			out[e.lane] += e.bytes
		}
	}
	return out
}

// Spans returns the activity spans of the task calls after m.
func (r *Record) Spans(m Mark) []metrics.Segment {
	var out []metrics.Segment
	for _, e := range r.window(m) {
		out = append(out, e.spans...)
	}
	return out
}

package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"supmr"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Parent is the id of the span that caused it
// (0 for a root); spans of one iteration share Workload and Iter.
type span struct {
	ID       int
	Parent   int
	Name     string
	Workload string
	Iter     int
	Start    time.Duration
	End      time.Duration
	Bytes    int64
	Pairs    int64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark exits. A nil tracer
// records nothing, which is how the timed pass runs with tracing off.
type tracer struct {
	mu       sync.Mutex
	spans    []span
	workload string
	iter     int
}

func newTracer() *tracer { return &tracer{} }

// scope labels the spans that follow with their workload and iteration.
func (t *tracer) scope(workload string, iter int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.workload, t.iter = workload, iter
	t.mu.Unlock()
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Duration, bytes, pairs int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload,
		Iter: t.iter, Start: start, End: end, Bytes: bytes, Pairs: pairs})
	return id
}

// open starts a span whose end is filled in by close, for spans that
// must exist before their children do.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	at := clk.Now()
	return t.add(name, parent, at, at, 0, 0)
}

func (t *tracer) close(id int, bytes, pairs int64) {
	if t == nil || id == 0 {
		return
	}
	at := clk.Now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Bytes, s.Pairs = at, bytes, pairs
	t.mu.Unlock()
}

// timed runs fn under a span and returns how long it took. It works
// with a nil tracer too, so the driver chain has one code path.
func (t *tracer) timed(name string, parent int, bytes int64, fn func() error) (time.Duration, error) {
	start := clk.Now()
	err := fn()
	end := clk.Now()
	t.add(name, parent, start, end, bytes, 0)
	return end - start, err
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// phaseSpans turns a traced run's phase-boundary markers
// ("read+map:start" ... "read+map:end") into child spans of root.
// Phases open and close many times in pipelined modes; each interval
// becomes its own span.
func (t *tracer) phaseSpans(root int, markers []supmr.TraceMarker) {
	if t == nil {
		return
	}
	open := map[string]time.Duration{}
	for _, m := range markers {
		name, edge, ok := strings.Cut(m.Label, ":")
		if !ok {
			continue
		}
		switch edge {
		case "start":
			open[name] = m.At
		case "end":
			if at, ok := open[name]; ok {
				t.add("phase."+name, root, at, m.At, 0, 0)
				delete(open, name)
			}
		}
	}
}

// selfTime is a span's duration minus the part of its interval its
// child spans cover (overlapping children are counted once).
func selfTime(spans []span, id int) time.Duration {
	var parent span
	var kids []span
	for _, s := range spans {
		if s.ID == id {
			parent = s
		}
		if s.Parent == id {
			kids = append(kids, s)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered time.Duration
	edge := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return parent.dur() - covered
}

// writeChromeTrace writes the spans in Chrome trace-event format
// (chrome://tracing, Perfetto): one complete ("X") event per span, one
// process per workload, one thread per iteration.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	pids := map[string]int{}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		pid, ok := pids[s.Workload]
		if !ok {
			pid = len(pids) + 1
			pids[s.Workload] = pid
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: pid, Tid: s.Iter,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload,
				"iter": s.Iter, "bytes": s.Bytes, "pairs": s.Pairs},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// heapSampler polls the live-object heap every 5 ms and keeps the peak.
// It runs only in the traced pass; its cost is part of
// trace.overhead_ratio.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopPeak stops the sampler, waits for it, and returns the peak bytes.
func (h *heapSampler) stopPeak() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

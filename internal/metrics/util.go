package metrics

import (
	"fmt"
	"strings"
	"time"
)

// WorkerState classifies what a worker (thread analog) is doing, the three
// collectl categories the paper's utilization figures stack: user-space
// compute, kernel-space work (data copies during ingest), and IO wait.
type WorkerState int

// Worker states.
const (
	StateIdle   WorkerState = iota
	StateUser               // user-space compute: map/reduce/merge/sort
	StateSys                // kernel-space: memcpy of ingested data, allocation
	StateIOWait             // blocked on storage or network
)

// String names the state.
func (s WorkerState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateUser:
		return "user"
	case StateSys:
		return "sys"
	case StateIOWait:
		return "iowait"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// SeriesPoint is one sample of a cumulative counter over the job
// timeline — e.g. bytes spilled to the intermediate store by time T.
// Reports plot the series alongside the utilization trace.
type SeriesPoint struct {
	T time.Duration
	V int64
}

// Segment is one interval of activity on a job clock: how many worker
// contexts are in each state between Start and End. Fractional counts
// are allowed (the performance model charges its ingest thread 0.3
// contexts of sys time for the kernel-side copy of incoming data); an
// executor task span is one context in its state (WorkerState.Segment).
type Segment struct {
	Start, End time.Duration
	User       float64
	Sys        float64
	IOWait     float64
}

// Segment is one context in state s over [start, end); idle is no
// activity.
func (s WorkerState) Segment(start, end time.Duration) Segment {
	seg := Segment{Start: start, End: end}
	switch s {
	case StateUser:
		seg.User = 1
	case StateSys:
		seg.Sys = 1
	case StateIOWait:
		seg.IOWait = 1
	}
	return seg
}

// Sample is one bucket of the reconstructed utilization trace. The
// percentages are of total machine capacity (contexts * bucket), matching
// the y axis of the paper's figures.
type Sample struct {
	T      time.Duration // bucket start, relative to Trace.Start
	User   float64       // % of capacity in user state
	Sys    float64       // % of capacity in sys state
	IOWait float64       // % of capacity in IO wait
}

// Total returns the stacked height user+sys+iowait.
func (s Sample) Total() float64 { return s.User + s.Sys + s.IOWait }

// Trace is a utilization time series over [Start, Start+Duration())
// of a job clock; sample times are relative to Start.
type Trace struct {
	Start   time.Duration
	Bucket  time.Duration
	Samples []Sample
}

// Duration returns the covered time span.
func (t *Trace) Duration() time.Duration {
	return time.Duration(len(t.Samples)) * t.Bucket
}

// MeanUser returns the average user% across the trace.
func (t *Trace) MeanUser() float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range t.Samples {
		sum += s.User
	}
	return sum / float64(len(t.Samples))
}

// MeanTotal returns the average stacked utilization across the trace.
func (t *Trace) MeanTotal() float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range t.Samples {
		sum += s.Total()
	}
	return sum / float64(len(t.Samples))
}

// BuildTrace integrates segments into a collectl-style utilization
// trace covering [start, end) of their clock — a job's trace is rooted
// at the job's start, whatever the clock read when it began — with the
// given bucket width, normalized to contexts and clamped to [0, 100] %.
// end <= start extends the trace to the last segment's end.
func BuildTrace(segs []Segment, contexts int, bucket, start, end time.Duration) *Trace {
	if bucket <= 0 {
		bucket = time.Second
	}
	if contexts <= 0 {
		contexts = 1
	}
	if end <= start {
		for _, s := range segs {
			end = max(end, s.End)
		}
		if end <= start {
			end = start + bucket
		}
	}
	n := int((end - start + bucket - 1) / bucket)
	type acc struct{ user, sys, iowait float64 } // context-seconds
	buckets := make([]acc, n)
	for _, s := range segs {
		for t, to := max(s.Start, start), min(s.End, end); t < to; {
			bi := int((t - start) / bucket)
			seg := min(start+time.Duration(bi+1)*bucket, to) - t
			sec := seg.Seconds()
			buckets[bi].user += s.User * sec
			buckets[bi].sys += s.Sys * sec
			buckets[bi].iowait += s.IOWait * sec
			t += seg
		}
	}

	capacity := float64(contexts) * bucket.Seconds()
	pct := func(v float64) float64 { return min(max(100*v/capacity, 0), 100) }
	tr := &Trace{Start: start, Bucket: bucket, Samples: make([]Sample, n)}
	for i, b := range buckets {
		tr.Samples[i] = Sample{T: time.Duration(i) * bucket, User: pct(b.user), Sys: pct(b.sys), IOWait: pct(b.iowait)}
	}
	return tr
}

// ASCII renders the trace as a stacked text chart: rows are utilization
// bands from 100% down to 0%, columns are buckets. 'u' marks user, 's'
// sys, 'w' IO wait, matching the figure legends.
func (t *Trace) ASCII(height int) string {
	if height <= 0 {
		height = 20
	}
	cols := len(t.Samples)
	if cols == 0 {
		return "(empty trace)\n"
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	round := func(pct float64) int {
		h := int(pct/100*float64(height) + 0.5)
		if h == 0 && pct > 0.5 {
			h = 1 // keep low-but-real activity visible (e.g. 1 IO thread of 32)
		}
		return h
	}
	for c, s := range t.Samples {
		// Stack from the bottom: user, then sys, then iowait.
		uh := round(s.User)
		sh := round(s.Sys)
		wh := round(s.IOWait)
		if uh+sh+wh > height {
			over := uh + sh + wh - height
			if wh >= over {
				wh -= over
			} else if sh >= over {
				sh -= over
			} else {
				uh -= over
			}
		}
		row := height - 1
		for i := 0; i < uh && row >= 0; i++ {
			grid[row][c] = 'u'
			row--
		}
		for i := 0; i < sh && row >= 0; i++ {
			grid[row][c] = 's'
			row--
		}
		for i := 0; i < wh && row >= 0; i++ {
			grid[row][c] = 'w'
			row--
		}
	}
	var b strings.Builder
	for i, line := range grid {
		pct := 100 * (height - i) / height
		fmt.Fprintf(&b, "%3d%% |%s|\n", pct, line)
	}
	fmt.Fprintf(&b, "      %s\n", strings.Repeat("-", cols))
	fmt.Fprintf(&b, "      0%stime%s%v\n", strings.Repeat(" ", max(0, cols/2-4)), strings.Repeat(" ", max(0, cols-cols/2-8)), t.Duration().Round(time.Millisecond))
	fmt.Fprintf(&b, "      legend: u=user s=sys w=iowait  bucket=%v\n", t.Bucket)
	return b.String()
}

// CSV exports the trace as "t_seconds,user,sys,iowait" rows for plotting.
func (t *Trace) CSV() string {
	var b strings.Builder
	b.WriteString("t_seconds,user_pct,sys_pct,iowait_pct\n")
	for _, s := range t.Samples {
		fmt.Fprintf(&b, "%.3f,%.2f,%.2f,%.2f\n", s.T.Seconds(), s.User, s.Sys, s.IOWait)
	}
	return b.String()
}

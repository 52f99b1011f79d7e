package main

import (
	"fmt"
	"runtime"
	"time"

	"supmr"
)

// variant adjusts a job's configuration for one run. The zero variant
// runs the workload as defined.
type variant struct {
	name string
	mut  func(*supmr.Config)
	// dropsMode marks variants that switch off the mode a workload exists
	// to exercise, so its "mode really ran" assertion must be skipped.
	dropsMode bool
	// serial makes an engine batch run its submissions one after another
	// from one client, for variants that take the engine away.
	serial bool
}

var (
	asDefined = variant{name: "as-defined"}
	// tracedRun turns on the program's own utilization recorder and
	// phase markers — the tracing whose overhead the traced pass reports.
	tracedRun = variant{name: "traced", mut: func(c *supmr.Config) { c.TraceContexts = runtime.GOMAXPROCS(0) }}
	// traditional is the Phoenix++-style baseline of Table II: ingest
	// everything, one map wave, reduce, pairwise merge.
	traditional = variant{name: "traditional", dropsMode: true, serial: true, mut: func(c *supmr.Config) {
		c.Runtime = supmr.RuntimeTraditional
		c.Memo, c.MemoStore, c.Nodes, c.MemoryBudget, c.Engine = false, nil, 0, 0, nil
	}}
	memoOff    = variant{name: "memo-off", dropsMode: true, mut: func(c *supmr.Config) { c.Memo, c.MemoStore = false, nil }}
	singleNode = variant{name: "single-node", dropsMode: true, mut: func(c *supmr.Config) { c.Nodes = 0 }}
	soloRun    = variant{name: "solo", serial: true, mut: func(c *supmr.Config) { c.Engine = nil }}
)

// iterOut is what one run of one job leaves behind.
type iterOut struct {
	name    string
	start   time.Duration // on clk
	dur     time.Duration // Run call to Report returned
	alloc   uint64        // TotalAlloc delta around the timed region
	io      ioCounts      // device counters' delta around the timed region
	stats   supmr.Stats
	times   supmr.PhaseTimes
	markers []supmr.TraceMarker
	err     error
	// verify checks the output against the reference; it runs after the
	// timed region so digesting is never billed to the job.
	verify func() error
	// subs are the submissions of an engine batch.
	subs []iterOut
}

// member is a job with its type parameters erased, so workloads can mix
// applications.
type member interface {
	exec(i int, v variant) iterOut
	chain(i int, tr *tracer, parent int) (chainOut, error)
	bytes() int64
	name() string
	config() supmr.Config
}

// job is one application over one pre-generated input, with the digest
// its output must have.
type job[K comparable, V any] struct {
	label string
	app   supmr.Job[K, V]
	cont  func() supmr.Container[K, V]
	// input returns iteration i's file and reference digest. Only the
	// append workload's input depends on i.
	input func(i int) (supmr.Input, string)
	size  int64
	cfg   supmr.Config
	// assert checks that the mode the workload exists for really ran, so
	// a silently disabled mode cannot post a fast number.
	assert func(*supmr.Stats) error
}

func (j *job[K, V]) bytes() int64 { return j.size }

func (j *job[K, V]) config() supmr.Config { return j.cfg }

func (j *job[K, V]) name() string { return j.label }

// describeJob is the exact configuration recorded in the result file.
func describeJob(label string, size int64, c supmr.Config) map[string]any {
	return map[string]any{
		"job": label, "input_bytes": size, "runtime": c.Runtime.String(), "chunk_bytes": c.ChunkBytes,
		"io_lanes": c.IOLanes, "prefetch_depth": c.PrefetchDepth, "memory_budget": c.MemoryBudget,
		"egress_lanes": c.EgressLanes, "nodes": c.Nodes, "memo": c.Memo, "engine": c.Engine != nil,
		"tenant": c.Tenant, "workers": runtime.GOMAXPROCS(0),
	}
}

func (j *job[K, V]) exec(i int, v variant) iterOut {
	cfg := j.cfg
	if v.mut != nil {
		v.mut(&cfg)
	}
	file, want := j.input(i)
	cont := j.cont()
	out := iterOut{name: j.label, start: clk.Now()}
	rep, err := supmr.RunFile(j.app, file, cont, cfg)
	out.dur = clk.Now() - out.start
	if err != nil {
		out.err = fmt.Errorf("%s (%s): %w", j.label, v.name, err)
		return out
	}
	out.stats, out.times, out.markers = rep.Stats, rep.Times, rep.Markers
	out.verify = func() error {
		if rep.Egress != nil {
			defer rep.Egress.Close()
			b, err := rep.Egress.Bytes()
			if err != nil {
				return fmt.Errorf("%s (%s): read egress: %w", j.label, v.name, err)
			}
			if got := digestBytes(b); got != want {
				return fmt.Errorf("%s (%s): egressed bytes digest %.12s, want %.12s", j.label, v.name, got, want)
			}
		}
		if got := digestPairs(rep.Pairs); got != want {
			return fmt.Errorf("%s (%s): output digest %.12s, want %.12s", j.label, v.name, got, want)
		}
		if j.assert != nil && !v.dropsMode {
			if err := j.assert(&rep.Stats); err != nil {
				return fmt.Errorf("%s (%s): %w", j.label, v.name, err)
			}
		}
		return nil
	}
	return out
}

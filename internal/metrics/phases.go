// Package metrics provides the measurement vocabulary of the
// reproduction: the per-phase times of Table II (PhaseTimes, recorded by
// a job's internal/exec.Record the way Phoenix++'s internal timing
// functions record them for the paper), and a collectl-style CPU
// utilization trace (BuildTrace) that reconstructs the user/sys/IO-wait
// series of Figures 1, 3, 5, 6 and 7 from activity segments — a job's
// task spans, or the performance model's synthetic ones.
package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Phase identifies one MapReduce job phase. The paper's Table II reports
// read (ingest), map, reduce and merge; SupMR runs report the fused
// read+map pipeline under PhaseReadMap.
type Phase int

// Job phases in execution order.
const (
	PhaseSetup Phase = iota
	PhaseRead
	PhaseMap
	PhaseReadMap // fused ingest/map rounds of the SupMR pipeline
	PhaseSpill   // budget-triggered container drains (internal/spill)
	PhaseMemo    // memo-cache lookups, per-chunk drains and publishes (internal/memo)
	PhaseShuffle // framed inter-node run exchange over netsim links (internal/shuffle)
	PhaseReduce
	PhaseRunSort // per-run sorting (radix or comparison) feeding the merge
	PhaseMerge
	PhaseEgress // parallel output materialization across the IO lanes (internal/egress)
	PhaseCleanup
	numPhases
)

// String returns the lowercase phase name used in reports.
func (p Phase) String() string {
	switch p {
	case PhaseSetup:
		return "setup"
	case PhaseRead:
		return "read"
	case PhaseMap:
		return "map"
	case PhaseReadMap:
		return "read+map"
	case PhaseSpill:
		return "spill"
	case PhaseMemo:
		return "memo"
	case PhaseShuffle:
		return "shuffle"
	case PhaseReduce:
		return "reduce"
	case PhaseRunSort:
		return "runsort"
	case PhaseMerge:
		return "merge"
	case PhaseEgress:
		return "egress"
	case PhaseCleanup:
		return "cleanup"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// PhaseTimes records wall-clock duration per phase plus the job total,
// the row format of Table II.
type PhaseTimes struct {
	durs  [numPhases]time.Duration
	Total time.Duration
}

// Set stores the duration for phase p.
func (t *PhaseTimes) Set(p Phase, d time.Duration) { t.durs[p] = d }

// Add accumulates d into phase p (SupMR rounds add into read+map).
func (t *PhaseTimes) Add(p Phase, d time.Duration) { t.durs[p] += d }

// Get returns the duration recorded for phase p.
func (t PhaseTimes) Get(p Phase) time.Duration { return t.durs[p] }

// String formats the row like the paper's table: total then phases.
func (t PhaseTimes) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%v", t.Total.Round(time.Millisecond))
	for p := PhaseRead; p < numPhases; p++ {
		if d := t.durs[p]; d > 0 {
			fmt.Fprintf(&b, " %s=%v", p, d.Round(time.Millisecond))
		}
	}
	return b.String()
}

// Table2Row holds one labelled row of a Table II style report.
type Table2Row struct {
	Label  string // chunk size: "none", "1GB", "50GB", ...
	Times  PhaseTimes
	Fused  bool // read+map fused (SupMR) vs separate (baseline)
	Merged bool // p-way merge used
}

// FormatTable2 renders rows in the layout of the paper's Table II.
func FormatTable2(title string, rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s %12s\n", "chunk", "total", "read", "map", "reduce", "merge")
	for _, r := range rows {
		read := r.Times.Get(PhaseRead)
		mp := r.Times.Get(PhaseMap)
		if r.Fused {
			// The paper prints the fused read+map duration spanning the
			// read and map columns; render it in read with map marked.
			read = r.Times.Get(PhaseReadMap)
		}
		mapCell := fmtDur(mp)
		if r.Fused {
			mapCell = "(fused)"
		}
		fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s %12s\n",
			r.Label,
			fmtDur(r.Times.Total),
			fmtDur(read),
			mapCell,
			fmtDur(r.Times.Get(PhaseReduce)),
			// Table II's merge column covers the whole merge phase,
			// which internally splits into run-sort + merge proper.
			fmtDur(r.Times.Get(PhaseMerge)+r.Times.Get(PhaseRunSort)),
		)
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// Speedup returns a/b as a speedup factor (how many times faster b is
// than a), guarding against division by zero.
func Speedup(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

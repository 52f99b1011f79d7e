package metrics

import (
	"fmt"
	rtmetrics "runtime/metrics"
	"strings"
)

// AllocStats counts heap allocations attributed to one phase: object
// count and total bytes. The numbers are deltas of the process-wide
// runtime/metrics allocation counters sampled at phase boundaries, so
// they are approximate — any concurrent background allocation lands in
// whichever phase is open, and a P publishes its small-object counts
// only when its allocation cache swaps a span, so a boundary can lag by
// a span per size class — but on a quiet process they expose the map
// hot path's allocation behaviour directly (the flat combiner should
// show near-zero map-phase objects per round once its arenas are warm).
type AllocStats struct {
	Objects int64 // heap objects allocated during the phase
	Bytes   int64 // heap bytes allocated during the phase
}

// PhaseAllocs records allocation deltas per phase, the allocation
// analog of PhaseTimes.
type PhaseAllocs struct {
	stats [numPhases]AllocStats
}

// Get returns the allocation stats recorded for phase p.
func (a PhaseAllocs) Get(p Phase) AllocStats { return a.stats[p] }

// add accumulates d into phase p.
func (a *PhaseAllocs) add(p Phase, d AllocStats) {
	a.stats[p].Objects += d.Objects
	a.stats[p].Bytes += d.Bytes
}

// String formats the non-zero phases like "map=12objs/1.5KB"; empty
// when nothing was recorded.
func (a PhaseAllocs) String() string {
	var b strings.Builder
	for p := PhaseSetup; p < numPhases; p++ {
		s := a.stats[p]
		if s.Objects == 0 && s.Bytes == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%dobjs/%s", p, s.Objects, fmtBytes(s.Bytes))
	}
	return b.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// readAllocCounters samples the process's cumulative allocation
// counters through runtime/metrics, which does not stop the world.
// runtime.ReadMemStats does, and a drain-every-chunk run crosses four
// phase boundaries per chunk: each stop would cost as long as it takes
// to interrupt the IO lane and every compute worker, which depends on
// the machine's load rather than on the job.
func readAllocCounters() AllocStats {
	s := [...]rtmetrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"}, // counted apart from the blocks they are packed into
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(s[:])
	return AllocStats{
		Objects: int64(s[0].Value.Uint64() + s[1].Value.Uint64()),
		Bytes:   int64(s[2].Value.Uint64()),
	}
}

package core

import (
	"runtime"
	"time"

	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/egress"
	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/metrics"
	"supmr/internal/sortalgo"
)

func (o Options) withDefaults() Options {
	if o.Pool != nil {
		o.Workers = o.Pool.Workers()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Splits <= 0 {
		o.Splits = 4 * o.Workers
	}
	if o.Boundary == nil {
		o.Boundary = chunk.NewlineBoundary{}
	}
	return o
}

// Stats summarizes an execution.
type Stats struct {
	BytesIngested int64
	MapWaves      int
	Splits        int
	IntermediateN int // container entries after map
	Runs          int // sorted runs entering merge
	MergeRounds   int // pairwise rounds the merge algorithm performed
	RadixRuns     int // runs finished by the radix fast path, on an exact fixed-width key or a string order prefix with comparison tie-breaks (0 = all comparison): reduce runs fed to the scatter finish or radix-sorted before a pairwise merge; a drain counts its worker-sized groups, not its partitions
	OutputPairs   int
	SpilledRuns   int           // key-sorted runs the spill layer wrote to storage
	SpilledBytes  int64         // payload bytes the spill layer wrote to storage
	MapBusy       time.Duration // aggregate worker-busy time in map tasks: Tasks["map"].Busy
	ReduceBusy    time.Duration // aggregate worker-busy time in reduce tasks: Tasks["reduce"].Busy
	// PrefetchHits counts ingest rounds whose next chunk was already
	// cut, or its read done, when the map wave finished.
	PrefetchHits int
	// IngestStall is the total time map workers sat idle waiting for
	// the next chunk to arrive — the per-round slice of Fig. 1's
	// ingest/compute utilization gap.
	IngestStall time.Duration
	// IngestLaneBytes is the payload bytes each IO lane carried during
	// ingest, indexed by lane; nil when the job ran a single lane.
	IngestLaneBytes []int64
	// MemoHits counts ingest chunks whose map/combine output replayed
	// from the content-addressed memo cache, skipping the map wave.
	MemoHits int
	// MemoMisses counts ingest chunks that were mapped and published to
	// the memo cache (memoized runs only).
	MemoMisses int
	// MemoBytesSaved is the total payload bytes of memo-hit chunks —
	// input that was read and hashed but never mapped.
	MemoBytesSaved int64
	// ShuffleBytes is the framed intermediate bytes that crossed the
	// simulated inter-node links in a multi-node run. Local-partition
	// data never leaves its node and is not counted.
	ShuffleBytes int64
	// ShuffleBytesSaved is always 0.
	//
	// Deprecated: it was the encoded size of a node's per-chunk runs
	// minus that of their combined run, and with the combiner on a node
	// no longer produces per-chunk runs. What the in-node combiner saves
	// is the ShuffleBytes difference between a run and its
	// -innode-combiner=off ablation.
	ShuffleBytesSaved int64
	// ShuffleFrames counts frames delivered between nodes, keys-only
	// sample frames included (a torn frame counts once, when resent whole).
	ShuffleFrames int
	// EgressBytes is the merged-output bytes materialized by the
	// parallel egress phase (0 when egress was not requested).
	EgressBytes int64
	// EgressExtents counts the fixed-size extents the egress writer cut
	// the output into.
	EgressExtents int
	// EgressLaneBytes is the payload bytes each IO lane carried during
	// egress, indexed by lane; nil when egress ran a single lane.
	EgressLaneBytes []int64
	// EgressBusy and EgressStall aggregate the egress extent tasks'
	// lane-busy and queue-wait time — the per-lane utilization split of
	// the output tail the serial writer used to spend entirely stalled.
	EgressBusy  time.Duration
	EgressStall time.Duration
	// Tasks is the executor's per-phase task instrumentation: task
	// counts, queue-wait and busy durations keyed by phase label.
	Tasks map[string]metrics.TaskStats
	// Faults counts injected faults and retry outcomes when fault
	// injection or retries were configured (see internal/faults).
	Faults metrics.FaultStats
}

// Result is the job output: globally sorted pairs plus measurements,
// and the materialized output when Options.Egress was set.
type Result[K comparable, V any] struct {
	Pairs  []kv.Pair[K, V]
	Times  metrics.PhaseTimes
	Stats  Stats
	Egress *egress.Output
}

// MapWave runs one wave of mappers over data (§II): the chunk is cut
// into boundary-adjusted input splits and opts.Pool's compute workers
// emit into the container through per-task locals. It returns the split
// count. This is the body the SupMR run_mappers() wrapper invokes once
// per ingest chunk.
func MapWave[K comparable, V any](app kv.App[K, V], data []byte, cont container.Container[K, V], opts Options) (int, error) {
	opts = opts.withDefaults()
	splits := chunk.SplitBuffer(data, opts.Splits, opts.Boundary)
	// Bytes fast path: when the app can map straight from []byte keys and
	// the container's local can accept them, skip the per-key string
	// materialization entirely (the local interns keys into its arena).
	ba, baOK := any(app).(kv.BytesApp[V])
	_, err := opts.Pool.ForEach("map", metrics.StateUser, len(splits), func(i int) error {
		local := cont.NewLocal()
		if baOK {
			if be, ok := any(local).(kv.BytesEmitter[V]); ok {
				ba.MapBytes(splits[i], be)
				local.Flush()
				return nil
			}
		}
		app.Map(splits[i], local)
		local.Flush()
		return nil
	})
	return len(splits), err
}

// ReducePhase runs reducers over every container partition on
// opts.Pool, returning one unsorted run per non-empty partition. This
// is the body the SupMR run_reducers() wrapper invokes once at the end
// of the job.
func ReducePhase[K comparable, V any](app kv.App[K, V], cont container.Container[K, V], opts Options) ([][]kv.Pair[K, V], error) {
	parts := cont.Partitions()
	runs := make([][]kv.Pair[K, V], parts)
	sizer, _ := any(cont).(container.PartitionSizer)
	_, err := opts.Pool.ForEach("reduce", metrics.StateUser, parts, func(p int) error {
		var out []kv.Pair[K, V]
		if sizer != nil {
			if n := sizer.PartitionLen(p); n > 0 {
				out = make([]kv.Pair[K, V], 0, n)
			}
		}
		runs[p] = cont.Reduce(p, app.Reduce, out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := runs[:0]
	for _, r := range runs {
		if len(r) > 0 {
			out = append(out, r)
		}
	}
	return out, nil
}

// mergePhase sorts each run in parallel and merges them with the
// selected algorithm, returning the globally sorted output. It adds to
// stats how many runs took the radix fast path and raises MergeRounds
// to the pairwise rounds an iterative merge would perform. codec is the
// job's fixed-key codec, nil when the app has none or the ablation
// turned it off. Under the p-way merge a codec skips both steps:
// sortalgo.ScatterSort finishes the runs in one distribution round and
// every run counts as radix. The run-sort and merge halves are
// bracketed separately on the pool's record (PhaseRunSort vs
// PhaseMerge) so reports can attribute the sort-path speedup.
func mergePhase[K comparable, V any](app kv.App[K, V], runs [][]kv.Pair[K, V], codec *kv.FixedKeyCodec[K], opts Options, stats *Stats) ([]kv.Pair[K, V], error) {
	pool, rec := opts.Pool, opts.Pool.Record()
	rounds := sortalgo.Rounds(len(runs))
	if opts.Merge == sortalgo.MergePWay {
		rounds = 1
		if len(runs) <= 1 {
			rounds = 0
		}
	}
	stats.MergeRounds = max(stats.MergeRounds, rounds)
	if opts.Merge == sortalgo.MergePWay && codec != nil {
		merged, ok, err := sortalgo.ScatterSort(runs, app.Less, *codec, pool)
		if err != nil {
			return nil, err
		}
		if ok {
			stats.RadixRuns += len(runs)
			return merged, nil
		}
	}
	rec.StartPhase(metrics.PhaseRunSort)
	radixRuns, err := sortalgo.SortRunsWith(runs, app.Less, codec, pool)
	rec.EndPhase(metrics.PhaseRunSort)
	stats.RadixRuns += radixRuns
	if err != nil {
		return nil, err
	}
	rec.StartPhase(metrics.PhaseMerge)
	defer rec.EndPhase(metrics.PhaseMerge)
	return sortalgo.MergeWith(opts.Merge, runs, app.Less, codec, pool)
}

// writeEgress, the finish's last phase, writes the merged pairs as one
// "key\tvalue\n" line each (the digest encoding, so the bytes hash to
// the job's output digest and parse as a chained job's text input) in
// fixed-size extents, up to cfg.Lanes at once, on the pool's IO lanes,
// as tasks labelled "egress".
func writeEgress[K comparable, V any](cfg egress.Config, pool exec.Executor, pairs []kv.Pair[K, V]) (*egress.Output, error) {
	cfg.Pool = pool
	w, err := egress.NewWriter(cfg)
	if err != nil {
		return nil, err
	}
	if err := kv.WriteText(w, pairs); err != nil {
		return nil, err
	}
	return w.Close()
}

// Package mapreduce holds the phase primitives of the Phoenix++-style
// scale-up MapReduce runtime the paper starts from (§II, top of Fig. 2):
// mapper threads operate on input splits in parallel (MapWave), reducer
// threads coalesce intermediate pairs by key (ReducePhase), and a merge
// phase produces globally sorted output (MergePhase), iterative pairwise
// by default. SupMR's run_mappers()/run_reducers() are wrappers over
// exactly these primitives (Table I).
//
// The package has no job loop of its own. The traditional baseline —
// read the entire input, one map wave, reduce, pairwise merge — is
// internal/core's Run over a single whole-input chunk
// (chunk.NewWholeInput), the n = 1 case of the ingest chunk pipeline.
//
// Every primitive runs on an internal/exec pool — the job's persistent
// pool when Options.Pool is set — which carries the job's cancellation
// context, converts task panics into job errors, and feeds per-task
// instrumentation into internal/metrics.
package mapreduce

import (
	"runtime"
	"time"

	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/metrics"
	"supmr/internal/sortalgo"
)

// Options configure a runtime execution.
type Options struct {
	// Workers is the number of map/reduce/merge worker threads (the
	// paper's machine exposes 32 hardware contexts). Defaults to
	// runtime.NumCPU(). Ignored when Pool is set — the pool's size wins.
	Workers int
	// Splits is the number of input splits per map wave. Defaults to
	// 4 * Workers.
	Splits int
	// Merge selects the merge-phase algorithm (pairwise = original
	// Phoenix, p-way = SupMR's modification).
	Merge sortalgo.MergeAlgo
	// Boundary adjusts split points so no record straddles splits.
	Boundary chunk.Boundary
	// Timer records per-phase durations (optional).
	Timer *metrics.Timer
	// Pool is the job's execution engine. When nil, the phase primitives
	// create a transient pool (sized by Workers) for the call. The facade
	// sets it so one executor spans the whole job, with the job context
	// and clock attached — either a dedicated exec.Pool or a multi-job
	// engine's per-submission handle.
	Pool exec.Executor
	// RadixDisabled turns off the fixed-width-key sort fast path (the
	// scatter finish, the radix run sort and the merge tree's prefix
	// heads) — the -radixsort=off ablation. The zero value keeps the
	// fast path enabled for apps that opt in via kv.FixedKeyApp. Only
	// core.Run reads it: it resolves the one codec every phase uses.
	RadixDisabled bool
}

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

// pool returns the executor for a phase call: the job pool when
// configured, otherwise a transient pool the caller must release via the
// returned func. Options must already have defaults applied.
func (o Options) pool() (exec.Executor, func()) {
	if o.Pool != nil {
		return o.Pool, func() {}
	}
	p := exec.NewLocal(o.Workers)
	return p, p.Close
}

// Stats summarizes an execution.
type Stats struct {
	BytesIngested int64
	MapWaves      int
	Splits        int
	IntermediateN int // container entries after map
	Runs          int // sorted runs entering merge
	MergeRounds   int // pairwise rounds the merge algorithm performed
	RadixRuns     int // runs finished by the radix fast path (0 = all comparison): reduce runs fed to the scatter finish or radix-sorted before a pairwise merge; a drain counts its worker-sized groups, not its partitions
	OutputPairs   int
	SpilledRuns   int           // key-sorted runs the spill layer wrote to storage
	SpilledBytes  int64         // payload bytes the spill layer wrote to storage
	MapBusy       time.Duration // aggregate worker-busy time in map tasks
	ReduceBusy    time.Duration // aggregate worker-busy time in reduce tasks
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
	// ShuffleFrames counts framed run transfers delivered between
	// nodes (retries of torn frames resend and recount).
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

// Result is the job output: globally sorted pairs plus measurements.
type Result[K comparable, V any] struct {
	Pairs []kv.Pair[K, V]
	Times metrics.PhaseTimes
	Stats Stats
}

// MapWave runs one wave of mappers over data: the chunk is cut into
// boundary-adjusted input splits and the pool's compute workers emit
// into the container through per-task locals. This is the body the
// SupMR run_mappers() wrapper invokes once per ingest chunk.
func MapWave[K comparable, V any](app kv.App[K, V], data []byte, cont container.Container[K, V], opts Options) (int, error) {
	n, _, err := MapWaveTimed(app, data, cont, opts)
	return n, err
}

// MapWaveTimed is MapWave plus the wave's aggregate worker-busy time.
func MapWaveTimed[K comparable, V any](app kv.App[K, V], data []byte, cont container.Container[K, V], opts Options) (int, time.Duration, error) {
	opts = opts.withDefaults()
	pool, release := opts.pool()
	defer release()
	splits := chunk.SplitBuffer(data, opts.Splits, opts.Boundary)
	// Bytes fast path: when the app can map straight from []byte keys and
	// the container's local can accept them, skip the per-key string
	// materialization entirely (the local interns keys into its arena).
	ba, baOK := any(app).(kv.BytesApp[V])
	busy, err := pool.ForEach("map", metrics.StateUser, len(splits), func(i int) error {
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
	return len(splits), busy, err
}

// ReducePhase runs reducers over every container partition, returning
// one unsorted run per non-empty partition. This is the body the SupMR
// run_reducers() wrapper invokes once at the end of the job.
func ReducePhase[K comparable, V any](app kv.App[K, V], cont container.Container[K, V], opts Options) ([][]kv.Pair[K, V], error) {
	runs, _, err := ReducePhaseTimed(app, cont, opts)
	return runs, err
}

// ReducePhaseTimed is ReducePhase plus aggregate worker-busy time.
func ReducePhaseTimed[K comparable, V any](app kv.App[K, V], cont container.Container[K, V], opts Options) ([][]kv.Pair[K, V], time.Duration, error) {
	opts = opts.withDefaults()
	pool, release := opts.pool()
	defer release()
	parts := cont.Partitions()
	runs := make([][]kv.Pair[K, V], parts)
	sizer, _ := any(cont).(container.PartitionSizer)
	busy, err := pool.ForEach("reduce", metrics.StateUser, parts, func(p int) error {
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
		return nil, busy, err
	}
	out := runs[:0]
	for _, r := range runs {
		if len(r) > 0 {
			out = append(out, r)
		}
	}
	return out, busy, nil
}

// MergePhase sorts each run in parallel and merges them with the
// selected algorithm, returning the globally sorted output, the number
// of pairwise rounds an iterative merge would perform, and how many runs
// took the radix fast path. codec is the job's fixed-key codec, nil
// when the app has none or the ablation turned it off. Under the p-way
// merge a codec skips both steps: sortalgo.ScatterSort finishes the
// runs in one distribution round and every run counts as radix. When
// opts.Timer is set, the run-sort and merge halves are timed separately
// (PhaseRunSort vs PhaseMerge) so reports can attribute the sort-path
// speedup.
func MergePhase[K comparable, V any](app kv.App[K, V], runs [][]kv.Pair[K, V], codec *kv.FixedKeyCodec[K], opts Options) ([]kv.Pair[K, V], int, int, error) {
	opts = opts.withDefaults()
	pool, release := opts.pool()
	defer release()
	rounds := sortalgo.Rounds(len(runs))
	if opts.Merge == sortalgo.MergePWay {
		rounds = 1
		if len(runs) <= 1 {
			rounds = 0
		}
		if codec != nil {
			merged, ok, err := sortalgo.ScatterSort(runs, *codec, pool, opts.Timer)
			if err != nil {
				return nil, 0, 0, err
			}
			if ok {
				return merged, rounds, len(runs), nil
			}
		}
	}
	if opts.Timer != nil {
		opts.Timer.StartPhase(metrics.PhaseRunSort)
	}
	radixRuns, err := sortalgo.SortRunsWith(runs, app.Less, codec, pool)
	if opts.Timer != nil {
		opts.Timer.EndPhase(metrics.PhaseRunSort)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	if opts.Timer != nil {
		opts.Timer.StartPhase(metrics.PhaseMerge)
	}
	merged, err := sortalgo.MergeWith(opts.Merge, runs, app.Less, codec, pool)
	if opts.Timer != nil {
		opts.Timer.EndPhase(metrics.PhaseMerge)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	return merged, rounds, radixRuns, nil
}

package spill

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"supmr/internal/container"
	"supmr/internal/exec"
	"supmr/internal/faults"
	"supmr/internal/kv"
	"supmr/internal/metrics"
	"supmr/internal/sortalgo"
)

// Spiller drives the budget for one job: it decides when the container
// has outgrown its memory budget, drains it into a globally key-sorted
// slice (partial reduce — the same key may accumulate again in later
// rounds), writes that slice to the store asynchronously on the pool's
// IO lane, and finally streams every written run back — as
// sortalgo.Sources, or through Merge, the external merge itself
// (readback.go).
type Spiller[K comparable, V any] struct {
	store  *Store
	budget int64
	less   kv.Less[K]
	reduce func(K, []V) V
	kc     Codec[K]
	vc     Codec[V]
	fixed  *kv.FixedKeyCodec[K] // optional fixed-key fast path for drain sorts and the external merge

	pending *exec.Handle
	retry   *faults.Retrier // nil: no retry
	mu      sync.Mutex
	runs    []*Run
}

// NewSpiller builds the spill driver for app with the given budget in
// bytes. It fails up front when no codec exists for the app's key or
// value type, or when the budget is not positive.
func NewSpiller[K comparable, V any](store *Store, budget int64, app kv.App[K, V]) (*Spiller[K, V], error) {
	if store == nil {
		return nil, fmt.Errorf("spill: spiller requires a store")
	}
	if budget <= 0 {
		return nil, fmt.Errorf("spill: memory budget must be positive, got %d", budget)
	}
	kc, err := CodecFor[K]()
	if err != nil {
		return nil, fmt.Errorf("spill: key: %w", err)
	}
	vc, err := CodecFor[V]()
	if err != nil {
		return nil, fmt.Errorf("spill: value: %w", err)
	}
	return &Spiller[K, V]{
		store:  store,
		budget: budget,
		less:   app.Less,
		reduce: app.Reduce,
		kc:     kc,
		vc:     vc,
	}, nil
}

// SetRetry configures transient-fault retries for run writes. Backoff
// sleeps on the store device's clock so they land on the job timeline.
// ctr (may be nil) accumulates retry outcomes for the report.
func (sp *Spiller[K, V]) SetRetry(p faults.RetryPolicy, ctr *faults.Counters) {
	if !p.Enabled() {
		return
	}
	sp.retry = faults.NewRetrier(p, sp.store.Device().Clock(), ctr)
}

// SetFixedKey hands the spiller the app's fixed-key codec so drain
// sorts take the radix fast path and Merge's tree runs on prefix heads;
// nil keeps the comparison paths (the -radixsort=off ablation).
func (sp *Spiller[K, V]) SetFixedKey(c *kv.FixedKeyCodec[K]) { sp.fixed = c }

// Budget returns the configured budget in bytes.
func (sp *Spiller[K, V]) Budget() int64 { return sp.budget }

// Over reports whether the container's resident bytes exceed the
// budget — the check the pipeline runs between ingest rounds.
func (sp *Spiller[K, V]) Over(c container.Container[K, V]) bool {
	return c.SizeBytes() > sp.budget
}

// DrainContainer is the container-to-sorted-run primitive behind the
// budget spill path, the memo cache's per-chunk drains and the
// multi-node drains: the partitions are split into one contiguous group
// per compute worker, each group is reduced into one presized slice and
// sorted once, and the few large runs — partitions hold disjoint keys,
// so the groups do too — finish through the parallel p-way merge. All
// of it runs on the pool under label. The container is Reset. The
// partial reduce requires reduce to be associative and tolerant of
// re-reducing its own output — the standing combiner contract. A
// non-nil fixed-key codec routes the group sorts through the radix
// fast path and gives the merge tree prefix heads; post-reduce groups
// have unique keys, so the output is byte-identical either way.
// The int return counts the group sorts that took the radix path (the
// Stats.RadixRuns contribution): at most one per worker, not one per
// partition.
func DrainContainer[K comparable, V any](c container.Container[K, V], less kv.Less[K],
	reduce func(K, []V) V, fixed *kv.FixedKeyCodec[K], pool exec.Executor, label string) ([]kv.Pair[K, V], int, error) {
	parts := c.Partitions()
	groups := max(1, min(pool.Workers(), parts))
	sizer, _ := any(c).(container.PartitionSizer)
	runs := make([][]kv.Pair[K, V], groups)
	var radixed atomic.Int64
	_, err := pool.ForEach(label, metrics.StateUser, groups, func(g int) error {
		lo, hi := g*parts/groups, (g+1)*parts/groups
		var r []kv.Pair[K, V]
		if sizer != nil {
			n := 0
			for p := lo; p < hi; p++ {
				n += sizer.PartitionLen(p)
			}
			r = make([]kv.Pair[K, V], 0, n)
		}
		for p := lo; p < hi; p++ {
			r = c.Reduce(p, reduce, r)
		}
		if fixed != nil && sortalgo.RadixSortPairs(r, less, *fixed) {
			radixed.Add(1)
		} else {
			kv.SortPairs(r, less)
		}
		runs[g] = r
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	c.Reset()
	merged, err := sortalgo.PWayMergeWith(runs, less, fixed, relabelled{pool, label})
	return merged, int(radixed.Load()), err
}

// relabelled bills the tasks of a callee that names its own phase (the
// p-way merge says "merge") to the caller's label instead.
type relabelled struct {
	exec.Executor
	label string
}

func (r relabelled) ForEach(_ string, state metrics.WorkerState, n int, fn func(int) error) (time.Duration, error) {
	return r.Executor.ForEach(r.label, state, n, fn)
}

// SpillAsync writes the drained pairs as one run on the pool's IO lane
// and returns immediately; the write queues behind any in-flight
// prefetch and executes while the next map round computes, showing up
// as IO-wait on the IO worker. At most one spill write may be in
// flight: callers Join before the next SpillAsync and before merging.
func (sp *Spiller[K, V]) SpillAsync(pairs []kv.Pair[K, V], pool exec.Executor) {
	if sp.pending != nil {
		panic("spill: SpillAsync with a spill write already in flight; Join first")
	}
	sp.pending = pool.GoIO("spill", metrics.StateIOWait, func() error {
		return sp.writeRun(pairs)
	})
}

// Join waits for the in-flight spill write, if any.
func (sp *Spiller[K, V]) Join() error {
	if sp.pending == nil {
		return nil
	}
	h := sp.pending
	sp.pending = nil
	return h.Wait()
}

// writeRun encodes pairs into one run file, retrying transient faults
// by rewriting the whole run: a torn write may have landed a prefix,
// so each attempt starts a fresh RunWriter. A failed attempt's run is
// simply abandoned — the store allocates its device extent only when
// the writer Closes successfully, so abandoned attempts leave no holes
// in the device address space and no entry in the run table (its
// backing is released with the store).
func (sp *Spiller[K, V]) writeRun(pairs []kv.Pair[K, V]) error {
	return sp.retry.Do(func() error { return sp.writeRunOnce(pairs) })
}

func (sp *Spiller[K, V]) writeRunOnce(pairs []kv.Pair[K, V]) error {
	w, err := sp.store.NewRun()
	if err != nil {
		return err
	}
	var kbuf, vbuf []byte
	for _, p := range pairs {
		kbuf = sp.kc.Append(kbuf[:0], p.Key)
		vbuf = sp.vc.Append(vbuf[:0], p.Val)
		if err := w.WriteRecord(kbuf, vbuf); err != nil {
			return err
		}
	}
	run, err := w.Close()
	if err != nil {
		return err
	}
	sp.mu.Lock()
	sp.runs = append(sp.runs, run)
	sp.mu.Unlock()
	return nil
}

// RunCount returns the number of completed runs.
func (sp *Spiller[K, V]) RunCount() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.runs)
}

// BytesSpilled returns the total payload bytes across completed runs.
func (sp *Spiller[K, V]) BytesSpilled() int64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var n int64
	for _, r := range sp.runs {
		n += r.size
	}
	return n
}

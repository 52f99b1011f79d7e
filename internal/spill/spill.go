package spill

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

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
// IO lane, and finally exposes every written run as a streaming
// sortalgo.Source for the external merge.
type Spiller[K comparable, V any] struct {
	store  *Store
	budget int64
	less   kv.Less[K]
	reduce func(K, []V) V
	kc     Codec[K]
	vc     Codec[V]
	fixed  *kv.FixedKeyCodec[K] // optional radix fast path for drain sorts

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
// sorts take the radix fast path; nil keeps the comparison sort (the
// -radixsort=off ablation).
func (sp *Spiller[K, V]) SetFixedKey(c *kv.FixedKeyCodec[K]) { sp.fixed = c }

// Budget returns the configured budget in bytes.
func (sp *Spiller[K, V]) Budget() int64 { return sp.budget }

// Over reports whether the container's resident bytes exceed the
// budget — the check the pipeline runs between ingest rounds.
func (sp *Spiller[K, V]) Over(c container.Container[K, V]) bool {
	return c.SizeBytes() > sp.budget
}

// Drain empties the container into one globally key-sorted slice and
// resets it, returning the drained memory to the next map rounds. Each
// partition is reduced (partial reduce: reduce must be associative and
// tolerate re-reducing its own output, which every combiner-style app
// does) and sorted on the pool's compute workers under the "spill"
// phase label, then the disjoint sorted partitions merge into one run.
// The int reports how many partition sorts took the radix fast path.
func (sp *Spiller[K, V]) Drain(c container.Container[K, V], pool exec.Executor) ([]kv.Pair[K, V], int, error) {
	return DrainContainer(c, sp.less, sp.reduce, sp.fixed, pool, "spill")
}

// DrainContainer is the container-to-sorted-run primitive behind both
// the budget spill path and the memo cache's per-chunk drains: reduce
// and sort every partition on the pool's compute workers under label,
// merge the disjoint sorted partitions, and Reset the container. The
// partial reduce requires reduce to be associative and tolerant of
// re-reducing its own output — the standing combiner contract. A
// non-nil fixed-key codec routes partition sorts through the radix fast
// path; post-reduce partitions have unique keys, so the output is
// byte-identical either way. The int return counts the partition
// sorts that took the radix path (the Stats.RadixRuns contribution).
func DrainContainer[K comparable, V any](c container.Container[K, V], less kv.Less[K],
	reduce func(K, []V) V, fixed *kv.FixedKeyCodec[K], pool exec.Executor, label string) ([]kv.Pair[K, V], int, error) {
	parts := c.Partitions()
	runs := make([][]kv.Pair[K, V], parts)
	var radixed atomic.Int64
	_, err := pool.ForEach(label, metrics.StateUser, parts, func(p int) error {
		r := c.Reduce(p, reduce, nil)
		if fixed != nil && sortalgo.RadixSortPairs(r, *fixed) {
			radixed.Add(1)
		} else {
			kv.SortPairs(r, less)
		}
		runs[p] = r
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	c.Reset()
	nonEmpty, last := 0, -1
	for p, r := range runs {
		if len(r) > 0 {
			nonEmpty, last = nonEmpty+1, p
		}
	}
	if nonEmpty == 1 {
		return runs[last], int(radixed.Load()), nil
	}
	// Partitions hold disjoint key sets, so this is a pure merge, kept on
	// (and attributed to) the pool.
	merged, err := sortalgo.MergeRunsTask(pool, label, nil, runs, less, reduce, true)
	if err != nil {
		return nil, 0, err
	}
	return merged, int(radixed.Load()), nil
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

// Sources returns one streaming source per completed run, in spill
// order, for the external merge. Callers must Join first.
func (sp *Spiller[K, V]) Sources() []sortalgo.Source[K, V] {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	srcs := make([]sortalgo.Source[K, V], len(sp.runs))
	for i, r := range sp.runs {
		srcs[i] = &runSource[K, V]{r: sp.store.OpenRun(r), kc: sp.kc, vc: sp.vc}
	}
	return srcs
}

// runSource adapts a RunReader into a sortalgo.Source, decoding records
// with the spiller's codecs.
type runSource[K comparable, V any] struct {
	r  *RunReader
	kc Codec[K]
	vc Codec[V]
}

func (s *runSource[K, V]) Next() (kv.Pair[K, V], bool, error) {
	var zero kv.Pair[K, V]
	key, val, err := s.r.ReadRecord()
	if err == io.EOF {
		return zero, false, nil
	}
	if err != nil {
		return zero, false, err
	}
	k, err := s.kc.Decode(key)
	if err != nil {
		return zero, false, err
	}
	v, err := s.vc.Decode(val)
	if err != nil {
		return zero, false, err
	}
	return kv.Pair[K, V]{Key: k, Val: v}, true, nil
}

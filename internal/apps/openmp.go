package apps

import (
	"supmr/internal/chunk"
	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/metrics"
	"supmr/internal/sortalgo"
)

// OpenMPSortResult reports the thread-library sort baseline of Fig. 3.
type OpenMPSortResult struct {
	Pairs []kv.Pair[string, uint64]
	Times metrics.PhaseTimes
}

// OpenMPSort is the Fig. 3 baseline: a shared-memory-multiprocessing
// sort in the style of an OpenMP application. Its compute phase (the
// parallel sort itself) is faster than scale-up MapReduce's, but it
// reads the data into memory and parses it into key-value pairs with ONE
// thread — so for a 60 GB input its time-to-result is worse despite the
// faster sort, which is the paper's motivation for keeping the
// MapReduce model (whose map phase parses in parallel for free).
//
// Phases reported: read (sequential ingest), map (sequential parse),
// merge (parallel p-way sort, the gnu_parallel::sort analog). All run
// on pool: ingest and the single-threaded parse on an IO lane, the sort
// on the compute workers. Phases are bracketed on the pool's record and
// Times read from this call's window of it.
func OpenMPSort(input chunk.Stream, pool exec.Executor) (*OpenMPSortResult, error) {
	rec := pool.Record()
	from := rec.Mark()

	// Sequential ingest: one thread in IO wait.
	rec.StartPhase(metrics.PhaseRead)
	var data []byte
	err := pool.GoIO("ingest", metrics.StateIOWait, func() error {
		c, err := chunk.NewWholeInput(input).Next()
		if err == nil {
			data = c.Data
		}
		return err
	}).Wait()
	rec.EndPhase(metrics.PhaseRead)
	if err != nil {
		return nil, err
	}

	// Sequential parse: one thread in user state, building the key
	// pointer array the sort will run over.
	rec.StartPhase(metrics.PhaseMap)
	var pairs []kv.Pair[string, uint64]
	app := Sort{}
	err = pool.GoIO("parse", metrics.StateUser, func() error {
		app.Map(data, kv.EmitFunc[string, uint64](func(k string, v uint64) {
			pairs = append(pairs, kv.Pair[string, uint64]{Key: k, Val: v})
		}))
		return nil
	}).Wait()
	rec.EndPhase(metrics.PhaseMap)
	if err != nil {
		return nil, err
	}

	// Parallel sort: partition into one run per worker, sort runs in
	// parallel, single-round p-way merge — the structure of
	// gnu_parallel::sort.
	rec.StartPhase(metrics.PhaseMerge)
	p := pool.Workers()
	runs := make([][]kv.Pair[string, uint64], 0, p)
	per := (len(pairs) + p - 1) / p
	for off := 0; off < len(pairs); off += per {
		end := off + per
		if end > len(pairs) {
			end = len(pairs)
		}
		runs = append(runs, pairs[off:end])
	}
	less := kv.Less[string](app.Less)
	if _, err := sortalgo.SortRunsWith(runs, less, nil, pool); err != nil {
		return nil, err
	}
	sorted, err := sortalgo.PWayMergeWith(runs, less, nil, pool)
	rec.EndPhase(metrics.PhaseMerge)
	if err != nil {
		return nil, err
	}

	return &OpenMPSortResult{Pairs: sorted, Times: rec.Times(from)}, nil
}

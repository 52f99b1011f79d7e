// Package sortalgo implements the two merge-phase algorithms the paper
// contrasts, plus the parallel run-sorting step both share.
//
// The baseline is Phoenix's iterative pairwise merge sort: each round
// merges pairs of sorted runs, so round r uses half the workers of round
// r-1 and rescans every key — the "step" utilization decay of Fig. 1 and
// the O(N log R) key comparisons that dominate sort's merge phase.
//
// SupMR's replacement is OpenMP-style p-way merging (Salzberg): N ordered
// runs are merged into a single ordered array in ONE round by p
// processors. Sampled splitters cut every run at consistent keys, giving
// each processor an independent output range to fill with a loser-tree
// k-way merge — one scan of the data, full parallelism throughout.
//
// The package has one k-way tree, mergeTree (tree.go), under every
// p-way worker's range and every round of the streaming merge over
// spill runs (MergeSources). Its heads are 8-byte encoded key prefixes
// when the app has a fixed-key codec and comparison heads otherwise;
// both break ties by column index, so the output is the same bytes.
//
// For keys with a fixed-width encoding the single round takes its
// fixed-key form, ScatterSort (scatter.go): the first varying key byte is
// an exact splitter, so the unsorted runs scatter straight into disjoint
// buckets of the output, each bucket is radix-sorted in cache, and
// nothing is left to merge.
//
// All algorithms run on the job's persistent executor (internal/exec)
// rather than spawning their own workers: parallelism comes from the
// pool's compute workers, utilization spans from the pool's job sink,
// and cancellation/panic isolation from the pool's task dispatch.
package sortalgo

import (
	"slices"
	"sort"
	"sync/atomic"

	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/metrics"
)

// SortRunsWith sorts each run in place, in parallel on the executor.
// This is the high-utilization prefix both merge algorithms share ("all
// cores sorting small lists in parallel"). With a fixed-key codec, runs
// whose keys encode at the codec's width are radix-sorted (see
// radix.go), the rest comparison-sorted; codec may be nil. Returns how
// many runs took the radix path.
func SortRunsWith[K any, V any](runs [][]kv.Pair[K, V], less kv.Less[K], codec *kv.FixedKeyCodec[K], ex exec.Executor) (int, error) {
	var radixRuns atomic.Int64
	_, err := ex.ForEach("sort", metrics.StateUser, len(runs), func(i int) error {
		if codec != nil && RadixSortPairs(runs[i], *codec) {
			radixRuns.Add(1)
			return nil
		}
		kv.SortPairs(runs[i], less)
		return nil
	})
	return int(radixRuns.Load()), err
}

// mergeTwo merges sorted a and b into dst (which must have capacity
// len(a)+len(b)) and returns dst.
func mergeTwo[K any, V any](a, b []kv.Pair[K, V], less kv.Less[K], dst []kv.Pair[K, V]) []kv.Pair[K, V] {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j].Key, a[i].Key) {
			dst = append(dst, b[j])
			j++
		} else {
			dst = append(dst, a[i])
			i++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// PairwiseMerge is the baseline Phoenix merge: repeatedly merge runs in
// pairs until one remains. Each round processes every key again, and the
// number of concurrently mergeable pairs (and hence busy workers) halves
// every round. Runs must already be sorted.
//
// All rounds write into two flat buffers allocated up front and
// ping-ponged: round r merges out of one buffer (or the input runs) into
// the other, so the per-round, per-pair `make` churn of the original
// Phoenix loop is gone. An odd leftover run is copied into the round's
// output buffer alongside the merges, keeping each round's live data
// confined to a single buffer and the rounds free of read/write
// aliasing.
func PairwiseMerge[K any, V any](runs [][]kv.Pair[K, V], less kv.Less[K], ex exec.Executor) ([]kv.Pair[K, V], error) {
	if len(runs) == 0 {
		return nil, nil
	}
	if len(runs) == 1 {
		return runs[0], nil
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	bufA := make([]kv.Pair[K, V], total)
	bufB := make([]kv.Pair[K, V], total)
	out, next := bufA, bufB
	cur := runs
	for len(cur) > 1 {
		pairs := len(cur) / 2
		odd := len(cur) % 2
		nextRuns := make([][]kv.Pair[K, V], pairs+odd)
		offs := make([]int, pairs+odd+1)
		for p := 0; p < pairs; p++ {
			offs[p+1] = offs[p] + len(cur[2*p]) + len(cur[2*p+1])
		}
		if odd == 1 {
			offs[pairs+1] = offs[pairs] + len(cur[len(cur)-1])
		}
		round := cur
		_, err := ex.ForEach("merge", metrics.StateUser, pairs+odd, func(p int) error {
			dst := out[offs[p]:offs[p]:offs[p+1]]
			if p == pairs {
				nextRuns[p] = append(dst, round[len(round)-1]...)
				return nil
			}
			nextRuns[p] = mergeTwo(round[2*p], round[2*p+1], less, dst)
			return nil
		})
		if err != nil {
			return nil, err
		}
		cur = nextRuns
		out, next = next, out
	}
	return cur[0], nil
}

// Rounds returns the number of pairwise merge rounds needed for n runs —
// the quantity SupMR's p-way merge avoids (Conclusion 3: the benefit
// depends on the number of merge rounds avoided).
func Rounds(n int) int {
	r := 0
	for n > 1 {
		n = (n + 1) / 2
		r++
	}
	return r
}

// SamplesPerRun controls splitter quality: a run contributes about this
// many keys to the sample the splitters are drawn from.
const SamplesPerRun = 32

// Sample returns every max(len(r)/SamplesPerRun, 1)-th key of each run
// r: a sample of the runs' content alone, so any two callers sampling
// the same runs agree.
func Sample[K any, V any](runs [][]kv.Pair[K, V]) []K {
	n := 0
	for _, r := range runs {
		n += len(r)/max(len(r)/SamplesPerRun, 1) + 1
	}
	samples := make([]K, 0, n)
	for _, r := range runs {
		for i := 0; i < len(r); i += max(len(r)/SamplesPerRun, 1) {
			samples = append(samples, r[i].Key)
		}
	}
	return samples
}

// Splitters sorts samples in place and returns the p-1 keys that cut
// them into p equal ranges, samples[i*len(samples)/p] for i in 1..p-1,
// or none when samples is empty.
func Splitters[K any](samples []K, p int, less kv.Less[K]) []K {
	slices.SortFunc(samples, func(a, b K) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	var splitters []K
	for i := 1; i < p && len(samples) > 0; i++ {
		splitters = append(splitters, samples[i*len(samples)/p])
	}
	return splitters
}

// Cut returns run's len(splitters)+2 cut points: 0, then for each
// splitter the first index whose key is not less than it, then
// len(run). Range s of every run cut at the same sorted splitters is
// run[c[s]:c[s+1]], so a key lands in the same range of every run.
func Cut[K any, V any](run []kv.Pair[K, V], splitters []K, less kv.Less[K]) []int {
	c := make([]int, len(splitters)+2)
	for s, sp := range splitters {
		// Lower bounds at sorted splitters are monotone; the max keeps
		// them so defensively.
		c[s+1] = max(c[s], sort.Search(len(run), func(i int) bool { return !less(run[i].Key, sp) }))
	}
	c[len(splitters)+1] = len(run)
	return c
}

// PWayMergeWith merges sorted runs into one sorted array in a single
// round using the executor's compute workers. Sampled splitters
// partition the key space into one consistent range per worker; every
// worker merges its column of run slices into a disjoint region of the
// output with one mergeTree call, whose heads are encoded key prefixes
// when codec (which may be nil) encodes every key. Output is
// byte-identical either way.
func PWayMergeWith[K any, V any](runs [][]kv.Pair[K, V], less kv.Less[K], codec *kv.FixedKeyCodec[K], ex exec.Executor) ([]kv.Pair[K, V], error) {
	// Drop empty runs.
	var rs [][]kv.Pair[K, V]
	total := 0
	for _, r := range runs {
		if len(r) > 0 {
			rs = append(rs, r)
			total += len(r)
		}
	}
	if total == 0 {
		return nil, nil
	}
	if len(rs) == 1 {
		return rs[0], nil
	}
	p := min(max(ex.Workers(), 1), total)
	splitters := Splitters(Sample(rs), p, less)
	cuts := make([][]int, len(rs))
	for ri, r := range rs {
		cuts[ri] = Cut(r, splitters, less)
	}

	// Output offsets per range.
	offsets := make([]int, p+1)
	for s := 0; s < p; s++ {
		offsets[s+1] = offsets[s]
		for ri := range rs {
			offsets[s+1] += cuts[ri][s+1] - cuts[ri][s]
		}
	}

	out := make([]kv.Pair[K, V], total)
	_, err := ex.ForEach("merge", metrics.StateUser, p, func(s int) error {
		if offsets[s] == offsets[s+1] {
			return nil
		}
		var cols [][]kv.Pair[K, V]
		for ri, r := range rs {
			if seg := r[cuts[ri][s]:cuts[ri][s+1]]; len(seg) > 0 {
				cols = append(cols, seg)
			}
		}
		mergeTree(cols, less, codec, out[offsets[s]:offsets[s]:offsets[s+1]])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MergeAlgo selects the merge-phase implementation.
type MergeAlgo int

// Merge algorithm choices.
const (
	// MergePairwise is the original Phoenix iterative merge sort.
	MergePairwise MergeAlgo = iota
	// MergePWay is SupMR's single-round p-way merge.
	MergePWay
)

// String names the algorithm.
func (m MergeAlgo) String() string {
	switch m {
	case MergePairwise:
		return "pairwise"
	case MergePWay:
		return "p-way"
	default:
		return "unknown"
	}
}

// MergeWith dispatches to the selected algorithm. Runs must be sorted.
// An optional fixed-key codec gives the p-way merge's tree prefix
// heads. The pairwise baseline stays comparison-based by design — it
// exists to measure the merge the paper replaces.
func MergeWith[K any, V any](algo MergeAlgo, runs [][]kv.Pair[K, V], less kv.Less[K], codec *kv.FixedKeyCodec[K], ex exec.Executor) ([]kv.Pair[K, V], error) {
	switch algo {
	case MergePWay:
		return PWayMergeWith(runs, less, codec, ex)
	default:
		return PairwiseMerge(runs, less, ex)
	}
}

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
	"sync/atomic"

	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/metrics"
)

// SortRuns sorts each run in place, in parallel on the executor. This is
// the high-utilization prefix both merge algorithms share ("all cores
// sorting small lists in parallel").
func SortRuns[K any, V any](runs [][]kv.Pair[K, V], less kv.Less[K], ex exec.Executor) error {
	_, err := SortRunsWith(runs, less, nil, ex)
	return err
}

// SortRunsWith is SortRuns with an optional fixed-key codec: runs whose
// keys encode at the codec's width are radix-sorted (see radix.go), the
// rest fall back to the comparison sort. Returns how many runs took the
// radix path. codec == nil is plain SortRuns.
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

// samplesPerRun controls splitter quality for the p-way merge.
const samplesPerRun = 32

// PWayMerge merges sorted runs into one sorted array in a single round
// using the executor's compute workers. Sampled splitters partition the
// key space into one consistent range per worker; every worker
// loser-tree-merges its column of run slices into a disjoint region of
// the output.
func PWayMerge[K any, V any](runs [][]kv.Pair[K, V], less kv.Less[K], ex exec.Executor) ([]kv.Pair[K, V], error) {
	return PWayMergeWith(runs, less, nil, ex)
}

// PWayMergeWith is PWayMerge with an optional fixed-key codec: when
// present, each worker merges its column set through the columnar loser
// tree (columnar.go) — encoded key prefixes in recycled arenas, masked
// branch-free replay — falling back to the generic tree if any key fails
// to encode. Output is byte-identical either way.
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
	p := ex.Workers()
	if p < 1 {
		p = 1
	}
	if p > total {
		p = total
	}

	// Sample keys across runs and choose p-1 splitters. The sample count
	// is known exactly from the run lengths, so the slice is allocated
	// once; slices.SortFunc sorts without the interface boxing and
	// reflection-based swaps of sort.Slice.
	nSamples := 0
	for _, r := range rs {
		step := len(r) / samplesPerRun
		if step == 0 {
			step = 1
		}
		nSamples += (len(r) + step - 1) / step
	}
	samples := make([]K, 0, nSamples)
	for _, r := range rs {
		step := len(r) / samplesPerRun
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(r); i += step {
			samples = append(samples, r[i].Key)
		}
	}
	slices.SortFunc(samples, func(a, b K) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	splitters := make([]K, 0, p-1)
	for i := 1; i < p; i++ {
		splitters = append(splitters, samples[i*len(samples)/p])
	}

	// cut[r][s] = index in run r of the first key >= splitters[s]
	// (lower bound, applied uniformly, so ranges are consistent).
	cuts := make([][]int, len(rs))
	for ri, r := range rs {
		c := make([]int, len(splitters)+2)
		c[0] = 0
		for si, sp := range splitters {
			c[si+1] = lowerBound(r, sp, less)
		}
		c[len(splitters)+1] = len(r)
		// Lower bounds are monotone because splitters are sorted; enforce
		// monotonicity defensively for duplicate-heavy samples.
		for i := 1; i < len(c); i++ {
			if c[i] < c[i-1] {
				c[i] = c[i-1]
			}
		}
		cuts[ri] = c
	}

	// Output offsets per range.
	rangeLen := make([]int, p)
	for s := 0; s < p; s++ {
		for ri := range rs {
			rangeLen[s] += cuts[ri][s+1] - cuts[ri][s]
		}
	}
	offsets := make([]int, p+1)
	for s := 0; s < p; s++ {
		offsets[s+1] = offsets[s] + rangeLen[s]
	}

	out := make([]kv.Pair[K, V], total)
	_, err := ex.ForEach("merge", metrics.StateUser, p, func(s int) error {
		if rangeLen[s] == 0 {
			return nil
		}
		var cols [][]kv.Pair[K, V]
		for ri, r := range rs {
			if seg := r[cuts[ri][s]:cuts[ri][s+1]]; len(seg) > 0 {
				cols = append(cols, seg)
			}
		}
		dst := out[offsets[s]:offsets[s]:offsets[s+1]]
		if codec != nil && len(cols) >= 2 {
			if _, ok := columnarMerge(cols, *codec, dst); ok {
				return nil
			}
		}
		loserTreeMerge(cols, less, dst)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// lowerBound returns the index of the first element of r whose key is not
// less than key.
func lowerBound[K any, V any](r []kv.Pair[K, V], key K, less kv.Less[K]) int {
	lo, hi := 0, len(r)
	for lo < hi {
		mid := (lo + hi) / 2
		if less(r[mid].Key, key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// loserTreeMerge merges the sorted lists in cols into dst (an empty slice
// with sufficient capacity) using a tournament tree of losers, the
// classic structure for merging N ordered runs with ~log2(N) comparisons
// per output element (Salzberg 1989).
//
// The tree is padded to a power of two with sentinel leaves, so build
// and replay are uniform bottom-up loops with no -1 sentinels or
// first-visit branches: replay walks exactly log2(m) nodes via index
// halving. Equal keys resolve by column index (matching mergeTwo's
// preference for the left run and the columnar tree's tie rule), making
// every merge path emit duplicates in the same deterministic order.
func loserTreeMerge[K any, V any](cols [][]kv.Pair[K, V], less kv.Less[K], dst []kv.Pair[K, V]) []kv.Pair[K, V] {
	k := len(cols)
	switch k {
	case 0:
		return dst
	case 1:
		return append(dst, cols[0]...)
	case 2:
		return mergeTwo(cols[0], cols[1], less, dst)
	}
	m := 2
	for m < k {
		m <<= 1
	}
	// heads[c] is the next unconsumed index of cols[c]; columns past k
	// and exhausted columns act as +infinity sentinels.
	state := make([]int, 2*m)
	heads, nodes := state[:m], state[m:2*m]
	exhausted := func(c int) bool { return c >= k || heads[c] >= len(cols[c]) }
	// beats reports whether column a's head strictly precedes column
	// b's: by key, then by column index; sentinels always lose.
	beats := func(a, b int) bool {
		ea, eb := exhausted(a), exhausted(b)
		if ea || eb {
			return !ea || (eb && a < b)
		}
		ka, kb := cols[a][heads[a]].Key, cols[b][heads[b]].Key
		if less(ka, kb) {
			return true
		}
		if less(kb, ka) {
			return false
		}
		return a < b
	}

	// Build bottom-up: winners bubble toward the root, each internal
	// node keeps the loser of its match.
	winners := make([]int, 2*m)
	for i := 0; i < m; i++ {
		winners[m+i] = i
	}
	for node := m - 1; node >= 1; node-- {
		a, b := winners[2*node], winners[2*node+1]
		if beats(b, a) {
			a, b = b, a
		}
		winners[node] = a
		nodes[node] = b
	}
	w := winners[1]

	for !exhausted(w) {
		dst = append(dst, cols[w][heads[w]])
		heads[w]++
		// Replay from w's leaf to the root by index halving.
		for node := (m + w) >> 1; node > 0; node >>= 1 {
			if l := nodes[node]; beats(l, w) {
				nodes[node] = w
				w = l
			}
		}
	}
	return dst
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

// Merge dispatches to the selected algorithm. Runs must be sorted.
func Merge[K any, V any](algo MergeAlgo, runs [][]kv.Pair[K, V], less kv.Less[K], ex exec.Executor) ([]kv.Pair[K, V], error) {
	return MergeWith(algo, runs, less, nil, ex)
}

// MergeWith is Merge with an optional fixed-key codec, which routes the
// p-way merge through the columnar loser tree. The pairwise baseline
// stays comparison-based by design — it exists to measure the merge the
// paper replaces.
func MergeWith[K any, V any](algo MergeAlgo, runs [][]kv.Pair[K, V], less kv.Less[K], codec *kv.FixedKeyCodec[K], ex exec.Executor) ([]kv.Pair[K, V], error) {
	switch algo {
	case MergePWay:
		return PWayMergeWith(runs, less, codec, ex)
	default:
		return PairwiseMerge(runs, less, ex)
	}
}

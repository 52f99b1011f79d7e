package sortalgo

import (
	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/metrics"
)

// This file extends the merge phase to out-of-core inputs: a Source
// streams one sorted run — an in-memory slice or an on-disk spill run
// decoded incrementally — and MergeSources consumes any mix of them in
// a single loser-tree round. This is the external counterpart of
// PWayMerge: same single-round structure (Conclusion 3), but run heads
// are pulled on demand instead of indexed, so merging never needs all
// runs resident. The spill layer (internal/spill) provides Sources over
// its run files.

// Source streams one key-sorted run. Implementations are consumed by a
// single goroutine; Next returns ok=false when the run is exhausted.
type Source[K any, V any] interface {
	Next() (p kv.Pair[K, V], ok bool, err error)
}

// sliceSource adapts an in-memory sorted run.
type sliceSource[K any, V any] struct {
	ps []kv.Pair[K, V]
	i  int
}

// NewSliceSource returns a Source over an in-memory sorted run.
func NewSliceSource[K any, V any](ps []kv.Pair[K, V]) Source[K, V] {
	return &sliceSource[K, V]{ps: ps}
}

func (s *sliceSource[K, V]) Next() (kv.Pair[K, V], bool, error) {
	if s.i >= len(s.ps) {
		var zero kv.Pair[K, V]
		return zero, false, nil
	}
	p := s.ps[s.i]
	s.i++
	return p, true, nil
}

// sourceTree is a tournament tree of losers over streaming sources: the
// sentinel-padded power-of-two structure loserTreeMerge uses for slices,
// with two buffered pairs per source. The second buffer is the run-head
// prefetch: the next record is pulled from a source one pop before it is
// compared, so incremental spill-run decoding happens off the
// comparison's critical path. Equal keys resolve by source index, the
// same tie rule as the in-memory trees, so spill-run groups form in
// deterministic run order.
type sourceTree[K any, V any] struct {
	srcs   []Source[K, V]
	heads  []kv.Pair[K, V] // current head per source (padded to m)
	nexts  []kv.Pair[K, V] // prefetched following record per source
	live   []bool          // head valid (source not exhausted)
	nlive  []bool          // prefetched record valid
	nodes  []int           // nodes[1..m-1] hold loser ids
	winner int
	m      int // power-of-two leaf count; [k, m) are sentinels
	less   kv.Less[K]
}

func newSourceTree[K any, V any](srcs []Source[K, V], less kv.Less[K]) (*sourceTree[K, V], error) {
	k := len(srcs)
	m := 2
	for m < k {
		m <<= 1
	}
	t := &sourceTree[K, V]{
		srcs:  srcs,
		heads: make([]kv.Pair[K, V], m),
		nexts: make([]kv.Pair[K, V], m),
		live:  make([]bool, m),
		nlive: make([]bool, m),
		nodes: make([]int, m),
		m:     m,
		less:  less,
	}
	for c := 0; c < k; c++ {
		p, ok, err := srcs[c].Next()
		if err != nil {
			return nil, err
		}
		t.heads[c], t.live[c] = p, ok
		if ok {
			p, ok, err = srcs[c].Next()
			if err != nil {
				return nil, err
			}
			t.nexts[c], t.nlive[c] = p, ok
		}
	}
	// Build bottom-up: winners bubble toward the root, each internal
	// node keeps the loser of its match.
	winners := make([]int, 2*m)
	for i := 0; i < m; i++ {
		winners[m+i] = i
	}
	for node := m - 1; node >= 1; node-- {
		a, b := winners[2*node], winners[2*node+1]
		if t.beats(b, a) {
			a, b = b, a
		}
		winners[node] = a
		t.nodes[node] = b
	}
	t.winner = winners[1]
	return t, nil
}

// beats reports whether source a's head strictly precedes source b's: by
// key, then by source index; exhausted sources and sentinels always
// lose.
func (t *sourceTree[K, V]) beats(a, b int) bool {
	la, lb := t.live[a], t.live[b]
	if !la || !lb {
		return la || (!lb && a < b)
	}
	ka, kb := t.heads[a].Key, t.heads[b].Key
	if t.less(ka, kb) {
		return true
	}
	if t.less(kb, ka) {
		return false
	}
	return a < b
}

// pop removes and returns the globally smallest head, promoting the
// prefetched record, refilling the prefetch slot, and replaying the tree
// from the winner's leaf by index halving. ok=false when every source is
// dry.
func (t *sourceTree[K, V]) pop() (kv.Pair[K, V], bool, error) {
	w := t.winner
	if !t.live[w] {
		var zero kv.Pair[K, V]
		return zero, false, nil
	}
	out := t.heads[w]
	t.heads[w], t.live[w] = t.nexts[w], t.nlive[w]
	if t.nlive[w] {
		p, ok, err := t.srcs[w].Next()
		if err != nil {
			var zero kv.Pair[K, V]
			return zero, false, err
		}
		t.nexts[w], t.nlive[w] = p, ok
	}
	for node := (t.m + w) >> 1; node > 0; node >>= 1 {
		if l := t.nodes[node]; t.beats(l, w) {
			t.nodes[node] = w
			w = l
		}
	}
	t.winner = w
	return out, true, nil
}

// MergeSources merges key-sorted sources into out in a single streaming
// loser-tree round, grouping equal keys as they surface and applying
// reduce to each multi-value group — so reduce output never needs all
// runs resident. Keys repeat across sources when the spill layer wrote
// partial combiner state for the same key into different runs; reduce
// must therefore be associative and accept already-reduced values.
// Groups of one value pass through un-reduced, matching the in-memory
// merge path, which never re-reduces.
func MergeSources[K any, V any](srcs []Source[K, V], less kv.Less[K], reduce func(K, []V) V, out []kv.Pair[K, V]) ([]kv.Pair[K, V], error) {
	if len(srcs) == 0 {
		return out, nil
	}
	tree, err := newSourceTree(srcs, less)
	if err != nil {
		return nil, err
	}

	var (
		groupKey  K
		groupVals []V
		inGroup   bool
	)
	flush := func() {
		if !inGroup {
			return
		}
		v := groupVals[0]
		if len(groupVals) > 1 {
			v = reduce(groupKey, groupVals)
		}
		out = append(out, kv.Pair[K, V]{Key: groupKey, Val: v})
		groupVals = groupVals[:0]
		inGroup = false
	}
	for {
		p, ok, err := tree.pop()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		// Keys arrive globally sorted: a new group starts whenever the
		// key order strictly advances.
		if inGroup && less(groupKey, p.Key) {
			flush()
		}
		if !inGroup {
			groupKey = p.Key
			inGroup = true
		}
		groupVals = append(groupVals, p.Val)
	}
	flush()
	return out, nil
}

// MergeRuns is MergeSources over in-memory key-sorted runs: head —
// streaming sources that come first in tie order, such as spilled runs
// — followed by one slice source per non-empty run. presize allocates
// the output for the runs' total length up front: exact when the runs
// hold disjoint keys, wasteful when reduce collapses most of them.
func MergeRuns[K any, V any](head []Source[K, V], runs [][]kv.Pair[K, V], less kv.Less[K], reduce func(K, []V) V, presize bool) ([]kv.Pair[K, V], error) {
	srcs, total := head, 0
	for _, r := range runs {
		if len(r) > 0 {
			srcs = append(srcs, NewSliceSource(r))
			total += len(r)
		}
	}
	var out []kv.Pair[K, V]
	if presize {
		out = make([]kv.Pair[K, V], 0, total)
	}
	return MergeSources(srcs, less, reduce, out)
}

// MergeRunsTask runs MergeRuns as one task on ex under label, so the
// pass — including the device waits of streaming sources — is charged
// to the job's workers and observes the job's cancellation.
func MergeRunsTask[K any, V any](ex exec.Executor, label string, head []Source[K, V], runs [][]kv.Pair[K, V], less kv.Less[K], reduce func(K, []V) V, presize bool) ([]kv.Pair[K, V], error) {
	var merged []kv.Pair[K, V]
	_, err := ex.ForEach(label, metrics.StateUser, 1, func(int) error {
		var mErr error
		merged, mErr = MergeRuns(head, runs, less, reduce, presize)
		return mErr
	})
	return merged, err
}

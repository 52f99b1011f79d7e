package sortalgo

import (
	"slices"
	"sort"

	"supmr/internal/kv"
)

// This file extends the merge phase to out-of-core inputs: a Source
// streams one sorted run — an in-memory slice or an on-disk spill run
// decoded block by block — and MergeSources consumes any mix of them in
// a single pass. This is the external counterpart of PWayMergeWith: same
// single-round structure (Conclusion 3), but run heads are pulled a
// block at a time instead of indexed, so merging never needs all runs
// resident. The spill layer (internal/spill) provides Sources over its
// run files.

// Source streams one key-sorted run to a single consumer. NextBlock
// copies the run's next records into dst and returns how many: fewer
// than len(dst) when the source's own block ends first, 0 (for a
// non-empty dst) only once the run is exhausted. Next is NextBlock for
// one record, ok=false at the end. An error is terminal. The merge
// consumes sources through NextBlock alone, so a record costs it no
// interface call.
type Source[K any, V any] interface {
	Next() (p kv.Pair[K, V], ok bool, err error)
	NextBlock(dst []kv.Pair[K, V]) (n int, err error)
}

// sliceSource adapts an in-memory sorted run; ps is what is left of it.
type sliceSource[K any, V any] struct{ ps []kv.Pair[K, V] }

// NewSliceSource returns a Source over an in-memory sorted run.
func NewSliceSource[K any, V any](ps []kv.Pair[K, V]) Source[K, V] {
	return &sliceSource[K, V]{ps: ps}
}

func (s *sliceSource[K, V]) NextBlock(dst []kv.Pair[K, V]) (int, error) {
	n := copy(dst, s.ps)
	s.ps = s.ps[n:]
	return n, nil
}

func (s *sliceSource[K, V]) Next() (kv.Pair[K, V], bool, error) {
	var one [1]kv.Pair[K, V]
	n, _ := s.NextBlock(one[:])
	return one[0], n == 1, nil
}

// sourceBlock is how many records the merge pulls from a streaming
// source at a time.
const sourceBlock = 1024

// MergeSources merges key-sorted sources into out in a single streaming
// pass, grouping equal keys as they surface and applying reduce to each
// multi-value group — so reduce output never needs all runs resident.
// Keys repeat across sources when the spill layer wrote partial
// combiner state for the same key into different runs; reduce must
// therefore be associative and accept already-reduced values. Equal
// keys surface in source order. Groups of one value pass through
// un-reduced, matching the in-memory merge path, which never re-reduces.
func MergeSources[K any, V any](srcs []Source[K, V], less kv.Less[K], reduce func(K, []V) V, out []kv.Pair[K, V]) ([]kv.Pair[K, V], error) {
	return mergeBlocks(srcs, less, nil, reduce, out, 0, sourceBlock)
}

// MergeSourcesWith is MergeSources with an optional fixed-key codec,
// which gives the merge tree prefix heads, and with the number of
// records the sources hold between them, when the caller knows it (0
// otherwise): out then grows by how far reduce has collapsed the input
// so far rather than by doubling. Output is byte-identical either way.
func MergeSourcesWith[K any, V any](srcs []Source[K, V], less kv.Less[K], codec *kv.FixedKeyCodec[K], reduce func(K, []V) V, out []kv.Pair[K, V], total int) ([]kv.Pair[K, V], error) {
	return mergeBlocks(srcs, less, codec, reduce, out, total, sourceBlock)
}

// mergeBlocks is the streaming merge, run as rounds over the sources'
// current blocks with the in-memory trees: a round takes, from every
// block, the records at or before the bound — the least (last key,
// source) among the blocks whose source holds more — merges those
// segments with one mergeTree call, whose tie rule is the column index,
// groups the result, and refills the blocks it used up.
// Nothing a source has yet to deliver can sort before the bound, so the
// rounds concatenate to the one merged order; each spends the bounding
// block, so there are about as many rounds as blocks, and the merged
// round is the only buffer: sources × block records. An in-memory run
// is windowed in place, block records at a time, with no copy.
func mergeBlocks[K any, V any](srcs []Source[K, V], less kv.Less[K], codec *kv.FixedKeyCodec[K], reduce func(K, []V) V, out []kv.Pair[K, V], total, block int) ([]kv.Pair[K, V], error) {
	var (
		blk   = make([][]kv.Pair[K, V], len(srcs)) // unmerged rest of each source's current block
		bufs  = make([][]kv.Pair[K, V], len(srcs)) // a streaming source's block buffer, until it runs dry
		rest  = make([][]kv.Pair[K, V], len(srcs)) // an in-memory run's records beyond its current block
		cols  [][]kv.Pair[K, V]
		round []kv.Pair[K, V]
		key   K // the open group: its key and the values seen so far
		vals  []V
		seen  int // records grouped so far
	)
	open := func(c int) bool { return bufs[c] != nil || len(rest[c]) > 0 }
	refill := func(c int) error {
		if bufs[c] == nil {
			n := min(block, len(rest[c]))
			blk[c], rest[c] = rest[c][:n], rest[c][n:]
			return nil
		}
		n, err := srcs[c].NextBlock(bufs[c])
		if blk[c] = bufs[c][:n]; n == 0 {
			bufs[c] = nil
		}
		return err
	}
	for c, s := range srcs {
		if ss, ok := s.(*sliceSource[K, V]); ok {
			rest[c], ss.ps = ss.ps, nil
		} else {
			bufs[c] = make([]kv.Pair[K, V], block)
		}
		if err := refill(c); err != nil {
			return nil, err
		}
	}
	flush := func() {
		v := vals[0]
		if len(vals) > 1 {
			v = reduce(key, vals)
		}
		if len(out) == cap(out) {
			// append's 1.25x steps would copy a large output five times
			// over: double, or size it from the share of the input seen.
			want := 2 * len(out)
			if seen > 0 && total > seen {
				want = max(int(float64(len(out))/float64(seen)*float64(total)), len(out)+len(out)/4) + len(out)/16
			}
			out = slices.Grow(out, want-len(out)+1)
		}
		out, vals = append(out, kv.Pair[K, V]{Key: key, Val: v}), vals[:0]
	}
	for b := 0; b >= 0; {
		b = -1
		for c := range srcs {
			if open(c) && (b < 0 || less(blk[c][len(blk[c])-1].Key, blk[b][len(blk[b])-1].Key)) {
				b = c
			}
		}
		var bound K
		if b >= 0 {
			bound = blk[b][len(blk[b])-1].Key
		}
		cols = cols[:0]
		size := 0
		for c, r := range blk {
			n := len(r)
			if b >= 0 {
				// Sources up to b give their keys equal to the bound,
				// later ones keep theirs for the round after b's refill.
				n = sort.Search(n, func(i int) bool {
					if c <= b {
						return less(bound, r[i].Key)
					}
					return !less(r[i].Key, bound)
				})
			}
			if n > 0 {
				cols, blk[c], size = append(cols, r[:n]), r[n:], size+n
			}
		}
		var merged []kv.Pair[K, V]
		if len(cols) == 1 {
			merged = cols[0] // nothing to merge it with: group it where it lies
		} else {
			if cap(round) < size {
				round = make([]kv.Pair[K, V], 0, size)
			}
			round = mergeTree(cols, less, codec, round[:0])
			merged = round
		}
		// Keys arrive globally sorted: a new group starts whenever the
		// key order strictly advances.
		for _, p := range merged {
			if len(vals) > 0 && less(key, p.Key) {
				flush()
			}
			if len(vals) == 0 {
				key = p.Key
			}
			vals = append(vals, p.Val)
			seen++
		}
		for c := range srcs {
			if open(c) && len(blk[c]) == 0 {
				if err := refill(c); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(vals) > 0 {
		flush()
	}
	return out, nil
}

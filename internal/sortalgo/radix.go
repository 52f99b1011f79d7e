package sortalgo

// LSD radix partitioning for fixed-width keys: the vectorized run-sort
// fast path. Apps with a kv.FixedKeyCodec (terasort's 10-byte records,
// integer bucket ids, the 8-byte order prefix of string keys) have
// their runs sorted by counting passes over digit bytes instead of
// comparison sorting — O(w·n) sequential array
// traffic with no branches on key values, versus O(n log n) unpredictable
// comparisons. Two details matter for the hot path:
//
//   - Keys are encoded once into a recycled row-major byte arena, so each
//     digit pass reads one byte per element from a dense array and the
//     final permutation is applied to the fat kv.Pair structs exactly
//     once, by cycle-walking in place.
//
//   - Digit positions that are constant across the whole slice are
//     skipped. A run drained from a container or cut from a KeyRange
//     array has no shared prefix to speak of (every digit of a terasort
//     key varies in every sort run), but a ScatterSort bucket does: its
//     leading digit — and, after the skew guard splits it, its next
//     one — is constant by construction, so those passes vanish.
//
// The sort is stable (counting passes preserve ties in input order).
// Under a prefix codec each maximal stretch of equal rows is then
// sorted by less, stably, so unequal keys that share a prefix come out
// in key order and equal keys in input order. kv.SortPairs is not
// stable, so byte-identical -radixsort=off ablation output relies on
// keys being unique within each run — true for post-reduce runs, where
// containers emit one pair per key per partition.

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"

	"supmr/internal/kv"
)

// radixMinLen is the run length below which the comparison sort's
// constant factors beat the encode + count passes.
const radixMinLen = 48

// Recycled scratch arenas: encoded key rows and permutation index
// buffers survive across runs and rounds (PR 3 freelist discipline).
var (
	radixBytePool sync.Pool // *[]byte
	radixIdxPool  sync.Pool // *[]uint32
)

func getScratchBytes(n int) []byte {
	scratchHeld.Add(1)
	if v := radixBytePool.Get(); v != nil {
		if b := *(v.(*[]byte)); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func putScratchBytes(b []byte) {
	scratchHeld.Add(-1)
	if cap(b) > 0 {
		radixBytePool.Put(&b)
	}
}

func getScratchIdx(n int) []uint32 {
	if v := radixIdxPool.Get(); v != nil {
		if b := *(v.(*[]uint32)); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]uint32, n)
}

func putScratchIdx(b []uint32) {
	if cap(b) > 0 {
		radixIdxPool.Put(&b)
	}
}

// RadixSortPairs sorts ps in place by the codec's fixed-width key
// encoding, least-significant digit first; under a prefix codec, less
// orders the keys whose encodings tie. It returns false — leaving ps
// untouched — when the run is too small to benefit or any key fails to
// encode; the caller falls back to kv.SortPairs.
func RadixSortPairs[K any, V any](ps []kv.Pair[K, V], less kv.Less[K], codec kv.FixedKeyCodec[K]) bool {
	n := len(ps)
	w := codec.Width
	if n < radixMinLen || w <= 0 || n >= 1<<31 {
		return false
	}

	keys := getScratchBytes(n * w)
	defer putScratchBytes(keys)
	for i := range ps {
		if !codec.Put(keys[i*w:i*w+w], ps[i].Key) {
			return false
		}
	}
	lsdSort(ps, keys, w, tieLess(codec, less))
	return true
}

// tieLess is the order lsdSort gives rows that tie: less under a prefix
// codec, none (nil) under an exact one, whose equal rows are equal keys.
func tieLess[K any](codec kv.FixedKeyCodec[K], less kv.Less[K]) kv.Less[K] {
	if codec.Prefix {
		return less
	}
	return nil
}

// lsdSort stably sorts ps by their encoded keys — rows[i*w:(i+1)*w] is
// ps[i]'s — least-significant digit first. Every digit is counted up
// front, so each distribution pass skips its own counting loop, and a
// digit whose count shows it constant across ps costs no pass at all.
// With ties non-nil, each maximal stretch of equal rows is then sorted
// stably by ties. rows is read, never reordered.
func lsdSort[K any, V any](ps []kv.Pair[K, V], rows []byte, w int, ties kv.Less[K]) {
	n := len(ps)
	scratch := getScratchIdx(2*n + 256*w)
	defer putScratchIdx(scratch)
	a, b, counts := scratch[:n], scratch[n:2*n], scratch[2*n:]
	histogram(rows, w, counts)
	for i := range a {
		a[i] = uint32(i)
	}
	// Each pass is stable, so the final order is (key bytes, original
	// index).
	for d := w - 1; d >= 0; d-- {
		if c := (*[256]uint32)(counts[d*256:]); varies(c, n) {
			digitPass(a, b, rows, w, d, c)
			a, b = b, a
		}
	}
	if ties != nil {
		sortTies(ps, a, rows, w, ties)
	}
	permute(ps, a)
}

// sortTies sorts by less, before the permutation is applied, each
// maximal stretch of a whose rows are equal. Equal keys are ordered by
// row id, which is input order, so the sort is stable.
func sortTies[K any, V any](ps []kv.Pair[K, V], a []uint32, rows []byte, w int, less kv.Less[K]) {
	same := func(x, y uint32) bool {
		rx, ry := rows[int(x)*w:int(x)*w+w], rows[int(y)*w:int(y)*w+w]
		if w == 8 {
			return binary.LittleEndian.Uint64(rx) == binary.LittleEndian.Uint64(ry)
		}
		return string(rx) == string(ry)
	}
	byKey := func(x, y uint32) int {
		switch {
		case less(ps[x].Key, ps[y].Key):
			return -1
		case less(ps[y].Key, ps[x].Key):
			return 1
		}
		return cmp.Compare(x, y)
	}
	for lo := 0; lo < len(a); {
		hi := lo + 1
		for hi < len(a) && same(a[lo], a[hi]) {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(a[lo:hi], byKey)
		}
		lo = hi
	}
}

// histogram sets counts[d*256+v] to the number of rows whose digit d is
// v, for every digit d < w.
func histogram(rows []byte, w int, counts []uint32) {
	for d := 0; d < w; d++ {
		c := (*[256]uint32)(counts[d*256:])
		*c = [256]uint32{}
		for i := d; i < len(rows); i += w {
			c[rows[i]]++
		}
	}
}

// varies reports whether a digit whose histogram over n rows is c takes
// more than one value.
func varies(c *[256]uint32, n int) bool {
	for _, k := range c {
		if int(k) == n {
			return false
		}
	}
	return n > 0
}

// digitPass is one stable counting pass: it distributes the row ids in
// src into dst by digit d of their rows. count holds the digit's
// histogram on entry; on return count[v] is the end offset in dst of the
// ids whose digit is v.
func digitPass(src, dst []uint32, rows []byte, w, d int, count *[256]uint32) {
	pos := uint32(0)
	for i, c := range count {
		count[i] = pos
		pos += c
	}
	for _, id := range src {
		digit := rows[int(id)*w+d]
		dst[count[digit]] = id
		count[digit]++
	}
}

// permute applies the permutation perm (sorted[j] = ps[perm[j]]) to ps in
// place by walking its cycles; the high bit marks visited entries, so no
// pair scratch buffer is needed. perm is clobbered.
func permute[K any, V any](ps []kv.Pair[K, V], perm []uint32) {
	const visited = 1 << 31
	for i := range ps {
		if perm[i]&visited != 0 || int(perm[i]) == i {
			continue
		}
		tmp := ps[i]
		cur := i
		for {
			nxt := int(perm[cur])
			perm[cur] |= visited
			if nxt == i {
				ps[cur] = tmp
				break
			}
			ps[cur] = ps[nxt]
			cur = nxt
		}
	}
}

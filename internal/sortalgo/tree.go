package sortalgo

// The merge tree: one sentinel-padded power-of-two loser tree under
// every k-way merge in the package — each p-way worker's key range and
// each round of the streaming merge (source.go). Replay compares the
// columns' heads, a dense []uint64 with one entry per leaf:
//
//   - with a fixed-key codec that encodes every key, a head is the first
//     8 encoded key bytes as a big-endian uint64, read from a prefix
//     arena the columns are encoded into once, so the common comparison
//     is one integer compare instead of a stride over fat kv.Pair
//     structs; under an exact codec the remaining Width-8 bytes
//     (terasort: 2) sit in a tail arena, consulted only when prefixes
//     collide, and under a prefix codec (word count's strings) less
//     orders the keys whose prefixes collide;
//   - otherwise every live head is 0 and each comparison of two live
//     heads goes to less.
//
// Exhausted and padding leaves carry a MaxUint64 head and a tie rank
// pushed past every live column, so the replay has no liveness branch:
// unequal heads resolve by masked index arithmetic, with no
// data-dependent branch on the winner/loser select, and equal heads by
// the tail bytes or less, then the column index. The column index rule
// is mergeTwo's preference for the left run, so every merge emits equal
// keys in the same order, byte-identical with or without a codec. With
// prefixes, each head advance also touches the prefix a few cache lines
// ahead of the consumption point (run-head prefetch).

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"supmr/internal/kv"
)

// prefetchDist is how many keys ahead of the consuming head each
// advance touches — two cache lines of upcoming prefixes stay warm.
const prefetchDist = 16

var prefixPool sync.Pool // *[]uint64

// prefetchSink absorbs the prefetch touches so the loads cannot be
// dead-code eliminated; one atomic add per merge call.
var prefetchSink atomic.Uint64

// scratchHeld counts the pooled arenas taken and not yet handed back,
// so tests can check that every merge and sort returns what it took.
var scratchHeld atomic.Int64

func getScratchU64(n int) []uint64 {
	scratchHeld.Add(1)
	if v := prefixPool.Get(); v != nil {
		if b := *(v.(*[]uint64)); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]uint64, n)
}

func putScratchU64(b []uint64) {
	scratchHeld.Add(-1)
	if cap(b) > 0 {
		prefixPool.Put(&b)
	}
}

// b2i returns 1 for true, 0 for false; the compiler lowers it to a
// flag-set instruction, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// mergeTree merges the sorted columns into dst, which needs capacity
// for all of them, and returns it. codec may be nil; a key it fails to
// encode turns the whole merge to comparison heads, same output.
func mergeTree[K any, V any](cols [][]kv.Pair[K, V], less kv.Less[K], codec *kv.FixedKeyCodec[K], dst []kv.Pair[K, V]) []kv.Pair[K, V] {
	k := len(cols)
	if k <= 1 {
		for _, c := range cols {
			dst = append(dst, c...)
		}
		return dst
	}
	bases := make([]int, k+1) // column c's keys sit at [bases[c], bases[c+1]) of the arenas
	for c, col := range cols {
		bases[c+1] = bases[c] + len(col)
	}
	var (
		pre   []uint64
		tails []byte
		tw    int
	)
	if codec != nil {
		if !codec.Prefix {
			tw = max(codec.Width-8, 0)
		}
		pre = getScratchU64(bases[k])
		defer putScratchU64(pre)
		if tw > 0 {
			tails = getScratchBytes(bases[k] * tw)
			defer putScratchBytes(tails)
		}
		// Put writes buf[:Width] only, so a narrower key leaves the
		// prefix zero-padded on the right: byte order is integer order.
		buf := make([]byte, max(codec.Width, 8))
	encode:
		for c, col := range cols {
			for i, p := range col {
				if !codec.Put(buf, p.Key) {
					pre = nil
					break encode
				}
				at := bases[c] + i
				pre[at] = binary.BigEndian.Uint64(buf)
				copy(tails[at*tw:(at+1)*tw], buf[8:])
			}
		}
	}
	if pre == nil && k == 2 {
		return mergeTwo(cols[0], cols[1], less, dst)
	}

	m := 2
	for m < k {
		m <<= 1
	}
	// heads[c] is column c's next index, cur[c] its head, tie[c] its
	// rank: c while live, c+m once exhausted or padding.
	state := make([]int, 5*m)
	heads, tie, nodes, winners := state[:m], state[m:2*m], state[2*m:3*m], state[3*m:]
	cur := getScratchU64(m)
	defer putScratchU64(cur)
	for c := range m {
		heads[c], tie[c], cur[c] = 0, c, 0
		if c >= k || len(cols[c]) == 0 {
			tie[c], cur[c] = c+m, math.MaxUint64
		} else if pre != nil {
			cur[c] = pre[bases[c]]
		}
	}
	// before breaks a tie of two heads equal to h: when both columns are
	// live — certain unless h is MaxUint64 — by less or by the tail
	// compare, then by rank. The tail compare is a call through a func
	// value so that before stays cheap enough to inline in the replay:
	// the tail bytes under an exact codec, less under a prefix codec.
	var tail func(a, b int) int
	switch {
	case tw > 0:
		tail = func(a, b int) int {
			ia, ib := (bases[a]+heads[a])*tw, (bases[b]+heads[b])*tw
			return bytes.Compare(tails[ia:ia+tw], tails[ib:ib+tw])
		}
	case codec != nil && codec.Prefix:
		tail = func(a, b int) int {
			ka, kb := cols[a][heads[a]].Key, cols[b][heads[b]].Key
			return b2i(less(kb, ka)) - b2i(less(ka, kb))
		}
	}
	before := func(a, b int, h uint64) bool {
		if h != math.MaxUint64 || tie[a]|tie[b] < m { // both live: m is a power of two
			if pre == nil {
				ka, kb := cols[a][heads[a]].Key, cols[b][heads[b]].Key
				if less(ka, kb) {
					return true
				}
				if less(kb, ka) {
					return false
				}
			} else if tail != nil {
				if c := tail(a, b); c != 0 {
					return c < 0
				}
			}
		}
		return tie[a] < tie[b]
	}

	// Build: play all leaves bottom-up, keeping losers in the nodes.
	for c := range m {
		winners[m+c] = c
	}
	for node := m - 1; node >= 1; node-- {
		a, b := winners[2*node], winners[2*node+1]
		if cur[b] < cur[a] || (cur[b] == cur[a] && before(b, a, cur[a])) {
			a, b = b, a
		}
		winners[node], nodes[node] = a, b
	}

	var sink uint64
	for wc := winners[1]; tie[wc] < m; {
		h := heads[wc]
		dst = append(dst, cols[wc][h])
		h++
		heads[wc] = h
		if h == len(cols[wc]) {
			cur[wc], tie[wc] = math.MaxUint64, tie[wc]+m
		} else if pre != nil {
			at := bases[wc] + h
			cur[wc] = pre[at]
			if at+prefetchDist < bases[wc+1] {
				sink += pre[at+prefetchDist] // run-head prefetch
			}
		}
		// Replay from the leaf by index halving: unequal heads select
		// by mask, equal ones fall to the tie comparison.
		for node := (m + wc) >> 1; node > 0; node >>= 1 {
			l := nodes[node]
			if cl, cw := cur[l], cur[wc]; cl != cw {
				mask := -b2i(cl < cw)
				nodes[node] = (wc & mask) | (l &^ mask)
				wc = (l & mask) | (wc &^ mask)
			} else if before(l, wc, cw) {
				nodes[node], wc = wc, l
			}
		}
	}
	prefetchSink.Add(sink)
	return dst
}

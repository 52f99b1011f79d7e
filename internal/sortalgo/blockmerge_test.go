package sortalgo

// The block-streamed merge against the per-record streaming tree it
// replaced, which lives on here as the reference: same sources, same
// tie rule, one record and one interface call at a time.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"supmr/internal/kv"
)

// refTree is the retained per-record loser tree over streaming sources.
type refTree[K any, V any] struct {
	srcs   []Source[K, V]
	heads  []kv.Pair[K, V]
	live   []bool
	nodes  []int
	winner int
	m      int
	less   kv.Less[K]
}

func newRefTree[K any, V any](srcs []Source[K, V], less kv.Less[K]) (*refTree[K, V], error) {
	m := 2
	for m < len(srcs) {
		m <<= 1
	}
	t := &refTree[K, V]{srcs: srcs, heads: make([]kv.Pair[K, V], m), live: make([]bool, m), nodes: make([]int, m), m: m, less: less}
	for c := range srcs {
		p, ok, err := srcs[c].Next()
		if err != nil {
			return nil, err
		}
		t.heads[c], t.live[c] = p, ok
	}
	winners := make([]int, 2*m)
	for i := 0; i < m; i++ {
		winners[m+i] = i
	}
	for node := m - 1; node >= 1; node-- {
		a, b := winners[2*node], winners[2*node+1]
		if t.beats(b, a) {
			a, b = b, a
		}
		winners[node], t.nodes[node] = a, b
	}
	t.winner = winners[1]
	return t, nil
}

func (t *refTree[K, V]) beats(a, b int) bool {
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

func (t *refTree[K, V]) pop() (kv.Pair[K, V], bool, error) {
	w := t.winner
	if !t.live[w] {
		return kv.Pair[K, V]{}, false, nil
	}
	out := t.heads[w]
	p, ok, err := t.srcs[w].Next()
	if err != nil {
		return kv.Pair[K, V]{}, false, err
	}
	t.heads[w], t.live[w] = p, ok
	for node := (t.m + w) >> 1; node > 0; node >>= 1 {
		if l := t.nodes[node]; t.beats(l, w) {
			t.nodes[node] = w
			w = l
		}
	}
	t.winner = w
	return out, true, nil
}

// refMergeSources is the per-record MergeSources: group as keys
// surface, reduce multi-value groups only.
func refMergeSources[K any, V any](srcs []Source[K, V], less kv.Less[K], reduce func(K, []V) V) ([]kv.Pair[K, V], error) {
	if len(srcs) == 0 {
		return nil, nil
	}
	tree, err := newRefTree(srcs, less)
	if err != nil {
		return nil, err
	}
	var (
		out  []kv.Pair[K, V]
		key  K
		vals []V
	)
	flush := func() {
		v := vals[0]
		if len(vals) > 1 {
			v = reduce(key, vals)
		}
		out, vals = append(out, kv.Pair[K, V]{Key: key, Val: v}), vals[:0]
	}
	for {
		p, ok, err := tree.pop()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if len(vals) > 0 && less(key, p.Key) {
			flush()
		}
		if len(vals) == 0 {
			key = p.Key
		}
		vals = append(vals, p.Val)
	}
	if len(vals) > 0 {
		flush()
	}
	return out, nil
}

// chunkedSource is a streaming (not in-memory, as far as the merge can
// tell) source over a slice: NextBlock hands out at most chunk records,
// and the source fails once failAt records have gone out (failAt < 0:
// never).
type chunkedSource[K any, V any] struct {
	ps     []kv.Pair[K, V]
	chunk  int
	failAt int
	out    int
}

var errSourceBroke = errors.New("source broke")

func (s *chunkedSource[K, V]) NextBlock(dst []kv.Pair[K, V]) (int, error) {
	if s.chunk < len(dst) {
		dst = dst[:s.chunk]
	}
	if s.failAt >= 0 && s.out+len(dst) > s.failAt && s.out+len(s.ps) > s.failAt {
		return 0, errSourceBroke
	}
	n := copy(dst, s.ps)
	s.ps, s.out = s.ps[n:], s.out+n
	return n, nil
}

func (s *chunkedSource[K, V]) Next() (kv.Pair[K, V], bool, error) {
	var one [1]kv.Pair[K, V]
	n, err := s.NextBlock(one[:])
	return one[0], n == 1, err
}

// overlappingRuns builds k key-sorted runs over a small key universe,
// so the same key is live in several runs — and, with dupWithin, more
// than once in a run. Values name (run, position) so any reordering of
// a group shows.
func overlappingRuns(rng *rand.Rand, k, maxLen, universe, width int, dupWithin bool) [][]kv.Pair[string, string] {
	runs := make([][]kv.Pair[string, string], k)
	for r := range runs {
		n := rng.Intn(maxLen + 1) // empty runs included
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("%0*d", width, rng.Intn(universe))
		}
		sort.Strings(keys)
		for i, key := range keys {
			if !dupWithin && i > 0 && keys[i-1] == key {
				continue
			}
			runs[r] = append(runs[r], kv.Pair[string, string]{Key: key, Val: fmt.Sprintf("r%d.%d", r, i)})
		}
	}
	return runs
}

func joinReduce(_ string, vs []string) string { return strings.Join(vs, "+") }

// mergeBothWays runs the same runs through the block merge (as
// streaming sources cut into chunk-sized deliveries, every third one an
// in-memory slice source when mixSlices) and through the reference.
func mergeBothWays(t *testing.T, runs [][]kv.Pair[string, string], codec *kv.FixedKeyCodec[string], block, chunk int, mixSlices bool) {
	t.Helper()
	blockSrcs := make([]Source[string, string], len(runs))
	refSrcs := make([]Source[string, string], len(runs))
	for i, r := range runs {
		refSrcs[i] = &chunkedSource[string, string]{ps: r, chunk: 1, failAt: -1}
		if mixSlices && i%3 == 2 {
			blockSrcs[i] = NewSliceSource(r)
		} else {
			blockSrcs[i] = &chunkedSource[string, string]{ps: r, chunk: chunk, failAt: -1}
		}
	}
	want, err := refMergeSources(refSrcs, strLess, joinReduce)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mergeBlocks(blockSrcs, strLess, codec, joinReduce, nil, 0, block)
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, got, want, fmt.Sprintf("block=%d chunk=%d codec=%v slices=%v", block, chunk, codec != nil, mixSlices))
}

func TestBlockMergeMatchesPerRecordReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	codec := kv.StringFixedKey(6)
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(9) // a single source included
		runs := overlappingRuns(rng, k, 90, 40, 6, trial%2 == 0)
		for _, block := range []int{1, 2, 7, sourceBlock} { // 1: every block ends mid-group
			for _, c := range []*kv.FixedKeyCodec[string]{nil, &codec} {
				mergeBothWays(t, runs, c, block, 1+rng.Intn(12), trial%3 == 0)
			}
		}
	}
}

// TestBlockMergeCodecFallsBack feeds keys the fixed-key codec cannot
// encode: the round falls back to the comparison tree, same output.
func TestBlockMergeCodecFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	codec := kv.StringFixedKey(9) // the keys are 6 wide
	mergeBothWays(t, overlappingRuns(rng, 5, 60, 30, 6, true), &codec, 4, 3, true)
}

func TestBlockMergeEdgeShapes(t *testing.T) {
	p := func(k, v string) kv.Pair[string, string] { return kv.Pair[string, string]{Key: k, Val: v} }
	for name, runs := range map[string][][]kv.Pair[string, string]{
		"all empty":       {nil, nil, nil},
		"one of one":      {{p("a", "x")}},
		"empty between":   {{p("a", "0"), p("c", "1")}, nil, {p("b", "2")}},
		"one key, spread": {{p("k", "0"), p("k", "1")}, {p("k", "2")}, {p("k", "3"), p("k", "4"), p("k", "5")}},
		"bound ties":      {{p("a", "0"), p("m", "1")}, {p("m", "2"), p("m", "3"), p("z", "4")}, {p("b", "5"), p("m", "6")}},
	} {
		for _, block := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/block%d", name, block), func(t *testing.T) {
				mergeBothWays(t, runs, nil, block, block, false)
			})
		}
	}
}

// TestBlockMergeSourceErrorMidBlock breaks a source part-way through
// its run, at and inside block boundaries: the error surfaces, no
// partial output does.
func TestBlockMergeSourceErrorMidBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	runs := overlappingRuns(rng, 4, 80, 50, 6, false)
	for len(runs[2]) < 20 {
		runs = overlappingRuns(rng, 4, 80, 50, 6, false)
	}
	for _, failAt := range []int{0, 1, 7, 8, 9, len(runs[2]) - 1} {
		srcs := make([]Source[string, string], len(runs))
		for i, r := range runs {
			srcs[i] = &chunkedSource[string, string]{ps: r, chunk: 8, failAt: -1}
		}
		srcs[2].(*chunkedSource[string, string]).failAt = failAt
		out, err := mergeBlocks(srcs, strLess, nil, joinReduce, nil, 0, 8)
		if !errors.Is(err, errSourceBroke) {
			t.Fatalf("failAt=%d: err = %v, want the source's", failAt, err)
		}
		if out != nil {
			t.Fatalf("failAt=%d: %d pairs returned beside the error", failAt, len(out))
		}
	}
}

// TestBlockMergeSizesOutputFromTotal pins the output growth rule: told
// the input's size, a merge of unique keys reallocates its output once,
// to about the right size, not in doubling or 1.25x steps.
func TestBlockMergeSizesOutputFromTotal(t *testing.T) {
	const k, n = 4, 5000
	srcs := make([]Source[int, int64], k)
	for s := range srcs {
		ps := make([]kv.Pair[int, int64], n)
		for i := range ps {
			ps[i] = kv.Pair[int, int64]{Key: i*k + s, Val: 1}
		}
		srcs[s] = &chunkedSource[int, int64]{ps: ps, chunk: 256, failAt: -1}
	}
	out, err := MergeSourcesWith(srcs, intLess, nil, sumReduce, make([]kv.Pair[int, int64], 0, n), k*n)
	if err != nil || len(out) != k*n {
		t.Fatalf("merged %d pairs, %v", len(out), err)
	}
	if c := cap(out); c > k*n+k*n/8 {
		t.Errorf("output capacity %d for %d pairs: the size estimate overshot", c, k*n)
	}
}

// FuzzBlockMergeVsReference drives run counts, lengths, key overlap and
// both block sizes from the fuzzer.
func FuzzBlockMergeVsReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(20), uint8(1), uint8(1), false)
	f.Add(int64(2), uint8(9), uint8(200), uint8(5), uint8(3), true)
	f.Add(int64(3), uint8(1), uint8(0), uint8(2), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, kRaw, universeRaw, blockRaw, chunkRaw uint8, useCodec bool) {
		rng := rand.New(rand.NewSource(seed))
		runs := overlappingRuns(rng, 1+int(kRaw%12), 70, 1+int(universeRaw), 6, seed%2 == 0)
		var codec *kv.FixedKeyCodec[string]
		if useCodec {
			c := kv.StringFixedKey(6)
			codec = &c
		}
		mergeBothWays(t, runs, codec, 1+int(blockRaw%16), 1+int(chunkRaw%16), seed%3 == 0)
	})
}

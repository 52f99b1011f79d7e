package sortalgo

// Property, fuzz, and regression coverage for the vectorized sort path:
// RadixSortPairs against a stable comparison reference, MergeSources'
// equal-key source ordering, and the PairwiseMerge allocation bound.
// The merge tree's own table and fuzz target are in tree_test.go.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"supmr/internal/exec"
	"supmr/internal/kv"
)

var strLess = kv.Less[string](func(a, b string) bool { return a < b })

// keyAlphabet includes the extremes so encoded prefixes exercise the
// all-zero and all-0xFF corners next to the exhaustion sentinel.
var keyAlphabet = []byte{0x00, 0x01, 'A', 'a', 'b', 0x7F, 0x80, 0xFE, 0xFF}

// fixedKeys builds n exact-width keys. shape: "random", "dup" (two-key
// alphabet, duplicate-heavy), "sorted", "reverse".
func fixedKeys(n, width int, seed int64, shape string) []kv.Pair[string, int] {
	rng := rand.New(rand.NewSource(seed))
	alpha := keyAlphabet
	if shape == "dup" {
		alpha = keyAlphabet[:2]
	}
	ps := make([]kv.Pair[string, int], n)
	buf := make([]byte, width)
	for i := range ps {
		for j := range buf {
			buf[j] = alpha[rng.Intn(len(alpha))]
		}
		ps[i] = kv.Pair[string, int]{Key: string(buf), Val: i}
	}
	switch shape {
	case "sorted":
		sort.SliceStable(ps, func(i, j int) bool { return ps[i].Key < ps[j].Key })
	case "reverse":
		sort.SliceStable(ps, func(i, j int) bool { return ps[i].Key > ps[j].Key })
	}
	return ps
}

// tieAlphabet is small and holds NUL, so the 8-byte order prefixes of
// tieKeys collide — and a key can tie with itself plus trailing NULs.
var tieAlphabet = []byte{0x00, 'a', 'b'}

// tieKeys builds n string keys of 0–24 bytes for the prefix codec:
// each starts with up to 8 bytes of one of one to four stems drawn per
// call, so most keys share their prefix with many others and only their
// tails, or their lengths, tell them apart. Values number the keys.
func tieKeys(rng *rand.Rand, n int) []kv.Pair[string, int] {
	stems := make([][8]byte, 1+rng.Intn(4))
	for s := range stems {
		for i := range stems[s] {
			stems[s][i] = tieAlphabet[rng.Intn(len(tieAlphabet))]
		}
	}
	ps := make([]kv.Pair[string, int], n)
	for i := range ps {
		key := make([]byte, rng.Intn(25))
		stem := stems[rng.Intn(len(stems))]
		for j := range key {
			if j < len(stem) {
				key[j] = stem[j]
			} else {
				key[j] = tieAlphabet[rng.Intn(len(tieAlphabet))]
			}
		}
		ps[i] = kv.Pair[string, int]{Key: string(key), Val: i}
	}
	return ps
}

// tieRef is the prefix path's reference: the runs concatenated in run
// order, stably sorted by strings.Compare on the keys.
func tieRef[V any](runs ...[]kv.Pair[string, V]) []kv.Pair[string, V] {
	ref := slices.Concat(runs...)
	slices.SortStableFunc(ref, func(a, b kv.Pair[string, V]) int { return strings.Compare(a.Key, b.Key) })
	return ref
}

// stableRef is the ground truth the radix sort must reproduce exactly:
// stable comparison sort by key, preserving input order within ties.
func stableRef[K any, V any](ps []kv.Pair[K, V], less kv.Less[K]) []kv.Pair[K, V] {
	ref := append([]kv.Pair[K, V](nil), ps...)
	sort.SliceStable(ref, func(i, j int) bool { return less(ref[i].Key, ref[j].Key) })
	return ref
}

func samePairs[K comparable, V comparable](t *testing.T, got, want []kv.Pair[K, V], label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestRadixSortMatchesStableReference(t *testing.T) {
	for _, width := range []int{1, 4, 7, 8, 10, 16, 24} {
		for _, shape := range []string{"random", "dup", "sorted", "reverse"} {
			for _, n := range []int{radixMinLen, 257, 1500} {
				label := fmt.Sprintf("w=%d %s n=%d", width, shape, n)
				ps := fixedKeys(n, width, int64(width*1000+n), shape)
				want := stableRef(ps, strLess)
				if !RadixSortPairs(ps, strLess, kv.StringFixedKey(width)) {
					t.Fatalf("%s: RadixSortPairs declined", label)
				}
				samePairs(t, ps, want, label)
			}
		}
	}
}

func TestRadixSortIntKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ps := make([]kv.Pair[int, int], 2000)
	for i := range ps {
		ps[i] = kv.Pair[int, int]{Key: int(rng.Int63()) - (1 << 62), Val: i}
	}
	intLess := kv.Less[int](func(a, b int) bool { return a < b })
	want := stableRef(ps, intLess)
	if !RadixSortPairs(ps, intLess, kv.IntFixedKey()) {
		t.Fatal("RadixSortPairs declined int keys")
	}
	samePairs(t, ps, want, "int keys")

	us := make([]kv.Pair[uint64, int], 1000)
	for i := range us {
		us[i] = kv.Pair[uint64, int]{Key: rng.Uint64(), Val: i}
	}
	uwant := stableRef(us, u64Less)
	if !RadixSortPairs(us, u64Less, uint64FixedKey()) {
		t.Fatal("RadixSortPairs declined uint64 keys")
	}
	samePairs(t, us, uwant, "uint64 keys")
}

func TestRadixSortDeclines(t *testing.T) {
	// Below the cutover the comparison sort wins; the radix must decline
	// without touching the slice.
	small := fixedKeys(radixMinLen-1, 8, 3, "random")
	cp := append([]kv.Pair[string, int](nil), small...)
	if RadixSortPairs(small, strLess, kv.StringFixedKey(8)) {
		t.Error("RadixSortPairs accepted a below-cutover slice")
	}
	samePairs(t, small, cp, "below cutover")

	// A key the codec cannot encode (wrong width) must abort the whole
	// sort pre-permutation, leaving the input byte-identical.
	bad := fixedKeys(200, 8, 4, "random")
	bad[137].Key = "short"
	cp = append([]kv.Pair[string, int](nil), bad...)
	if RadixSortPairs(bad, strLess, kv.StringFixedKey(8)) {
		t.Error("RadixSortPairs accepted an unencodable key")
	}
	samePairs(t, bad, cp, "unencodable key")
}

// TestMergeSourcesEqualKeyOrder pins the streaming tree's tie rule:
// when the same key is live in several sources, values must reach the
// reducer in source order — the contract the re-reduce of spilled
// partial runs depends on.
func TestMergeSourcesEqualKeyOrder(t *testing.T) {
	mk := func(ps ...kv.Pair[uint64, string]) Source[uint64, string] {
		return NewSliceSource(ps)
	}
	srcs := []Source[uint64, string]{
		mk(kv.Pair[uint64, string]{Key: 1, Val: "a0"}, kv.Pair[uint64, string]{Key: 2, Val: "a1"}),
		mk(kv.Pair[uint64, string]{Key: 1, Val: "b0"}, kv.Pair[uint64, string]{Key: 1, Val: "b1"}),
		mk(kv.Pair[uint64, string]{Key: 1, Val: "c0"}, kv.Pair[uint64, string]{Key: 3, Val: "c1"}),
	}
	reduce := func(_ uint64, vs []string) string { return strings.Join(vs, ",") }
	got, err := MergeSources(srcs, u64Less, reduce, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []kv.Pair[uint64, string]{
		{Key: 1, Val: "a0,b0,b1,c0"},
		{Key: 2, Val: "a1"},
		{Key: 3, Val: "c1"},
	}
	samePairs(t, got, want, "equal-key source order")
}

// TestPairwiseMergeAllocs pins the ping-pong buffer scheme: the whole
// multi-round merge must run in O(1) slice allocations (two flat
// buffers plus per-round bookkeeping), not a fresh destination per
// mergeTwo per round.
func TestPairwiseMergeAllocs(t *testing.T) {
	rs, _ := randomRuns(t, 32768, 16, 9)
	ex := exec.NewLocal(1)
	defer ex.Close()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := PairwiseMerge(rs, u64Less, ex); err != nil {
			t.Fatal(err)
		}
	})
	// Measured ~63, dominated by executor bookkeeping for the 15 merge
	// tasks; the buffers themselves are 2 allocations. The old
	// per-mergeTwo-destination scheme added an O(total)-byte slice per
	// task on top, so the limit also guards bytes via count.
	if allocs > 120 {
		t.Errorf("PairwiseMerge allocates %.0f objs/op (limit 120)", allocs)
	}
}

// FuzzRadixVsReference drives random widths, shapes, and duplicate
// densities through the radix sort against the stable reference. Shape
// "tie" sorts tieKeys under the string prefix codec instead, where most
// keys share their 8-byte prefix and less orders them.
func FuzzRadixVsReference(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(0))
	f.Add(int64(99), uint8(8), uint8(1))
	f.Add(int64(7), uint8(1), uint8(2))
	f.Add(int64(123), uint8(24), uint8(3))
	f.Add(int64(5), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, widthRaw, shapeRaw uint8) {
		width := int(widthRaw%24) + 1
		shape := []string{"random", "dup", "sorted", "reverse", "tie"}[int(shapeRaw)%5]
		n := radixMinLen + int(uint(seed)%500)
		if shape == "tie" {
			ps := tieKeys(rand.New(rand.NewSource(seed)), n)
			want := tieRef(ps)
			if !RadixSortPairs(ps, strLess, kv.StringPrefixKey()) {
				t.Fatalf("RadixSortPairs declined %d prefix keys", n)
			}
			samePairs(t, ps, want, "fuzz tie")
			return
		}
		ps := fixedKeys(n, width, seed, shape)
		want := stableRef(ps, strLess)
		if !RadixSortPairs(ps, strLess, kv.StringFixedKey(width)) {
			t.Fatalf("RadixSortPairs declined w=%d n=%d", width, len(ps))
		}
		samePairs(t, ps, want, fmt.Sprintf("fuzz w=%d %s", width, shape))
	})
}

package kv

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

func TestSortPairsSmall(t *testing.T) {
	cases := [][]int{
		nil,
		{1},
		{2, 1},
		{1, 2, 3},
		{3, 2, 1},
		{5, 5, 5, 5},
		{9, 1, 8, 2, 7, 3, 6, 4, 5},
	}
	for _, keys := range cases {
		ps := make([]Pair[int, string], len(keys))
		for i, k := range keys {
			ps[i] = Pair[int, string]{Key: k, Val: "v"}
		}
		SortPairs(ps, intLess)
		if !IsSortedPairs(ps, intLess) {
			t.Errorf("SortPairs(%v) not sorted: %v", keys, ps)
		}
	}
}

func TestSortPairsMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(2000)
		keys := make([]int, n)
		ps := make([]Pair[int, int], n)
		for i := range ps {
			k := rng.Intn(500) // plenty of duplicates
			keys[i] = k
			ps[i] = Pair[int, int]{Key: k, Val: i}
		}
		SortPairs(ps, intLess)
		sort.Ints(keys)
		for i := range ps {
			if ps[i].Key != keys[i] {
				t.Fatalf("trial %d: key %d = %d, want %d", trial, i, ps[i].Key, keys[i])
			}
		}
	}
}

func TestSortPairsPermutation(t *testing.T) {
	// Property: sorting preserves the multiset of (key, val) pairs.
	f := func(keys []uint16) bool {
		ps := make([]Pair[uint16, int], len(keys))
		counts := make(map[Pair[uint16, int]]int)
		for i, k := range keys {
			p := Pair[uint16, int]{Key: k, Val: int(k) * 3}
			ps[i] = p
			counts[p]++
		}
		SortPairs(ps, func(a, b uint16) bool { return a < b })
		for _, p := range ps {
			counts[p]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return IsSortedPairs(ps, func(a, b uint16) bool { return a < b })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSortPairsAdversarialDepth(t *testing.T) {
	// Already-sorted, reverse-sorted and organ-pipe inputs exercise the
	// heapsort fallback path.
	n := 4096
	shapes := map[string]func(i int) int{
		"sorted":    func(i int) int { return i },
		"reverse":   func(i int) int { return n - i },
		"organpipe": func(i int) int { return min(i, n-i) },
		"constant":  func(i int) int { return 42 },
	}
	for name, gen := range shapes {
		ps := make([]Pair[int, int], n)
		for i := range ps {
			ps[i] = Pair[int, int]{Key: gen(i), Val: i}
		}
		SortPairs(ps, intLess)
		if !IsSortedPairs(ps, intLess) {
			t.Errorf("%s input not sorted", name)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestIsSortedPairs(t *testing.T) {
	sorted := []Pair[int, int]{{1, 0}, {2, 0}, {2, 0}, {3, 0}}
	if !IsSortedPairs(sorted, intLess) {
		t.Error("sorted slice reported unsorted")
	}
	unsorted := []Pair[int, int]{{2, 0}, {1, 0}}
	if IsSortedPairs(unsorted, intLess) {
		t.Error("unsorted slice reported sorted")
	}
	if !IsSortedPairs([]Pair[int, int](nil), intLess) {
		t.Error("nil slice should count as sorted")
	}
}

func TestEmitFunc(t *testing.T) {
	var gotK string
	var gotV int
	e := EmitFunc[string, int](func(k string, v int) { gotK, gotV = k, v })
	e.Emit("x", 7)
	if gotK != "x" || gotV != 7 {
		t.Errorf("EmitFunc passed (%q, %d), want (x, 7)", gotK, gotV)
	}
}

// TestStringPrefixKeyOrders: the prefix codec never declines, overwrites
// every byte a longer key left in dst, and orders keys consistently with
// byte order — a < b implies bytes(a) <= bytes(b) — while keys that share
// their first 8 bytes, or differ only by trailing NULs, encode alike.
func TestStringPrefixKeyOrders(t *testing.T) {
	codec := StringPrefixKey()
	if codec.Width != 8 || !codec.Prefix {
		t.Fatalf("codec is {Width: %d, Prefix: %v}, want {8, true}", codec.Width, codec.Prefix)
	}
	keys := []string{"", "\x00", "a", "a\x00", "ab", "abcdefgh", "abcdefgh\x00", "abcdefghi",
		"abcdefghz", "abcdefgi", "b", "\xff\xff\xff\xff\xff\xff\xff\xff\xff", "zz"}
	enc := func(k string) string {
		dst := []byte("\xff\xff\xff\xff\xff\xff\xff\xff") // stale bytes from a longer key
		if !codec.Put(dst, k) {
			t.Fatalf("Put(%q) declined", k)
		}
		return string(dst)
	}
	for _, a := range keys {
		for _, b := range keys {
			if a < b && enc(a) > enc(b) {
				t.Errorf("%q < %q but encodes %x > %x", a, b, enc(a), enc(b))
			}
		}
	}
	for _, tie := range [][2]string{{"", "\x00"}, {"a", "a\x00"}, {"abcdefgh", "abcdefghi"}, {"abcdefghi", "abcdefghz"}} {
		if enc(tie[0]) != enc(tie[1]) {
			t.Errorf("%q and %q encode %x and %x, want one prefix", tie[0], tie[1], enc(tie[0]), enc(tie[1]))
		}
	}
}

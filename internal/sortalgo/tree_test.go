package sortalgo

// The merge tree against the stable reference, with each kind of head:
// encoded prefixes, comparison heads, and prefixes abandoned part-way
// through the encode.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"supmr/internal/exec"
	"supmr/internal/kv"
)

// sortedColumns builds k sorted fixed-width runs (possibly with empty
// and heavily overlapping columns) plus the merge reference: a stable
// sort of the concatenation, i.e. equal keys ordered by (column, index)
// — the tie rule of the tree and of mergeTwo. Shape "tie" fills the
// columns with tieKeys, for the prefix codec, and ignores width.
func sortedColumns(k, per, width int, seed int64, shape string) ([][]kv.Pair[string, int], []kv.Pair[string, int]) {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]kv.Pair[string, int], k)
	var flat []kv.Pair[string, int]
	val := 0
	for c := range cols {
		n := per
		if shape == "ragged" {
			n = rng.Intn(per + 1) // includes empty columns
		}
		var col []kv.Pair[string, int]
		if shape == "tie" {
			col = tieKeys(rng, n)
		} else {
			col = fixedKeys(n, width, seed+int64(c)*77, shape)
		}
		sort.SliceStable(col, func(i, j int) bool { return col[i].Key < col[j].Key })
		for i := range col {
			col[i].Val = val
			val++
		}
		cols[c] = col
		flat = append(flat, col...)
	}
	if shape == "tie" {
		return cols, tieRef(flat)
	}
	return cols, stableRef(flat, strLess)
}

// failingAt is the width's string codec, except that its encode of the
// key at column-major position at fails. The tree encodes columns in
// order, so the failure comes after every earlier column is encoded;
// *calls counts the encodes tried.
func failingAt(width, at int, calls *int) *kv.FixedKeyCodec[string] {
	base := kv.StringFixedKey(width)
	return &kv.FixedKeyCodec[string]{Width: width, Put: func(dst []byte, k string) bool {
		*calls++
		return *calls != at+1 && base.Put(dst, k)
	}}
}

// checkTree merges cols with each kind of head and holds the output to
// want, and every pooled arena the merge took to its return.
func checkTree(t *testing.T, cols [][]kv.Pair[string, int], want []kv.Pair[string, int], width int, label string) {
	t.Helper()
	prefix := kv.StringFixedKey(width)
	// The failing codec breaks on the middle key of the last non-empty
	// column, after the earlier columns are encoded.
	at, last := -1, 0
	for _, c := range cols {
		if len(c) > 0 {
			at = last + len(c)/2
		}
		last += len(c)
	}
	calls := 0
	for _, kind := range []string{"prefix", "compare", "encode-fails"} {
		codec := &prefix
		switch kind {
		case "compare":
			codec = nil
		case "encode-fails":
			if at < 0 {
				continue
			}
			codec = failingAt(width, at, &calls)
		}
		held := scratchHeld.Load()
		got := mergeTree(cols, strLess, codec, make([]kv.Pair[string, int], 0, len(want)))
		samePairs(t, got, want, kind+" "+label)
		if n := scratchHeld.Load() - held; n != 0 {
			t.Fatalf("%s %s: %d pooled arenas not handed back", kind, label, n)
		}
	}
	if len(cols) >= 2 && at >= 0 && calls != at+1 {
		t.Fatalf("%s: the failing codec was tried %d times, want %d", label, calls, at+1)
	}
}

func TestMergeTree(t *testing.T) {
	for width := 1; width <= 16; width++ {
		for _, k := range []int{1, 2, 3, 5, 8, 13} {
			for _, shape := range []string{"random", "dup", "ragged"} {
				label := fmt.Sprintf("w=%d k=%d %s", width, k, shape)
				cols, want := sortedColumns(k, 80, width, int64(width*100+k), shape)
				checkTree(t, cols, want, width, label)
			}
		}
	}
}

// TestColumnarMergeMatchesReference holds the tree's encoded-prefix
// heads and its comparison heads to the stable reference, on wider
// columns than TestMergeTree uses.
func TestColumnarMergeMatchesReference(t *testing.T) {
	for _, width := range []int{3, 8, 10, 16} {
		for _, k := range []int{2, 3, 5, 8, 13} {
			for _, shape := range []string{"random", "dup", "ragged"} {
				label := fmt.Sprintf("w=%d k=%d %s", width, k, shape)
				cols, want := sortedColumns(k, 400, width, int64(width*100+k), shape)
				codec := kv.StringFixedKey(width)
				samePairs(t, mergeTree(cols, strLess, &codec, nil), want, "prefix "+label)
				// Comparison heads must give the identical sequence: same
				// tie rule, different head representation.
				samePairs(t, mergeTree(cols, strLess, nil, nil), want, "compare "+label)
			}
		}
	}
}

// TestMergeTreePrefixTies: under the string prefix codec most heads
// tie on their 8-byte prefix, and less must order them ahead of the
// column rank — in the tree alone and in the p-way merge around it.
func TestMergeTreePrefixTies(t *testing.T) {
	codec := kv.StringPrefixKey()
	for _, k := range []int{2, 3, 5, 8, 13} {
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("k=%d workers=%d", k, workers)
			cols, want := sortedColumns(k, 200, 0, int64(k), "tie")
			held := scratchHeld.Load()
			samePairs(t, mergeTree(cols, strLess, &codec, nil), want, "tree "+label)
			ex := exec.NewLocal(workers)
			got, err := PWayMergeWith(cols, strLess, &codec, ex)
			ex.Close()
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, got, want, "p-way "+label)
			if n := scratchHeld.Load() - held; n != 0 {
				t.Fatalf("%s: %d pooled arenas not handed back", label, n)
			}
		}
	}
}

// TestColumnarMergeEncodeFailureFallsBack gives the tree a key of the
// wrong width: the merge must turn to comparison heads, append the
// whole stable merge after what dst already holds, and hand back every
// pooled arena.
func TestColumnarMergeEncodeFailureFallsBack(t *testing.T) {
	cols, _ := sortedColumns(3, 50, 8, 21, "random")
	cols[1][17].Key = cols[1][17].Key[:3] // wrong width
	sort.SliceStable(cols[1], func(i, j int) bool { return cols[1][i].Key < cols[1][j].Key })
	var flat []kv.Pair[string, int]
	for _, c := range cols {
		flat = append(flat, c...)
	}
	lead := kv.Pair[string, int]{Key: "lead", Val: -1}
	want := append([]kv.Pair[string, int]{lead}, stableRef(flat, strLess)...)

	codec := kv.StringFixedKey(8)
	held := scratchHeld.Load()
	got := mergeTree(cols, strLess, &codec, append(make([]kv.Pair[string, int], 0, len(want)), lead))
	samePairs(t, got, want, "unencodable key")
	if n := scratchHeld.Load() - held; n != 0 {
		t.Fatalf("%d pooled arenas not handed back", n)
	}
}

func TestMergeTreeSentinelKeys(t *testing.T) {
	// All-0xFF keys collide with the exhaustion sentinel's head; the tie
	// ranks must still separate live columns from dead ones.
	hi := strings.Repeat("\xff", 10)
	lo := strings.Repeat("\x00", 10)
	cols := [][]kv.Pair[string, int]{
		{{Key: lo, Val: 0}, {Key: hi, Val: 1}, {Key: hi, Val: 2}},
		{{Key: hi, Val: 3}},
		{}, // empty column next to a padding leaf
		{{Key: lo, Val: 4}, {Key: hi, Val: 5}},
	}
	var flat []kv.Pair[string, int]
	for _, c := range cols {
		flat = append(flat, c...)
	}
	checkTree(t, cols, stableRef(flat, strLess), 10, "sentinel keys")
}

// FuzzMergeTreesVsReference checks the tree with a codec, without one,
// and through the streaming merge against the stable reference on the
// same fuzzed columns. Shape "tie" takes the string prefix codec, on
// the tree and the streaming merge alike, over tieKeys columns.
func FuzzMergeTreesVsReference(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(12), uint8(0))
	f.Add(int64(5), uint8(9), uint8(8), uint8(1))
	f.Add(int64(11), uint8(2), uint8(16), uint8(2))
	f.Add(int64(13), uint8(6), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, kRaw, widthRaw, shapeRaw uint8) {
		k := int(kRaw%16) + 2
		width := int(widthRaw%16) + 1
		shape := []string{"random", "dup", "ragged", "tie"}[int(shapeRaw)%4]
		cols, want := sortedColumns(k, 120, width, seed, shape)
		label := fmt.Sprintf("fuzz k=%d w=%d %s", k, width, shape)

		codec := kv.StringFixedKey(width)
		var streamCodec *kv.FixedKeyCodec[string]
		if shape == "tie" {
			codec = kv.StringPrefixKey()
			streamCodec = &codec
		}
		samePairs(t, mergeTree(cols, strLess, &codec, nil), want, "prefix "+label)
		samePairs(t, mergeTree(cols, strLess, nil, nil), want, "compare "+label)

		srcs := make([]Source[string, int], len(cols))
		for i, c := range cols {
			srcs[i] = NewSliceSource(c)
		}
		// Identity "reduce" keeps singletons; equal keys collapse in
		// source order, matching the stable reference's first element.
		streamed, err := MergeSourcesWith(srcs, strLess, streamCodec, func(_ string, vs []int) int { return vs[0] }, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for _, w := range want {
			if i > 0 && streamed[i-1].Key == w.Key {
				continue // collapsed duplicate; first source's value won
			}
			if i >= len(streamed) || streamed[i] != w {
				t.Fatalf("%s: streamed[%d] mismatch", label, i)
			}
			i++
		}
		if i != len(streamed) {
			t.Fatalf("%s: streamed %d groups, want %d", label, len(streamed), i)
		}
	})
}

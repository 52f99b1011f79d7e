package container

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"supmr/internal/kv"
	"supmr/internal/workload"
)

func TestFlatHashCounts(t *testing.T) {
	f := NewFlatHash[int64](8, sumInt64)
	l := f.NewLocal()
	for i := 0; i < 10; i++ {
		l.Emit("a", 1)
	}
	l.Emit("b", 5)
	l.Flush()
	got := collect[string, int64](f, reduceSum)
	if got["a"] != 10 || got["b"] != 5 {
		t.Errorf("counts = %v", got)
	}
	if f.Len() != 2 {
		t.Errorf("Len = %d, want 2", f.Len())
	}
}

func TestFlatHashRequiresCombiner(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFlatHash(nil combiner) should panic")
		}
	}()
	NewFlatHash[int64](8, nil)
}

func TestFlatHashShardRounding(t *testing.T) {
	if p := NewFlatHash[int64](5, sumInt64).Partitions(); p != 8 {
		t.Errorf("5 shards should round to 8, got %d", p)
	}
	if p := NewFlatHash[int64](0, sumInt64).Partitions(); p != 1 {
		t.Errorf("0 shards should become 1, got %d", p)
	}
}

// Differential: for randomized emissions spread over many locals and
// multiple unflushed "rounds", the flat container and the map-backed
// hash container must reduce to identical key→count maps.
func TestFlatHashMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	flat := NewFlatHash[int64](8, sumInt64)
	ref := NewHash[string, int64](8, StringHasher, sumInt64)
	for round := 0; round < 5; round++ {
		fl, rl := flat.NewLocal(), ref.NewLocal()
		for i := 0; i < 3000; i++ {
			key := fmt.Sprintf("key-%d", rng.Intn(400))
			if rng.Intn(2) == 0 {
				fl.(*flatLocal[int64]).EmitBytes([]byte(key), 1)
			} else {
				fl.Emit(key, 1)
			}
			rl.Emit(key, 1)
			if rng.Intn(500) == 0 { // rotate locals mid-stream
				fl.Flush()
				rl.Flush()
				fl, rl = flat.NewLocal(), ref.NewLocal()
			}
		}
		fl.Flush()
		rl.Flush()
	}
	got := collect[string, int64](flat, reduceSum)
	want := collect[string, int64](ref, reduceSum)
	if len(got) != len(want) {
		t.Fatalf("distinct keys: flat %d, map %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %q: flat %d, map %d", k, got[k], v)
		}
	}
	if flat.Len() != ref.Len() {
		t.Errorf("Len: flat %d, map %d", flat.Len(), ref.Len())
	}
}

// Growth: push enough distinct keys through one local to force several
// index doublings (512 initial slots → 10k keys crosses four rehashes)
// and verify nothing is lost or double-counted.
func TestFlatLocalGrowthRehash(t *testing.T) {
	const n = 10_000
	f := NewFlatHash[int64](4, sumInt64)
	l := f.NewLocal()
	for i := 0; i < n; i++ {
		l.Emit(fmt.Sprintf("key-%06d", i), 1)
		l.Emit(fmt.Sprintf("key-%06d", i), 2) // merge path after insert
	}
	l.Flush()
	got := collect[string, int64](f, reduceSum)
	if len(got) != n {
		t.Fatalf("distinct keys = %d, want %d", len(got), n)
	}
	for k, v := range got {
		if v != 3 {
			t.Fatalf("key %q = %d, want 3", k, v)
		}
	}
}

// Steady state: once a pooled local's table and arena are warm and the
// global shards hold the vocabulary, a full NewLocal→emit→Flush round
// must not allocate.
func TestFlatHashSteadyStateZeroAlloc(t *testing.T) {
	f := NewFlatHash[int64](8, sumInt64)
	keys := make([][]byte, 300)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
	}
	round := func() {
		l := f.NewLocal().(*flatLocal[int64])
		for rep := 0; rep < 4; rep++ {
			for _, k := range keys {
				l.EmitBytes(k, 1)
			}
		}
		l.Flush()
	}
	round() // warm the pooled local and intern the vocabulary
	if allocs := testing.AllocsPerRun(10, round); allocs > 2 {
		t.Errorf("steady-state round allocates %.0f objects, want <= 2", allocs)
	}
}

func TestFlatHashEmptyKey(t *testing.T) {
	f := NewFlatHash[int64](4, sumInt64)
	l := f.NewLocal().(*flatLocal[int64])
	l.EmitBytes(nil, 1)
	l.EmitBytes([]byte{}, 2)
	l.Emit("", 3)
	l.Emit("x", 1)
	l.Flush()
	got := collect[string, int64](f, reduceSum)
	if got[""] != 6 {
		t.Errorf("empty key = %d, want 6", got[""])
	}
	if got["x"] != 1 || f.Len() != 2 {
		t.Errorf("counts = %v, Len = %d", got, f.Len())
	}
}

// EmitBytes keys may alias caller memory that is reused after the call;
// the container must have copied them.
func TestFlatHashEmitBytesDoesNotRetainCallerBytes(t *testing.T) {
	f := NewFlatHash[int64](4, sumInt64)
	l := f.NewLocal().(*flatLocal[int64])
	buf := []byte("alpha")
	l.EmitBytes(buf, 1)
	copy(buf, "XXXXX")
	l.EmitBytes([]byte("alpha"), 1)
	l.Flush()
	got := collect[string, int64](f, reduceSum)
	if got["alpha"] != 2 || len(got) != 1 {
		t.Errorf("counts = %v, want alpha=2 only", got)
	}
}

func TestFlatHashConcurrentLocals(t *testing.T) {
	f := NewFlatHash[int64](16, sumInt64)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := f.NewLocal()
			for i := 0; i < perWorker; i++ {
				l.Emit(fmt.Sprintf("key-%d", i%50), 1)
			}
			l.Flush()
		}()
	}
	wg.Wait()
	got := collect[string, int64](f, reduceSum)
	var total int64
	for _, v := range got {
		total += v
	}
	if total != workers*perWorker {
		t.Errorf("total = %d, want %d", total, workers*perWorker)
	}
	if len(got) != 50 {
		t.Errorf("distinct keys = %d, want 50", len(got))
	}
}

func TestFlatHashSizeBytes(t *testing.T) {
	f := NewFlatHash[int64](4, sumInt64)
	if f.SizeBytes() != 0 {
		t.Fatalf("empty SizeBytes = %d", f.SizeBytes())
	}
	l := f.NewLocal()
	for i := 0; i < 100; i++ {
		l.Emit(fmt.Sprintf("key-%03d", i), 1)
	}
	l.Flush()
	size := f.SizeBytes()
	if size <= 0 {
		t.Fatalf("SizeBytes = %d after 100 keys", size)
	}
	// Re-emitting the same vocabulary merges in place: no new keys, no
	// growth for a fixed-size value type.
	l = f.NewLocal()
	for i := 0; i < 100; i++ {
		l.Emit(fmt.Sprintf("key-%03d", i), 1)
	}
	l.Flush()
	if got := f.SizeBytes(); got != size {
		t.Errorf("SizeBytes grew %d -> %d on merge-only flush", size, got)
	}
	f.Reset()
	if f.SizeBytes() != 0 || f.Len() != 0 {
		t.Errorf("Reset left SizeBytes=%d Len=%d", f.SizeBytes(), f.Len())
	}
}

func TestFlatHashPartitionBounds(t *testing.T) {
	f := NewFlatHash[int64](4, sumInt64)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range partition should panic")
		}
	}()
	f.Reduce(99, reduceSum, nil)
}

// Fuzz: tokenizer output fed through the flat bytes path, and the input
// fed through the flat word path, must reduce identically to strings fed
// through the map-backed container. The input is split in two halves
// that two locals fold and flush in turn into 2-shard containers, so the
// second flush must find keys the first left behind, after shard growth
// re-homed them by recomputed hashes.
func FuzzFlatCombiner(f *testing.F) {
	f.Add([]byte("the quick brown fox the lazy dog the end"))
	f.Add([]byte(""))
	f.Add([]byte("a a a a a a a a"))
	f.Add([]byte("x\ny\tz x\x00y"))
	f.Add([]byte("ab ab\x00 abcdefgh abcdefgh\x00 abcdefgh1 abcdefgh2 ab\x00\x00 abcdefgh1 ab"))
	var vocab []byte
	for i := range 1200 { // grows each local and the shards
		vocab = fmt.Appendf(vocab, "w%d document-%06d ", i%600, i%300)
	}
	f.Add(vocab)
	f.Fuzz(func(t *testing.T, data []byte) {
		flat := NewFlatHash[int64](2, sumInt64)
		words := NewFlatHash[int64](2, sumInt64)
		ref := NewHash[string, int64](2, StringHasher, sumInt64)
		for _, half := range [][]byte{data[:len(data)/2], data[len(data)/2:]} {
			fl := flat.NewLocal().(*flatLocal[int64])
			rl := ref.NewLocal()
			workload.Tokenize(half, func(w []byte) {
				fl.EmitBytes(w, 1)
				rl.Emit(string(w), 1)
			})
			fl.Flush()
			rl.Flush()
			wl := words.NewLocal().(*flatLocal[int64])
			wl.EmitWords(half, 1)
			wl.Flush()
		}
		want := collect[string, int64](ref, reduceSum)
		for path, c := range map[string]*FlatHash[int64]{"bytes": flat, "words": words} {
			got := collect[string, int64](c, reduceSum)
			if len(got) != len(want) || c.Len() != len(want) {
				t.Fatalf("%s path: distinct keys: flat %d (Len %d), map %d", path, len(got), c.Len(), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("%s path: key %q: flat %d, map %d", path, k, got[k], v)
				}
			}
		}
	})
}

// The entry is prefix + arena offset + length: the layout every probe
// and the memo fold's whole-vocabulary locals pay for per key. A hit on
// a key of up to 8 bytes reads nothing else.
func TestFlatEntryIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(flatEntry{}); n != 16 {
		t.Fatalf("flatEntry is %d bytes, want 16", n)
	}
}

// collidingKeys returns n distinct keys whose hashes share a home slot
// in every index of up to 1024 slots, so each probe walks a chain.
func collidingKeys(n int) []string {
	var keys []string
	want := home(kv.KeyHash([]byte("c0")), 1023)
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("c%d", i)
		if home(kv.KeyHash([]byte(k)), 1023) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

// Keys the probe must tell apart although hash filters, lengths or
// prefixes agree, each emitted 1..3 times, through one local and through
// three locals flushed in turn (emission r of a key goes to local r), so
// both tiers see them. Reduce must return each distinct key exactly once
// with its total.
func TestFlatHashEdgeKeys(t *testing.T) {
	cases := map[string][]string{
		"padded-prefix": {"ab", "ab\x00", "ab\x00\x00", "a", "\x00", "\x00\x00"},
		"same-first-8": {"abcdefgh1", "abcdefgh2", "abcdefghXjklmnop", "abcdefghYjklmnop",
			"abcdefghijklmnoX", "abcdefghijklmnoY", "abcdefgh"},
		"odd-keys":     {"", strings.Repeat("x", 100), strings.Repeat("x", 99) + "y", "café", "caf\xc3\xa9\xff", "日本語", "\x80\x81", "\xff"},
		"probe-chains": collidingKeys(600),
	}
	for name, keys := range cases {
		want := make(map[string]int64)
		for i, k := range keys {
			want[k] = int64(i%3 + 1)
		}
		for _, locals := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/locals=%d", name, locals), func(t *testing.T) {
				f := NewFlatHash[int64](4, sumInt64)
				for l := 0; l < locals; l++ {
					loc := f.NewLocal()
					for rep := 0; rep < 3; rep++ {
						for _, k := range keys {
							if rep%locals == l && int64(rep) < want[k] {
								loc.Emit(k, 1)
							}
						}
					}
					loc.Flush()
				}
				var pairs []kv.Pair[string, int64]
				for p := 0; p < f.Partitions(); p++ {
					pairs = f.Reduce(p, reduceSum, pairs)
				}
				if len(pairs) != len(want) || f.Len() != len(want) {
					t.Fatalf("Reduce returned %d pairs, Len %d, want %d distinct keys", len(pairs), f.Len(), len(want))
				}
				for _, p := range pairs {
					if want[p.Key] != p.Val {
						t.Errorf("key %q = %d, want %d", p.Key, p.Val, want[p.Key])
					}
				}
			})
		}
	}
}

// With every hash forced equal, only length, prefix and the remaining
// bytes tell keys apart: each key must find its own entry. The table has
// 32 slots, which its 18 keys never grow: growth re-homes entries by
// their real hashes, which the forged one does not match.
func TestFlatTableSameHash(t *testing.T) {
	keys := []string{"", "a", "ab", "ba", "ab\x00", "ab\x00\x00", "abcdefgh", "abcdefgX", "abcdefgh\x00",
		"abcdefgh1", "abcdefgh2", "Xbcdefgh1", "abcdefghXjklmnop", "abcdefghYjklmnop",
		"abcdefghijklmnoX", "abcdefghijklmnoY", strings.Repeat("x", 100), strings.Repeat("x", 99) + "y"}
	tb := newFlatTable[int64](32)
	const h = 0x2a
	for i, k := range keys {
		kb := []byte(k)
		ei, slot := tb.find(h, kv.KeyPrefix(kb), kb)
		if ei >= 0 {
			t.Fatalf("key %q found entry %d before insertion", k, ei)
		}
		tb.insert(slot, h, kv.KeyPrefix(kb), kb, int64(i))
	}
	for i, k := range keys {
		kb := []byte(k)
		ei, _ := tb.find(h, kv.KeyPrefix(kb), kb)
		if ei < 0 || tb.vals[ei] != int64(i) || string(tb.arena[tb.entries[ei].koff:][:len(k)]) != k {
			t.Errorf("key %q: entry %d, want the one holding %d", k, ei, i)
		}
	}
}

// Growth re-homes entries by hashes recomputed from the entry (keys of
// up to 8 bytes) or the arena (longer ones). Growing from 8 slots past
// keys of every length from 0 to 20, each recomputed hash must equal
// kv.KeyHash of the key, and each key must still be found.
func TestFlatTableGrowthRecomputesHash(t *testing.T) {
	tb := newFlatTable[int64](8)
	var keys []string
	for n := 0; n <= 20; n++ {
		for _, c := range []byte{'a', 0x00, 0xff} {
			keys = append(keys, strings.Repeat("k", n/2)+strings.Repeat(string(c), n-n/2))
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	for i, k := range keys {
		kb := []byte(k)
		h, prefix := kv.KeyHash(kb), kv.KeyPrefix(kb)
		ei, slot := tb.find(h, prefix, kb)
		if ei >= 0 {
			t.Fatalf("key %q found entry %d before insertion", k, ei)
		}
		tb.insert(slot, h, prefix, kb, int64(i))
	}
	if len(tb.index) <= 8 {
		t.Fatalf("index has %d slots after %d keys: the table never grew", len(tb.index), len(keys))
	}
	for i, k := range keys {
		kb := []byte(k)
		ei, _ := tb.find(kv.KeyHash(kb), kv.KeyPrefix(kb), kb)
		if ei < 0 || tb.vals[ei] != int64(i) {
			t.Fatalf("key %q: entry %d, want the one holding %d", k, ei, i)
		}
		if got, want := tb.hash(tb.entries[ei]), kv.KeyHash(kb); got != want {
			t.Errorf("key %q: recomputed hash %#x, KeyHash %#x", k, got, want)
		}
	}
}

// Reduce hands out views of a shard's key arena, not copies: they must
// keep their bytes while later flushes grow the arena and after Reset.
func TestFlatHashReducedKeysStayValid(t *testing.T) {
	f := NewFlatHash[int64](2, sumInt64)
	emit := func(format string, n int) {
		l := f.NewLocal()
		for i := 0; i < n; i++ {
			l.Emit(fmt.Sprintf(format, i), 1)
		}
		l.Flush()
	}
	var pairs []kv.Pair[string, int64]
	var copies []string
	reduce := func() {
		for p := 0; p < f.Partitions(); p++ {
			pairs = f.Reduce(p, reduceSum, pairs)
		}
		for _, p := range pairs[len(copies):] {
			copies = append(copies, strings.Clone(p.Key))
		}
	}
	check := func(when string) {
		t.Helper()
		for i, p := range pairs {
			if p.Key != copies[i] {
				t.Fatalf("%s: reduced key %q became %q", when, copies[i], p.Key)
			}
		}
	}
	emit("word-%d", 100)
	reduce()
	emit("word-%d", 20_000) // regrows every shard's arena
	check("after the arenas grew")
	reduce()
	f.Reset()
	emit("other-%d", 20_000)
	check("after Reset and refill")
}

// Reset keeps each shard's index, entries and values and starts a fresh
// arena of the old one's capacity: views a Reduce handed out before it
// still read their keys after a refill, and refilling the same keys
// allocates one arena per shard and nothing else.
func TestFlatHashResetKeepsCapacity(t *testing.T) {
	const shards = 4
	f := NewFlatHash[int64](shards, sumInt64)
	keys := make([]string, 5000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
	}
	fill := func() {
		l := f.NewLocal()
		for _, k := range keys {
			l.Emit(k, 1)
		}
		l.Flush()
	}
	fill()
	var views []kv.Pair[string, int64]
	for p := 0; p < f.Partitions(); p++ {
		views = f.Reduce(p, reduceSum, views)
	}
	kv.SortPairs(views, func(a, b string) bool { return a < b })
	var arenas uint64
	for i := range f.shards {
		arenas += uint64(cap(f.shards[i].table.arena))
	}
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f.Reset()
		fill()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > arenas+1<<10 {
			t.Fatalf("Reset and a same-size refill allocate %d bytes, want the %d of the shards' fresh arenas", got, arenas)
		}
	}
	for i, p := range views {
		if p.Key != keys[i] {
			t.Fatalf("view %d reads %q after Reset and refills, want %q", i, p.Key, keys[i])
		}
	}
	if f.Len() != len(keys) || f.SizeBytes() == 0 {
		t.Errorf("refilled container holds %d keys in %d bytes, want %d keys", f.Len(), f.SizeBytes(), len(keys))
	}
}

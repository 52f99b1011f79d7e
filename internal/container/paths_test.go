package container_test

import (
	"crypto/sha256"
	"testing"

	"supmr/internal/container"
	"supmr/internal/kv"
	"supmr/internal/memo"
	"supmr/internal/storage"
)

// Every way a key enters the flat container — Emit, EmitBytes, the word
// path and a memo replay — hashes it with kv.KeyHash, so each key lands
// in one global entry whichever paths carried it, through one local or
// through a local per path.
func TestFlatHashEveryPathOneEntry(t *testing.T) {
	store, err := memo.NewStore(memo.Config{Device: storage.NewNullDevice(storage.NewFakeClock())})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cache, err := memo.NewCache[string, int64](store, "wc")
	if err != nil {
		t.Fatal(err)
	}
	k := cache.Key(sha256.Sum256([]byte("chunk")))
	long := "a-word-of-more-than-sixteen-bytes"
	if err := cache.Put(k, []kv.Pair[string, int64]{{Key: "alpha", Val: 5}, {Key: long, Val: 7}}); err != nil {
		t.Fatal(err)
	}
	entry, ok, err := cache.Fetch(k)
	if !ok || err != nil {
		t.Fatalf("Fetch: ok=%v err=%v", ok, err)
	}

	paths := []func(l container.Local[string, int64]){
		func(l container.Local[string, int64]) { l.Emit("alpha", 1); l.Emit(long, 1) },
		func(l container.Local[string, int64]) {
			be := l.(kv.BytesEmitter[int64])
			be.EmitBytes([]byte("alpha"), 1)
			be.EmitBytes([]byte(long), 1)
		},
		func(l container.Local[string, int64]) {
			l.(kv.WordEmitter[int64]).EmitWords([]byte("alpha "+long+"\nbeta alpha"), 1)
		},
		func(l container.Local[string, int64]) {
			if err := cache.Replay(entry, l); err != nil {
				t.Fatal(err)
			}
		},
	}
	want := map[string]int64{"alpha": 1 + 1 + 2 + 5, long: 1 + 1 + 1 + 7, "beta": 1}
	for _, perPath := range []bool{false, true} {
		f := container.NewFlatHash[int64](8, func(a, b int64) int64 { return a + b })
		l := f.NewLocal()
		for _, emit := range paths {
			emit(l)
			if perPath {
				l.Flush()
				l = f.NewLocal()
			}
		}
		l.Flush()
		var pairs []kv.Pair[string, int64]
		for p := 0; p < f.Partitions(); p++ {
			pairs = f.Reduce(p, func(_ string, vs []int64) int64 { return vs[0] }, pairs)
		}
		if len(pairs) != len(want) {
			t.Fatalf("local per path %v: Reduce returned %v, want one pair per key of %v", perPath, pairs, want)
		}
		for _, p := range pairs {
			if want[p.Key] != p.Val {
				t.Errorf("local per path %v: key %q = %d, want %d", perPath, p.Key, p.Val, want[p.Key])
			}
		}
	}
}

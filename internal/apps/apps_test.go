package apps

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/core"
	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/metrics"
	"supmr/internal/storage"
	"supmr/internal/workload"
)

// collectEmits runs Map and returns the emitted pairs.
func collectEmits[K comparable, V any](app kv.App[K, V], split []byte) []kv.Pair[K, V] {
	var out []kv.Pair[K, V]
	app.Map(split, kv.EmitFunc[K, V](func(k K, v V) {
		out = append(out, kv.Pair[K, V]{Key: k, Val: v})
	}))
	return out
}

func TestWordCountMap(t *testing.T) {
	got := collectEmits[string, int64](WordCount{}, []byte("a b a\nc a\n"))
	counts := make(map[string]int64)
	for _, p := range got {
		counts[p.Key] += p.Val
	}
	if counts["a"] != 3 || counts["b"] != 1 || counts["c"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestWordCountReduceAndCombine(t *testing.T) {
	wc := WordCount{}
	if wc.Reduce("x", []int64{1, 2, 3}) != 6 {
		t.Error("Reduce sum wrong")
	}
	if wc.Combine(4, 5) != 9 {
		t.Error("Combine wrong")
	}
	if !wc.Less("a", "b") || wc.Less("b", "a") {
		t.Error("Less wrong")
	}
	if _, ok := wc.Boundary().(chunk.NewlineBoundary); !ok {
		t.Error("word count boundary should be newline")
	}
}

func TestSortMapExtractsKeys(t *testing.T) {
	data := make([]byte, 5*workload.TeraRecordSize)
	workload.TeraGen{Seed: 4}.Fill()(0, data)
	got := collectEmits[string, uint64](Sort{}, data)
	if len(got) != 5 {
		t.Fatalf("emitted %d pairs, want 5", len(got))
	}
	for _, p := range got {
		if len(p.Key) != workload.TeraKeySize {
			t.Errorf("key %q wrong length", p.Key)
		}
	}
}

func TestSortMapTruncatesPartialRecord(t *testing.T) {
	data := make([]byte, 2*workload.TeraRecordSize+37)
	workload.TeraGen{Seed: 4}.Fill()(0, data)
	got := collectEmits[string, uint64](Sort{}, data)
	if len(got) != 2 {
		t.Errorf("emitted %d pairs from partial buffer, want 2", len(got))
	}
}

// Sort.Map cuts a split's keys from one buffer: each pair is its
// record's key and payload fingerprint, and a 1 MiB split costs a
// handful of allocations, not one per record.
func TestSortMapKeysFromOneBuffer(t *testing.T) {
	const records = 1 << 20 / workload.TeraRecordSize
	data := make([]byte, records*workload.TeraRecordSize)
	workload.TeraGen{Seed: 5}.Fill()(0, data)
	got := collectEmits[string, uint64](Sort{}, data)
	if len(got) != records {
		t.Fatalf("emitted %d pairs, want %d", len(got), records)
	}
	for i, p := range got {
		rec := data[i*workload.TeraRecordSize:]
		if p.Key != string(rec[:workload.TeraKeySize]) || p.Val != workload.Uint64Key(rec[workload.TeraKeySize:]) {
			t.Fatalf("pair %d = %q/%d, want record %d's key and fingerprint", i, p.Key, p.Val, i)
		}
	}
	var discard kv.Emitter[string, uint64] = kv.EmitFunc[string, uint64](func(string, uint64) {})
	if allocs := testing.AllocsPerRun(5, func() { Sort{}.Map(data, discard) }); allocs > 4 {
		t.Errorf("Sort.Map over a 1 MiB split allocates %.0f objects, want <= 4", allocs)
	}
}

// growEmitter counts Grow hints and emits.
type growEmitter struct{ grows, hinted, emits int }

func (g *growEmitter) Grow(n int)          { g.grows++; g.hinted += n }
func (g *growEmitter) Emit(string, uint64) { g.emits++ }

// A sort map task allocates its key buffer and one pair slice: Sort.Map
// tells a kv.Grower its record count before emitting, and the key-range
// container's Local sizes its buffer to it instead of doubling from nil.
func TestSortMapPresizesItsLocal(t *testing.T) {
	const records = 1 << 20 / workload.TeraRecordSize
	data := make([]byte, records*workload.TeraRecordSize+37)
	workload.TeraGen{Seed: 6}.Fill()(0, data)
	var g growEmitter
	Sort{}.Map(data, &g)
	if g.grows != 1 || g.hinted != records || g.emits != records {
		t.Fatalf("%d Grow calls hinting %d pairs for %d emits; want one hint of exactly %d", g.grows, g.hinted, g.emits, records)
	}
	// The key buffer and the pair slice, each allocated once at its size
	// (rounded up to whole pages), and the Local itself; a pair slice
	// grown by doubling allocates about twice its final size.
	c := container.NewKeyRange[string, uint64](0)
	want := uint64(records*(workload.TeraKeySize+unsafe.Sizeof(kv.Pair[string, uint64]{}))) + 16<<10
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Sort{}.Map(data, c.NewLocal())
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > want {
			t.Fatalf("a sort map task into a key-range Local allocates %d bytes, want at most %d", got, want)
		}
	}
}

func TestSortReduceIdentity(t *testing.T) {
	s := Sort{}
	if s.Reduce("k", []uint64{42}) != 42 {
		t.Error("Reduce should pass the single value through")
	}
	if s.Reduce("k", nil) != 0 {
		t.Error("Reduce of empty values should be 0")
	}
	if _, ok := s.Boundary().(chunk.CRLFBoundary); !ok {
		t.Error("sort boundary should be CRLF")
	}
}

func TestHistogramCountsBytes(t *testing.T) {
	h := Histogram{}
	got := collectEmits[int, int64](h, []byte{0, 0, 1, 255, 255, 255})
	counts := make(map[int]int64)
	for _, p := range got {
		counts[p.Key] += p.Val
	}
	if counts[0] != 2 || counts[1] != 1 || counts[255] != 3 {
		t.Errorf("counts = %v", counts)
	}
	cont := h.NewContainer(4)
	if cont.Partitions() != 4 {
		t.Errorf("histogram container partitions = %d", cont.Partitions())
	}
}

func TestInvertedIndex(t *testing.T) {
	ix := &InvertedIndex{}
	ix.SetData(&chunk.Chunk{Files: []string{"doc1"}})
	got := collectEmits[string, []string](ix, []byte("alpha beta alpha\n"))
	// Deduplicated per split: alpha once, beta once.
	if len(got) != 2 {
		t.Fatalf("emitted %d postings, want 2", len(got))
	}
	for _, p := range got {
		if len(p.Val) != 1 || p.Val[0] != "doc1" {
			t.Errorf("posting = %+v", p)
		}
	}
	// Reduce merges, dedups and sorts.
	merged := ix.Reduce("w", [][]string{{"b", "a"}, {"a", "c"}})
	if !sort.StringsAreSorted(merged) || len(merged) != 3 {
		t.Errorf("Reduce = %v", merged)
	}
	// Without SetData, words attribute to a placeholder.
	ix2 := &InvertedIndex{}
	got2 := collectEmits[string, []string](ix2, []byte("x\n"))
	if len(got2) != 1 || got2[0].Val[0] != "<input>" {
		t.Errorf("placeholder posting = %+v", got2)
	}
}

func TestOpenMPSortSortsEverything(t *testing.T) {
	const records = 2000
	data := make([]byte, records*workload.TeraRecordSize)
	workload.TeraGen{Seed: 6}.Fill()(0, data)
	f := storage.BytesFile("in", data, storage.NewNullDevice(storage.NewFakeClock()))
	inter, err := chunk.NewInterFile(f, int64(len(data))+1, chunk.CRLFBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewLocal(4)
	defer pool.Close()
	res, err := OpenMPSort(chunk.NewWholeInput(inter), pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != records {
		t.Fatalf("sorted %d of %d records", len(res.Pairs), records)
	}
	less := kv.Less[string](func(a, b string) bool { return a < b })
	if !kv.IsSortedPairs(res.Pairs, less) {
		t.Error("OpenMP sort output unsorted")
	}
	// Phases: read, map (parse), merge (sort) recorded; no reduce.
	if res.Times.Get(metrics.PhaseMap) <= 0 || res.Times.Get(metrics.PhaseMerge) <= 0 {
		t.Errorf("phase times = %s", res.Times.String())
	}
}

func TestOpenMPMatchesMapReduceSort(t *testing.T) {
	const records = 1500
	data := make([]byte, records*workload.TeraRecordSize)
	workload.TeraGen{Seed: 8}.Fill()(0, data)

	mk := func() chunk.Stream {
		f := storage.BytesFile("in", data, storage.NewNullDevice(storage.NewFakeClock()))
		inter, err := chunk.NewInterFile(f, int64(len(data))+1, chunk.CRLFBoundary{})
		if err != nil {
			t.Fatal(err)
		}
		return chunk.NewWholeInput(inter)
	}
	pool := exec.NewLocal(2)
	defer pool.Close()
	omp, err := OpenMPSort(mk(), pool)
	if err != nil {
		t.Fatal(err)
	}
	s := Sort{}
	mr, err := core.Run[string, uint64](s, mk(), s.NewContainer(),
		core.Options{Workers: 2, Boundary: chunk.CRLFBoundary{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(omp.Pairs) != len(mr.Pairs) {
		t.Fatalf("sizes differ: omp=%d mr=%d", len(omp.Pairs), len(mr.Pairs))
	}
	for i := range omp.Pairs {
		if omp.Pairs[i].Key != mr.Pairs[i].Key {
			t.Fatalf("outputs diverge at %d: %q vs %q", i, omp.Pairs[i].Key, mr.Pairs[i].Key)
		}
	}
}

func TestAppsAgainstBothContainers(t *testing.T) {
	// Sort through the hash container (the wrong-but-valid choice of
	// §V-B) must still produce correct sorted output.
	const records = 500
	data := make([]byte, records*workload.TeraRecordSize)
	workload.TeraGen{Seed: 9}.Fill()(0, data)
	f := storage.BytesFile("in", data, storage.NewNullDevice(storage.NewFakeClock()))
	inter, err := chunk.NewInterFile(f, int64(len(data))+1, chunk.CRLFBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	s := Sort{}
	res, err := core.Run[string, uint64](s, chunk.NewWholeInput(inter), s.NewHashContainer(16),
		core.Options{Workers: 2, Boundary: chunk.CRLFBoundary{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != records {
		t.Fatalf("hash-container sort produced %d records", len(res.Pairs))
	}
	less := kv.Less[string](func(a, b string) bool { return a < b })
	if !kv.IsSortedPairs(res.Pairs, less) {
		t.Error("hash-container sort output unsorted")
	}
}

func TestWordCountEndToEndSmall(t *testing.T) {
	text := "to be or not to be\n"
	wc := WordCount{}
	f := storage.BytesFile("in", []byte(text), storage.NewNullDevice(storage.NewFakeClock()))
	inter, err := chunk.NewInterFile(f, 1024, chunk.NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run[string, int64](wc, chunk.NewWholeInput(inter), wc.NewContainer(8),
		core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	joined := ""
	for _, p := range res.Pairs {
		joined += p.Key + " "
	}
	for _, w := range []string{"be", "not", "or", "to"} {
		if !strings.Contains(joined, w) {
			t.Errorf("missing word %q in %q", w, joined)
		}
	}
}

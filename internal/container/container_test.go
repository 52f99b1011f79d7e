package container

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"supmr/internal/kv"
)

func sumInt64(a, b int64) int64 { return a + b }

// reduceSum is a reduce function summing values.
func reduceSum(_ string, vs []int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}

// collect drains every partition of a container into a map.
func collect[K comparable, V any](c Container[K, V], reduce func(K, []V) V) map[K]V {
	out := make(map[K]V)
	for p := 0; p < c.Partitions(); p++ {
		for _, pr := range c.Reduce(p, reduce, nil) {
			out[pr.Key] = pr.Val
		}
	}
	return out
}

func TestHashCombinerCounts(t *testing.T) {
	h := NewHash[string, int64](8, StringHasher, sumInt64)
	l := h.NewLocal()
	for i := 0; i < 10; i++ {
		l.Emit("a", 1)
	}
	l.Emit("b", 5)
	l.Flush()
	got := collect[string, int64](h, reduceSum)
	if got["a"] != 10 || got["b"] != 5 {
		t.Errorf("counts = %v", got)
	}
	if h.Len() != 2 {
		t.Errorf("Len = %d, want 2", h.Len())
	}
}

func TestHashNoCombinerRetainsValues(t *testing.T) {
	h := NewHash[string, int64](4, StringHasher, nil)
	l := h.NewLocal()
	l.Emit("k", 1)
	l.Emit("k", 2)
	l.Emit("k", 3)
	l.Flush()
	var gotVals []int64
	for p := 0; p < h.Partitions(); p++ {
		h.Reduce(p, func(_ string, vs []int64) int64 {
			gotVals = append(gotVals, vs...)
			return int64(len(vs))
		}, nil)
	}
	if len(gotVals) != 3 {
		t.Errorf("retained %d values, want 3: %v", len(gotVals), gotVals)
	}
}

func TestHashConcurrentLocals(t *testing.T) {
	h := NewHash[string, int64](16, StringHasher, sumInt64)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := h.NewLocal()
			for i := 0; i < perWorker; i++ {
				l.Emit(fmt.Sprintf("key-%d", i%50), 1)
			}
			l.Flush()
		}(w)
	}
	wg.Wait()
	got := collect[string, int64](h, reduceSum)
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

func TestHashReset(t *testing.T) {
	h := NewHash[string, int64](4, StringHasher, sumInt64)
	l := h.NewLocal()
	l.Emit("x", 1)
	l.Flush()
	h.Reset()
	if h.Len() != 0 {
		t.Errorf("Len after Reset = %d", h.Len())
	}
}

func TestHashShardRounding(t *testing.T) {
	h := NewHash[string, int64](5, StringHasher, sumInt64)
	if h.Partitions() != 8 {
		t.Errorf("5 shards should round to 8, got %d", h.Partitions())
	}
	if p := NewHash[string, int64](0, StringHasher, sumInt64).Partitions(); p != 1 {
		t.Errorf("0 shards should become 1, got %d", p)
	}
}

func TestHashPartitionBounds(t *testing.T) {
	h := NewHash[string, int64](4, StringHasher, sumInt64)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range partition should panic")
		}
	}()
	h.Reduce(99, reduceSum, nil)
}

// Property: for any multiset of (key, value) emissions spread across
// locals, the hash container's reduced counts equal a reference map.
func TestHashMatchesReference(t *testing.T) {
	f := func(keys []uint8) bool {
		h := NewHash[string, int64](8, StringHasher, sumInt64)
		ref := make(map[string]int64)
		l := h.NewLocal()
		for i, k := range keys {
			key := fmt.Sprintf("k%d", k%32)
			ref[key]++
			l.Emit(key, 1)
			if i%7 == 0 { // rotate locals mid-stream
				l.Flush()
				l = h.NewLocal()
			}
		}
		l.Flush()
		got := collect[string, int64](h, reduceSum)
		if len(got) != len(ref) {
			return false
		}
		for k, v := range ref {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestArrayCounts(t *testing.T) {
	a := NewArray[int64](10, 4, sumInt64)
	l := a.NewLocal()
	l.Emit(0, 3)
	l.Emit(9, 1)
	l.Emit(0, 2)
	l.Flush()
	var got []kv.Pair[int, int64]
	for p := 0; p < a.Partitions(); p++ {
		got = a.Reduce(p, func(_ int, vs []int64) int64 { return vs[0] }, got)
	}
	if len(got) != 2 {
		t.Fatalf("occupied cells = %d, want 2", len(got))
	}
	if got[0].Key != 0 || got[0].Val != 5 {
		t.Errorf("cell 0 = %+v, want {0 5}", got[0])
	}
	if got[1].Key != 9 || got[1].Val != 1 {
		t.Errorf("cell 9 = %+v, want {9 1}", got[1])
	}
	if a.Len() != 2 {
		t.Errorf("Len = %d", a.Len())
	}
}

func TestArrayOrderedWithinStripes(t *testing.T) {
	a := NewArray[int64](100, 3, sumInt64)
	l := a.NewLocal()
	for k := 99; k >= 0; k-- {
		l.Emit(k, 1)
	}
	l.Flush()
	var keys []int
	for p := 0; p < a.Partitions(); p++ {
		for _, pr := range a.Reduce(p, func(_ int, vs []int64) int64 { return vs[0] }, nil) {
			keys = append(keys, pr.Key)
		}
	}
	if !sort.IntsAreSorted(keys) {
		t.Error("array reduce output not key-ordered across stripes")
	}
	if len(keys) != 100 {
		t.Errorf("cells = %d, want 100", len(keys))
	}
}

func TestArrayConcurrent(t *testing.T) {
	a := NewArray[int64](256, 8, sumInt64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := a.NewLocal()
			for i := 0; i < 256; i++ {
				l.Emit(i, 1)
			}
			l.Flush()
		}()
	}
	wg.Wait()
	var total int64
	for p := 0; p < a.Partitions(); p++ {
		for _, pr := range a.Reduce(p, func(_ int, vs []int64) int64 { return vs[0] }, nil) {
			total += pr.Val
		}
	}
	if total != 8*256 {
		t.Errorf("total = %d, want %d", total, 8*256)
	}
}

func TestArrayKeyOutOfRangePanics(t *testing.T) {
	a := NewArray[int64](4, 1, sumInt64)
	l := a.NewLocal()
	defer func() {
		if recover() == nil {
			t.Error("out-of-range key should panic")
		}
	}()
	l.Emit(4, 1)
}

func TestKeyRangeRoundTrip(t *testing.T) {
	c := NewKeyRange[string, uint64](4)
	const n = 100
	l := c.NewLocal()
	for i := 0; i < n; i++ {
		l.Emit(fmt.Sprintf("key%03d", i), uint64(i))
	}
	l.Flush()
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	if c.Partitions() != 4 {
		t.Fatalf("Partitions = %d, want 4", c.Partitions())
	}
	seen := make(map[string]uint64)
	var perPart []int
	for p := 0; p < c.Partitions(); p++ {
		out := c.Reduce(p, func(_ string, vs []uint64) uint64 { return vs[0] }, nil)
		perPart = append(perPart, len(out))
		for _, pr := range out {
			seen[pr.Key] = pr.Val
		}
	}
	if len(seen) != n {
		t.Errorf("round-tripped %d keys, want %d", len(seen), n)
	}
	// Equal segments of the logical array.
	for p, got := range perPart {
		if got != n/4 {
			t.Errorf("partition %d holds %d pairs, want %d", p, got, n/4)
		}
	}
}

func TestKeyRangeFixedPartitionsAcrossWaves(t *testing.T) {
	c := NewKeyRange[string, uint64](8)
	// Simulate 20 map waves of 4 locals each: partition count must stay 8.
	for wave := 0; wave < 20; wave++ {
		for w := 0; w < 4; w++ {
			l := c.NewLocal()
			for i := 0; i < 10; i++ {
				l.Emit(fmt.Sprintf("w%dt%di%d", wave, w, i), 1)
			}
			l.Flush()
		}
	}
	if c.Partitions() != 8 {
		t.Errorf("partitions = %d after 80 flushes, want 8", c.Partitions())
	}
	if c.Len() != 20*4*10 {
		t.Errorf("Len = %d, want %d", c.Len(), 20*4*10)
	}
	total := 0
	for p := 0; p < c.Partitions(); p++ {
		total += len(c.Reduce(p, func(_ string, vs []uint64) uint64 { return vs[0] }, nil))
	}
	if total != 800 {
		t.Errorf("reduced %d pairs, want 800", total)
	}
}

func TestKeyRangeFewerPairsThanPartitions(t *testing.T) {
	c := NewKeyRange[string, uint64](64)
	l := c.NewLocal()
	l.Emit("only", 1)
	l.Flush()
	if c.Partitions() != 1 {
		t.Errorf("partitions = %d for 1 pair, want 1", c.Partitions())
	}
	out := c.Reduce(0, func(_ string, vs []uint64) uint64 { return vs[0] }, nil)
	if len(out) != 1 || out[0].Key != "only" {
		t.Errorf("Reduce(0) = %v", out)
	}
}

func TestKeyRangeEmpty(t *testing.T) {
	c := NewKeyRange[string, uint64](4)
	if c.Partitions() != 0 || c.Len() != 0 {
		t.Error("empty container should report 0 partitions and length")
	}
	l := c.NewLocal()
	l.Flush() // empty flush is a no-op
	if c.Partitions() != 0 {
		t.Error("empty flush should not create a partition")
	}
}

func TestKeyRangeReset(t *testing.T) {
	c := NewKeyRange[string, uint64](4)
	l := c.NewLocal()
	l.Emit("x", 1)
	l.Flush()
	c.Reset()
	if c.Len() != 0 || c.Partitions() != 0 {
		t.Error("Reset did not clear the container")
	}
}

func TestKeyRangePartitionBounds(t *testing.T) {
	c := NewKeyRange[string, uint64](2)
	l := c.NewLocal()
	l.Emit("x", 1)
	l.Flush()
	defer func() {
		if recover() == nil {
			t.Error("out-of-range partition should panic")
		}
	}()
	c.Reduce(5, func(_ string, vs []uint64) uint64 { return vs[0] }, nil)
}

// Property: the key-range container conserves pairs across arbitrary
// flush patterns and partition counts.
func TestKeyRangeConservesPairs(t *testing.T) {
	f := func(sizes []uint8, partsRaw uint8) bool {
		parts := int(partsRaw%16) + 1
		c := NewKeyRange[int, int](parts)
		want := 0
		for wi, sz := range sizes {
			l := c.NewLocal()
			for i := 0; i < int(sz%40); i++ {
				l.Emit(wi*1000+i, i)
				want++
			}
			l.Flush()
		}
		got := 0
		for p := 0; p < c.Partitions(); p++ {
			got += len(c.Reduce(p, func(_ int, vs []int) int { return vs[0] }, nil))
		}
		return got == want && c.Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestHashers(t *testing.T) {
	if StringHasher("abc") != StringHasher("abc") {
		t.Error("StringHasher not deterministic within process")
	}
	if StringHasher("abc") == StringHasher("abd") {
		t.Error("StringHasher collision on near keys (unlikely)")
	}
	if Uint64Hasher(1) == Uint64Hasher(2) {
		t.Error("Uint64Hasher collision")
	}
	if IntHasher(-1) == IntHasher(1) {
		t.Error("IntHasher collision")
	}
}

package spill

// Tests for the block-streamed read-back — the run reader's in-place
// refill, the one run decoder with its record-count check, the
// decode-ahead merge — and for the worker-grouped drain.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"supmr/internal/container"
	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/sortalgo"
	"supmr/internal/storage"
)

// writeRun spills pairs as one run of sp's store.
func writeRun[K comparable, V any](t testing.TB, sp *Spiller[K, V], pool exec.Executor, pairs []kv.Pair[K, V]) {
	t.Helper()
	sp.SpillAsync(pairs, pool)
	if err := sp.Join(); err != nil {
		t.Fatal(err)
	}
}

// drainSource reads src to its end through NextBlock with dst-sized
// requests.
func drainSource[K comparable, V any](src sortalgo.Source[K, V], dst int) ([]kv.Pair[K, V], error) {
	var out []kv.Pair[K, V]
	buf := make([]kv.Pair[K, V], dst)
	for {
		n, err := src.NextBlock(buf)
		if err != nil {
			return out, err
		}
		if n == 0 {
			return out, nil
		}
		out = append(out, buf[:n]...)
	}
}

func wcPairs(n, stride, offset int) []kv.Pair[string, int64] {
	ps := make([]kv.Pair[string, int64], n)
	for i := range ps {
		ps[i] = kv.Pair[string, int64]{Key: fmt.Sprintf("w%07d", i*stride+offset), Val: int64(i + 1)}
	}
	return ps
}

// TestRunRecordCountChecked: a run whose payload ends cleanly on a
// record boundary short of, or past, the record count in its run table
// used to merge silently. The decoder reports it with a typed error
// naming the run — read inline or a block ahead.
func TestRunRecordCountChecked(t *testing.T) {
	pool := exec.NewLocal(2)
	defer pool.Close()
	const n = 700
	for _, tc := range []struct {
		name   string
		tamper func(r *Run)
		got    int64
	}{
		{"short", func(r *Run) {
			// Hand-truncate the backing on the boundary after 400 records
			// (every record of wcPairs is 1+8+1+8 bytes) and the table's
			// size with it, leaving its record count alone.
			r.size = 400 * 18
			m := r.data.(*memRun)
			m.buf = m.buf[:r.size]
		}, 400},
		{"past", func(r *Run) { r.records = n - 3 }, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, _ := memStore(t, 256)
			sp, err := NewSpiller[string, int64](s, 1, wcApp{})
			if err != nil {
				t.Fatal(err)
			}
			writeRun(t, sp, pool, wcPairs(n, 2, 0)) // run 0, intact
			writeRun(t, sp, pool, wcPairs(n, 2, 1)) // run 1, tampered with
			want := sp.runs[1].records
			tc.tamper(sp.runs[1])
			check := func(how string, err error) {
				t.Helper()
				var ce *RecordCountError
				if !errors.As(err, &ce) {
					t.Fatalf("%s: err = %v, want a *RecordCountError", how, err)
				}
				if wantCount := sp.runs[1].records; ce.Run != 1 || ce.Got != tc.got || ce.Want != wantCount {
					t.Fatalf("%s: %+v, want run 1 got %d want %d (table said %d before)", how, *ce, tc.got, wantCount, want)
				}
			}
			_, err = sortalgo.MergeSources(sp.Sources(), wcApp{}.Less, wcApp{}.Reduce, nil)
			check("inline", err)
			_, err = sp.Merge(nil, pool, "merge")
			check("ahead", err)
		})
	}
}

// TestRunReaderRefillsInPlace gates the allocation fixes on the run
// file path: reading a run of hundreds of blocks costs a constant
// number of allocations — not one per block refill, nor per record.
func TestRunReaderRefillsInPlace(t *testing.T) {
	pool := exec.NewLocal(1)
	defer pool.Close()
	s, _, _ := memStore(t, 512)
	sp, err := NewSpiller[int64, int64](s, 1, intApp{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 9000
	ps := make([]kv.Pair[int64, int64], n)
	for i := range ps {
		ps[i] = kv.Pair[int64, int64]{Key: int64(i), Val: int64(i)}
	}
	writeRun(t, sp, pool, ps)
	run := sp.runs[0]
	if blocks := run.size / 512; blocks < 300 {
		t.Fatalf("run spans %d blocks, want hundreds", blocks)
	}
	raw := testing.AllocsPerRun(5, func() {
		r := s.OpenRun(run)
		for {
			if _, _, err := r.ReadRecord(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	})
	if raw > 4 {
		t.Errorf("reading a %d-block run record by record: %.0f allocations, want O(1)", run.size/512, raw)
	}
	buf := make([]kv.Pair[int64, int64], 256)
	decoded := testing.AllocsPerRun(5, func() {
		src := sp.Sources()[0]
		total := 0
		for {
			got, err := src.NextBlock(buf)
			if err != nil {
				t.Fatal(err)
			}
			if total += got; got == 0 {
				break
			}
		}
		if total != n {
			t.Fatalf("decoded %d records, want %d", total, n)
		}
	})
	if decoded > 12 {
		t.Errorf("decoding a %d-block run of %d records: %.0f allocations, want O(1)", run.size/512, n, decoded)
	}
}

// TestRunWriterGiantRecord writes records many blocks long between
// small ones: the cursor flush hands every block to the backing once,
// in order.
func TestRunWriterGiantRecord(t *testing.T) {
	s, d, _ := memStore(t, 64)
	w, err := s.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	recs := [][2][]byte{
		{[]byte("a"), []byte("1")},
		{[]byte("b"), bytes.Repeat([]byte("x"), 1000)},
		{bytes.Repeat([]byte("k"), 300), nil},
		{[]byte("z"), []byte("26")},
	}
	for _, r := range recs {
		if err := w.WriteRecord(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().BytesWritten; got != run.Size() {
		t.Errorf("device BytesWritten = %d, want run size %d", got, run.Size())
	}
	r := s.OpenRun(run)
	for i, want := range recs {
		key, val, err := r.ReadRecord()
		if err != nil || !bytes.Equal(key, want[0]) || !bytes.Equal(val, want[1]) {
			t.Fatalf("record %d = (%d bytes, %d bytes), %v", i, len(key), len(val), err)
		}
	}
	if _, _, err := r.ReadRecord(); err != io.EOF {
		t.Fatalf("after last record err = %v, want io.EOF", err)
	}
}

type intApp struct{}

func (intApp) Map([]byte, kv.Emitter[int64, int64]) {}
func (intApp) Reduce(_ int64, vs []int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}
func (intApp) Less(a, b int64) bool { return a < b }

// orderedDevice records the offset of every read reservation in the
// order the device saw them, and fails the failAt-th (1-based; 0:
// never).
type orderedDevice struct {
	storage.Device
	mu     sync.Mutex
	offs   []int64
	failAt int
}

var errDeviceBroke = errors.New("device broke")

func (d *orderedDevice) TryReserve(off, n int64) (time.Duration, error) {
	d.mu.Lock()
	d.offs = append(d.offs, off)
	fail := len(d.offs) == d.failAt
	d.mu.Unlock()
	if fail {
		return 0, errDeviceBroke
	}
	return d.Device.Reserve(off, n), nil
}

// countingBacking counts the backing reads in flight and done.
type countingBacking struct {
	mu             sync.Mutex
	active, served int
}

type countingRun struct {
	RunData
	b *countingBacking
}

func (b *countingBacking) NewRun(id int) (RunData, error) {
	return &countingRun{RunData: &memRun{}, b: b}, nil
}

func (r *countingRun) ReadAt(p []byte, off int64) (int, error) {
	r.b.mu.Lock()
	r.b.active++
	r.b.mu.Unlock()
	n, err := r.RunData.ReadAt(p, off)
	r.b.mu.Lock()
	r.b.active--
	r.b.served++
	r.b.mu.Unlock()
	return n, err
}

// aheadFixture spills three overlapping multi-block word-count runs
// (each several decode blocks long) into a store over dev.
func aheadFixture(t *testing.T, dev *orderedDevice, backing Backing) (*Spiller[string, int64], *exec.Pool, []kv.Pair[string, int64]) {
	t.Helper()
	s, err := NewStore(StoreConfig{Device: dev, BlockSize: 4 << 10, Backing: backing})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	sp, err := NewSpiller[string, int64](s, 1, wcApp{})
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPool(nil, exec.Config{Workers: 4, IOWorkers: 2})
	t.Cleanup(pool.Close)
	writeRun(t, sp, pool, wcPairs(3*decodeBlock, 2, 0))
	writeRun(t, sp, pool, wcPairs(2*decodeBlock+17, 3, 0))
	writeRun(t, sp, pool, wcPairs(decodeBlock/2, 5, 1))
	return sp, pool, wcPairs(900, 7, 3)
}

// TestMergeAheadMatchesInline: reading a block ahead on the IO lanes
// changes nothing but where the decode runs — same output as the inline
// sources through MergeSources, every spilled byte read exactly once,
// and the device sees the block reads in the same order run after run.
func TestMergeAheadMatchesInline(t *testing.T) {
	clock := storage.NewFakeClock()
	dev := &orderedDevice{Device: storage.NewNullDevice(clock)}
	sp, pool, residue := aheadFixture(t, dev, nil)
	inline := append(sp.Sources(), sortalgo.NewSliceSource(residue))
	want, err := sortalgo.MergeSources(inline, wcApp{}.Less, wcApp{}.Reduce, nil)
	if err != nil {
		t.Fatal(err)
	}
	var orders [][]int64
	for i := 0; i < 4; i++ {
		dev.mu.Lock()
		dev.offs = nil
		dev.mu.Unlock()
		got, err := sp.Merge(residue, pool, "merge")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ahead merge gave %d pairs, inline %d, or they differ", len(got), len(want))
		}
		orders = append(orders, append([]int64(nil), dev.offs...))
	}
	var blocks int
	for _, r := range sp.runs {
		blocks += int((r.size + 4<<10 - 1) / (4 << 10))
	}
	for i, o := range orders {
		if len(o) != blocks {
			t.Fatalf("pass %d reserved %d block reads, the runs hold %d blocks: a block was re-read or skipped", i, len(o), blocks)
		}
		if !reflect.DeepEqual(o, orders[0]) {
			t.Fatalf("pass %d issued its reads in a different order than pass 0", i)
		}
	}
	if tasks := pool.Record().TaskStats(exec.Mark{})["merge"]; tasks.Tasks <= 4 {
		t.Errorf("merge label saw %d tasks over 4 passes: the reads did not run on the lanes", tasks.Tasks)
	}
}

// TestMergeJoinsReadsOnFailure fails a block reservation part-way:
// the error surfaces, and by the time Merge returns no lane is still
// reading — the reads it had started are finished, none starts later.
func TestMergeJoinsReadsOnFailure(t *testing.T) {
	for _, failAt := range []int{1, 2, 4, 9} {
		clock := storage.NewFakeClock()
		dev := &orderedDevice{Device: storage.NewNullDevice(clock)}
		backing := &countingBacking{}
		sp, pool, residue := aheadFixture(t, dev, backing)
		dev.mu.Lock()
		dev.offs, dev.failAt = nil, failAt
		dev.mu.Unlock()
		out, err := sp.Merge(residue, pool, "merge")
		if !errors.Is(err, errDeviceBroke) || out != nil {
			t.Fatalf("failAt=%d: %d pairs, err = %v", failAt, len(out), err)
		}
		backing.mu.Lock()
		active, served := backing.active, backing.served
		backing.mu.Unlock()
		if active != 0 {
			t.Fatalf("failAt=%d: %d backing reads still in flight after Merge returned", failAt, active)
		}
		if want := failAt - 1; served != want {
			t.Fatalf("failAt=%d: %d backing reads served, want one per read issued before the failure (%d)", failAt, served, want)
		}
	}
}

// drainRef is the drain as it was before the partitions were grouped:
// reduce every partition on its own, then order the lot by key. Keys
// are unique across partitions, so that is the one right answer.
func drainRef[K comparable, V any](c container.Container[K, V], less kv.Less[K], reduce func(K, []V) V) []kv.Pair[K, V] {
	var all []kv.Pair[K, V]
	for p := 0; p < c.Partitions(); p++ {
		all = c.Reduce(p, reduce, all)
	}
	sort.Slice(all, func(i, j int) bool { return less(all[i].Key, all[j].Key) })
	return all
}

func checkDrain[K comparable, V any](t *testing.T, name string, build func() container.Container[K, V],
	less kv.Less[K], reduce func(K, []V) V, fixed *kv.FixedKeyCodec[K]) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, codec := range []*kv.FixedKeyCodec[K]{nil, fixed} {
			t.Run(fmt.Sprintf("%s/workers%d/radix=%v", name, workers, codec != nil), func(t *testing.T) {
				pool := exec.NewLocal(workers)
				defer pool.Close()
				c := build()
				want := drainRef(c, less, reduce)
				if len(want) == 0 {
					t.Fatal("fixture is empty")
				}
				groups := min(workers, c.Partitions())
				got, radixed, err := DrainContainer(c, less, reduce, codec, pool, "drain")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("drained %d pairs, per-partition reference %d, or they differ", len(got), len(want))
				}
				if c.Len() != 0 {
					t.Errorf("container holds %d keys after the drain", c.Len())
				}
				if codec != nil && (radixed < 1 || radixed > groups) {
					t.Errorf("%d radix-sorted groups, want 1..%d (one per worker-sized group)", radixed, groups)
				}
				if codec == nil && radixed != 0 {
					t.Errorf("%d radix-sorted groups without a codec", radixed)
				}
				stats := pool.Record().TaskStats(exec.Mark{})
				if stats["merge"].Tasks != 0 || stats["drain"].Tasks == 0 {
					t.Errorf("drain tasks billed to %v, want all under the caller's label", stats)
				}
			})
		}
	}
}

// TestDrainContainerGroupsMatchPerPartitionDrain runs the grouped drain
// over every container kind, at worker counts that do and do not divide
// the partition count.
func TestDrainContainerGroupsMatchPerPartitionDrain(t *testing.T) {
	sum := func(a, b int64) int64 { return a + b }
	sumAll := func(_ string, vs []int64) int64 {
		var s int64
		for _, v := range vs {
			s += v
		}
		return s
	}
	words := func(c container.Container[string, int64]) container.Container[string, int64] {
		rng := rand.New(rand.NewSource(4))
		for w := 0; w < 3; w++ {
			l := c.NewLocal()
			for i := 0; i < 4000; i++ {
				l.Emit(fmt.Sprintf("%06d", rng.Intn(1500)), 1) // 6-byte keys: radix-encodable
			}
			l.Flush()
		}
		return c
	}
	strFixed := kv.StringFixedKey(6)
	strLess := func(a, b string) bool { return a < b }
	checkDrain(t, "flat8", func() container.Container[string, int64] {
		return words(container.NewFlatHash[int64](8, sum))
	}, strLess, sumAll, &strFixed)
	checkDrain(t, "hash-combine5", func() container.Container[string, int64] {
		return words(container.NewHash[string, int64](5, container.StringHasher, sum))
	}, strLess, sumAll, &strFixed)
	checkDrain(t, "hash-list13", func() container.Container[string, int64] {
		return words(container.NewHash[string, int64](13, container.StringHasher, nil))
	}, strLess, sumAll, &strFixed)

	intFixed := kv.IntFixedKey()
	checkDrain(t, "array7", func() container.Container[int, int64] {
		c := container.NewArray[int64](1000, 7, sum)
		rng := rand.New(rand.NewSource(6))
		l := c.NewLocal()
		for i := 0; i < 5000; i++ {
			l.Emit(rng.Intn(1000), 1)
		}
		l.Flush()
		return c
	}, func(a, b int) bool { return a < b }, func(_ int, vs []int64) int64 { return vs[0] }, &intFixed)

	checkDrain(t, "keyrange7", func() container.Container[string, uint64] {
		c := container.NewKeyRange[string, uint64](7)
		for w := 0; w < 3; w++ {
			l := c.NewLocal()
			for i := 0; i < 1500; i++ {
				l.Emit(fmt.Sprintf("%06d", (i*3+w)*7919%100000), uint64(i)) // unique keys
			}
			l.Flush()
		}
		return c
	}, strLess, func(_ string, vs []uint64) uint64 { return vs[0] }, &strFixed)
}

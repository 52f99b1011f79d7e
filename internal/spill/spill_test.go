package spill

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"supmr/internal/container"
	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/storage"
)

func memStore(t *testing.T, blockSize int64) (*Store, *storage.Disk, *storage.FakeClock) {
	t.Helper()
	clock := storage.NewFakeClock()
	d, err := storage.NewDisk(storage.DiskConfig{Name: "spill", Bandwidth: 1 << 30}, clock)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(StoreConfig{Device: d, BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, d, clock
}

func TestCodecRoundTrips(t *testing.T) {
	cs, err := CodecFor[string]()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"", "a", "hello world", strings.Repeat("x", 5000)} {
		got, err := cs.Decode(cs.Append(nil, s))
		if err != nil || got != s {
			t.Fatalf("string round trip %q -> %q, %v", s, got, err)
		}
	}
	ci, err := CodecFor[int64]()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40)} {
		got, err := ci.Decode(ci.Append(nil, v))
		if err != nil || got != v {
			t.Fatalf("int64 round trip %d -> %d, %v", v, got, err)
		}
	}
	cu, err := CodecFor[uint64]()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := cu.Decode(cu.Append(nil, ^uint64(0))); err != nil || got != ^uint64(0) {
		t.Fatalf("uint64 round trip -> %d, %v", got, err)
	}
	cf, err := CodecFor[float64]()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := cf.Decode(cf.Append(nil, 3.25)); err != nil || got != 3.25 {
		t.Fatalf("float64 round trip -> %v, %v", got, err)
	}
	if _, err := ci.Decode([]byte{1, 2, 3}); err == nil {
		t.Error("short fixed-width field accepted")
	}
	type weird struct{ X int }
	if _, err := CodecFor[weird](); err == nil {
		t.Error("codec resolved for unsupported struct type")
	}
}

func TestRunWriteReadRoundTrip(t *testing.T) {
	s, d, _ := memStore(t, 64) // tiny blocks force records across block boundaries
	w, err := s.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%05d", i)
		val := strings.Repeat("v", i%90)
		if err := w.WriteRecord([]byte(key), []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if run.Records() != n {
		t.Fatalf("run records = %d, want %d", run.Records(), n)
	}
	if got := d.Stats().BytesWritten; got != run.Size() {
		t.Errorf("device BytesWritten = %d, want run size %d", got, run.Size())
	}

	r := s.OpenRun(run)
	for i := 0; i < n; i++ {
		key, val, err := r.ReadRecord()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if want := fmt.Sprintf("key-%05d", i); string(key) != want {
			t.Fatalf("record %d key = %q, want %q", i, key, want)
		}
		if want := i % 90; len(val) != want {
			t.Fatalf("record %d val len = %d, want %d", i, len(val), want)
		}
	}
	if _, _, err := r.ReadRecord(); err != io.EOF {
		t.Fatalf("after last record err = %v, want io.EOF", err)
	}
	if got := d.Stats().BytesRead; got != run.Size() {
		t.Errorf("device BytesRead = %d, want run size %d", got, run.Size())
	}

	st := s.Stats()
	if st.Runs != 1 || st.Bytes != run.Size() || st.Records != n {
		t.Errorf("store stats = %+v", st)
	}
	series := s.Series()
	if len(series) != 1 || series[0].V != run.Size() {
		t.Errorf("series = %v", series)
	}
}

func TestRunEmpty(t *testing.T) {
	s, _, _ := memStore(t, 0)
	w, err := s.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	run, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if run.Size() != 0 || run.Records() != 0 {
		t.Fatalf("empty run = %+v", run)
	}
	if _, _, err := s.OpenRun(run).ReadRecord(); err != io.EOF {
		t.Fatalf("empty run read err = %v, want io.EOF", err)
	}
}

func TestFileBackingRoundTripAndCleanup(t *testing.T) {
	clock := storage.NewFakeClock()
	dev := storage.NewNullDevice(clock)
	dir := t.TempDir()
	s, err := NewStore(StoreConfig{Device: dev, BlockSize: 32, Backing: FileBacking{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.WriteRecord([]byte(fmt.Sprintf("k%03d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp dir holds %d files, want 1", len(ents))
	}
	r := s.OpenRun(run)
	key, _, err := r.ReadRecord()
	if err != nil || string(key) != "k000" {
		t.Fatalf("first record = %q, %v", key, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if ents, _ = os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("run files not removed on Close: %d left", len(ents))
	}
}

// wcApp is a word-count-shaped app: string keys, summed int64 counts.
type wcApp struct{}

func (wcApp) Map(split []byte, emit kv.Emitter[string, int64]) {
	for _, w := range strings.Fields(string(split)) {
		emit.Emit(w, 1)
	}
}
func (wcApp) Reduce(_ string, vs []int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}
func (wcApp) Less(a, b string) bool    { return a < b }
func (wcApp) Combine(a, b int64) int64 { return a + b }

func fillHash(t *testing.T, c container.Container[string, int64], text string) {
	t.Helper()
	l := c.NewLocal()
	wcApp{}.Map([]byte(text), l)
	l.Flush()
}

func TestSpillerDrainSortsAndResets(t *testing.T) {
	s, _, _ := memStore(t, 0)
	sp, err := NewSpiller[string, int64](s, 100, wcApp{})
	if err != nil {
		t.Fatal(err)
	}
	c := container.NewHash[string, int64](4, container.StringHasher, wcApp{}.Combine)
	fillHash(t, c, "b a c a b a")
	if !sp.Over(c) && c.SizeBytes() > 100 {
		t.Error("Over() false with container above budget")
	}
	pool := exec.NewLocal(4)
	defer pool.Close()
	pairs, _, err := DrainContainer(c, wcApp{}.Less, wcApp{}.Reduce, nil, pool, "spill")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || c.SizeBytes() != 0 {
		t.Errorf("container not drained: len=%d size=%d", c.Len(), c.SizeBytes())
	}
	want := []kv.Pair[string, int64]{{Key: "a", Val: 3}, {Key: "b", Val: 2}, {Key: "c", Val: 1}}
	if fmt.Sprint(pairs) != fmt.Sprint(want) {
		t.Errorf("drained = %v, want %v", pairs, want)
	}
}

func TestSpillerAsyncWriteAndStreamBack(t *testing.T) {
	s, _, _ := memStore(t, 64)
	sp, err := NewSpiller[string, int64](s, 1, wcApp{})
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewLocal(2)
	defer pool.Close()

	c := container.NewHash[string, int64](4, container.StringHasher, wcApp{}.Combine)
	// Two spill cycles with overlapping keys: "a" and "b" appear in both
	// runs, so the external merge must re-reduce them across runs.
	fillHash(t, c, "a a b d")
	p1, _, err := DrainContainer(c, wcApp{}.Less, wcApp{}.Reduce, nil, pool, "spill")
	if err != nil {
		t.Fatal(err)
	}
	sp.SpillAsync(p1, pool)
	fillHash(t, c, "a b e")
	if err := sp.Join(); err != nil {
		t.Fatal(err)
	}
	p2, _, err := DrainContainer(c, wcApp{}.Less, wcApp{}.Reduce, nil, pool, "spill")
	if err != nil {
		t.Fatal(err)
	}
	sp.SpillAsync(p2, pool)
	if err := sp.Join(); err != nil {
		t.Fatal(err)
	}

	if sp.RunCount() != 2 {
		t.Fatalf("RunCount = %d, want 2", sp.RunCount())
	}
	if sp.BytesSpilled() != s.Stats().Bytes {
		t.Errorf("BytesSpilled %d != store bytes %d", sp.BytesSpilled(), s.Stats().Bytes)
	}

	counts := map[string]int64{}
	for _, src := range sp.Sources() {
		for {
			p, ok, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			counts[p.Key] += p.Val
		}
	}
	want := map[string]int64{"a": 3, "b": 2, "d": 1, "e": 1}
	if fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Errorf("streamed counts = %v, want %v", counts, want)
	}
}

func TestSpillerRejectsBadConfig(t *testing.T) {
	s, _, _ := memStore(t, 0)
	if _, err := NewSpiller[string, int64](nil, 10, wcApp{}); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := NewSpiller[string, int64](s, 0, wcApp{}); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestStoreValidation(t *testing.T) {
	if _, err := NewStore(StoreConfig{}); err == nil {
		t.Error("store without device accepted")
	}
	clock := storage.NewFakeClock()
	if _, err := NewStore(StoreConfig{Device: storage.NewNullDevice(clock), BlockSize: -1}); err == nil {
		t.Error("negative block size accepted")
	}
}

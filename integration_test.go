package supmr

// Integration tests: cross-module scenarios through the public API —
// simulated RAID + chunking + both runtimes, HDFS ingest, adaptive and
// hybrid chunking, utilization tracing and the energy model.

import (
	"testing"
	"time"

	"supmr/internal/kv"
	"supmr/internal/workload"
)

func TestIntegrationRAIDWordCount(t *testing.T) {
	clock := NewClock()
	raid, err := NewTestbedRAID(clock, 1.0/8) // 48 MB/s aggregate
	if err != nil {
		t.Fatal(err)
	}
	const size = 2 << 20
	f, err := TextFile("corpus", size, 3, raid)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunFile[string, int64](WordCountJob(), f, WordCountContainer(32), Config{
		Runtime:    RuntimeSupMR,
		ChunkBytes: size / 8,
		Clock:      clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.BytesIngested != size {
		t.Errorf("ingested %d, want %d", rep.Stats.BytesIngested, size)
	}
	if rep.Stats.MapWaves < 7 {
		t.Errorf("map waves = %d", rep.Stats.MapWaves)
	}
	// Against the in-memory reference.
	ref, err := RunBytes[string, int64](WordCountJob(), genBytes(size, 3), WordCountContainer(32),
		Config{Runtime: RuntimeTraditional})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pairs) != len(ref.Pairs) {
		t.Fatalf("RAID run found %d words, reference %d", len(rep.Pairs), len(ref.Pairs))
	}
	for i := range ref.Pairs {
		if rep.Pairs[i] != ref.Pairs[i] {
			t.Fatalf("mismatch at %d: %v vs %v", i, rep.Pairs[i], ref.Pairs[i])
		}
	}
}

func genBytes(size int64, seed int64) []byte {
	buf := make([]byte, size)
	workload.TextGen{Seed: seed}.Fill()(0, buf)
	return buf
}

func TestIntegrationHDFSWordCount(t *testing.T) {
	clock := NewClock()
	cluster, err := NewHDFS(HDFSConfig{
		Nodes: 8, BlockSize: 256 << 10, DiskBW: 1 << 30,
		LinkBW: 64 << 20, Latency: 100 * time.Microsecond,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	hf, err := cluster.Create("in.txt", size, TextFill(5))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunFile[string, int64](WordCountJob(), hf, WordCountContainer(32), Config{
		Runtime: RuntimeSupMR, ChunkBytes: 256 << 10, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunBytes[string, int64](WordCountJob(), genBytes(size, 5), WordCountContainer(32),
		Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pairs) != len(ref.Pairs) {
		t.Fatalf("HDFS run found %d words, reference %d", len(rep.Pairs), len(ref.Pairs))
	}
	if cluster.Link().Stats().BytesRead < size {
		t.Error("ingest did not cross the shared link")
	}
}

func TestIntegrationAdaptiveChunks(t *testing.T) {
	clock := NewClock()
	dev, err := NewDisk("sim", 32<<20, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	const size = 4 << 20
	f, err := TextFile("corpus", size, 9, dev)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunFile[string, int64](WordCountJob(), f, WordCountContainer(32), Config{
		Runtime:        RuntimeSupMR,
		ChunkBytes:     128 << 10, // deliberately small start
		AdaptiveChunks: true,
		Clock:          clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.BytesIngested != size {
		t.Errorf("adaptive run ingested %d, want %d", rep.Stats.BytesIngested, size)
	}
	// Results still correct.
	ref, err := RunBytes[string, int64](WordCountJob(), genBytes(size, 9), WordCountContainer(32), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pairs) != len(ref.Pairs) {
		t.Fatalf("adaptive run found %d words, reference %d", len(rep.Pairs), len(ref.Pairs))
	}
}

func TestIntegrationHybridChunks(t *testing.T) {
	clock := NewClock()
	dev := NewFastDevice(clock)
	// Mixed small files.
	files, err := TextFiles("doc", 12, 64<<10, 1, dev)
	if err != nil {
		t.Fatal(err)
	}
	// Add one oversized file.
	big, err := TextFile("big", 1<<20, 99, dev)
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, big)

	rep, err := RunFiles[string, int64](WordCountJob(), files, WordCountContainer(32), Config{
		Runtime:    RuntimeSupMR,
		ChunkBytes: 256 << 10, // the hybrid byte cut
		Clock:      clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(12*(64<<10) + (1 << 20))
	if rep.Stats.BytesIngested != wantBytes {
		t.Errorf("hybrid ingested %d, want %d", rep.Stats.BytesIngested, wantBytes)
	}
	if rep.Stats.MapWaves < 6 {
		t.Errorf("hybrid map waves = %d, want several", rep.Stats.MapWaves)
	}
}

func TestIntegrationTraceAndEnergy(t *testing.T) {
	clock := NewClock()
	dev, err := NewDisk("sim", 16<<20, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TextFile("corpus", 2<<20, 4, dev)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunFile[string, int64](WordCountJob(), f, WordCountContainer(32), Config{
		Runtime:       RuntimeSupMR,
		ChunkBytes:    256 << 10,
		Clock:         clock,
		TraceContexts: 4,
		TraceBucket:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil || len(rep.Trace.Samples) == 0 {
		t.Fatal("no trace recorded")
	}
	if rep.Trace.MeanTotal() <= 0 {
		t.Error("trace shows zero activity")
	}
	e := Energy(rep.Trace, 4)
	if e.Joules <= 0 || e.AvgWatts <= 0 || e.PeakWatts < e.AvgWatts {
		t.Errorf("energy report = %+v", e)
	}
	// Energy must exceed the idle floor and respect the busy ceiling.
	pm := DefaultPowerModel()
	idleFloor := 4 * pm.IdleWatts
	busyCeil := 4 * pm.BusyWatts
	if e.AvgWatts < idleFloor || e.AvgWatts > busyCeil {
		t.Errorf("avg power %.1f W outside [%.1f, %.1f]", e.AvgWatts, idleFloor, busyCeil)
	}
}

func TestIntegrationGrepFacade(t *testing.T) {
	g := GrepJob("alpha", "omega")
	data := []byte("alpha one\nmiddle\nomega end\nalpha omega both\n")
	rep, err := RunBytes[string, int64](g, data, g.NewContainer(), Config{
		Runtime: RuntimeSupMR, ChunkBytes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int64)
	for _, p := range rep.Pairs {
		counts[p.Key] = p.Val
	}
	if counts["alpha"] != 2 || counts["omega"] != 2 {
		t.Errorf("grep counts = %v", counts)
	}
}

func TestIntegrationLinearRegressionFacade(t *testing.T) {
	lr := LinearRegressionJob()
	// y = 2x + 5 over byte-ranged points.
	var data []byte
	for i := 0; i < 3000; i++ {
		x := byte(i % 100)
		data = append(data, x, byte(2*int(x)+5))
	}
	rep, err := RunBytes[int, float64](lr, data, lr.NewContainer(), Config{
		Runtime:    RuntimeSupMR,
		ChunkBytes: 512,
		Boundary:   FixedRecords(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	slope, intercept, ok := lr.Fit(rep.Pairs)
	if !ok {
		t.Fatal("fit failed")
	}
	if slope < 1.95 || slope > 2.05 || intercept < 4 || intercept > 6 {
		t.Errorf("fit = (%.3f, %.2f), want (2, 5)", slope, intercept)
	}
}

func TestIntegrationOpenMPTraced(t *testing.T) {
	clock := NewClock()
	dev, err := NewDisk("sim", 32<<20, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TeraFile("t", 10_000, 2, dev)
	if err != nil {
		t.Fatal(err)
	}
	res, tr, err := OpenMPSortFileTraced(f, 2, 4, 20*time.Millisecond, clock)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 10_000 {
		t.Fatalf("sorted %d records", len(res.Pairs))
	}
	less := kv.Less[string](func(a, b string) bool { return a < b })
	if !kv.IsSortedPairs(res.Pairs, less) {
		t.Error("OpenMP output unsorted")
	}
	if tr == nil || len(tr.Samples) == 0 {
		t.Fatal("no trace")
	}
	// The profile is read (iowait) then parse (low user) then sort: the
	// trace must contain IO wait early.
	var sawIO bool
	for _, s := range tr.Samples[:len(tr.Samples)/2] {
		if s.IOWait > 0 {
			sawIO = true
			break
		}
	}
	if !sawIO {
		t.Error("OpenMP trace shows no ingest IO wait")
	}
}

func TestIntegrationIntraFileWordCount(t *testing.T) {
	clock := NewClock()
	dev, err := NewDisk("sim", 64<<20, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	files, err := TextFiles("part", 30, 32<<10, 7, dev)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunFiles[string, int64](WordCountJob(), files, WordCountContainer(32), Config{
		Runtime:       RuntimeSupMR,
		FilesPerChunk: 4,
		Clock:         clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 30 files / 4 per chunk -> 8 waves (7 full + 1 of 2), §III-A1.
	if rep.Stats.MapWaves != 8 {
		t.Errorf("map waves = %d, want 8", rep.Stats.MapWaves)
	}
	if rep.Stats.BytesIngested != 30*(32<<10) {
		t.Errorf("ingested %d bytes", rep.Stats.BytesIngested)
	}
}

func TestIntegrationMergeAlgorithmsAgreeOnFacade(t *testing.T) {
	data := make([]byte, 20_000*workload.TeraRecordSize)
	workload.TeraGen{Seed: 17}.Fill()(0, data)
	run := func(m MergeAlgo) []Pair[string, uint64] {
		rep, err := RunBytes[string, uint64](SortJob(), data, SortContainer(), Config{
			Boundary: CRLFRecords, Merge: &m, Splits: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Pairs
	}
	a := run(MergePairwise)
	b := run(MergePWay)
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("merge algorithms disagree at %d", i)
		}
	}
}

func TestIntegrationKMeansWithCache(t *testing.T) {
	clock := NewClock()
	disk, err := NewDisk("d", 32<<20, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewCachedDevice(disk, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// 2-D byte points from three blobs.
	var data []byte
	state := uint64(9)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	centers := [][2]int{{40, 40}, {210, 80}, {120, 200}}
	for i := 0; i < 600; i++ {
		c := centers[i%3]
		data = append(data, byte(c[0]+int(next()%9)-4), byte(c[1]+int(next()%9)-4))
	}
	ptsFile, err := NewByteFile("points", data, cached)
	if err != nil {
		t.Fatal(err)
	}

	km := KMeansJob(3, 2)
	km.Epsilon = 0.01
	res, err := RunKMeans(km, ptsFile, Config{Workers: 2, ChunkBytes: 256, Clock: clock}, 40)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range res.Sizes {
		total += n
	}
	if total != 600 {
		t.Errorf("cluster sizes sum to %d, want 600", total)
	}
	if res.Iterations < 1 || res.Waves < res.Iterations {
		t.Errorf("result = %+v", res)
	}
}

func TestIntegrationTraceMarkers(t *testing.T) {
	clock := NewClock()
	dev, err := NewDisk("sim", 32<<20, 0, clock)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TextFile("c", 512<<10, 2, dev)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunFile[string, int64](WordCountJob(), f, WordCountContainer(16), Config{
		Runtime: RuntimeSupMR, ChunkBytes: 128 << 10, Clock: clock,
		TraceContexts: 4, TraceBucket: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Markers) == 0 {
		t.Fatal("no markers recorded")
	}
	labels := make(map[string]bool)
	for _, m := range rep.Markers {
		labels[m.Label] = true
	}
	for _, want := range []string{"read+map:start", "read+map:end", "reduce:start", "merge:end"} {
		if !labels[want] {
			t.Errorf("missing marker %q (have %v)", want, labels)
		}
	}
	out := rep.Trace.AnnotatedASCII(8, rep.Markers)
	if len(out) == 0 {
		t.Error("annotated render empty")
	}
}

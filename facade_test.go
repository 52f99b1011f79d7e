package supmr

import (
	"errors"
	"io"
	"testing"

	"supmr/internal/chunk"
)

// Tests of the facade's configuration plumbing: stream construction,
// default selection, and option interactions.

func TestConfigBoundaryDefault(t *testing.T) {
	if _, ok := (Config{}).boundary().(chunk.NewlineBoundary); !ok {
		t.Error("default boundary should be newline")
	}
	if _, ok := (Config{Boundary: CRLFRecords}).boundary().(chunk.CRLFBoundary); !ok {
		t.Error("explicit boundary not honored")
	}
}

func TestRuntimeString(t *testing.T) {
	var zero Runtime
	if RuntimeTraditional.String() != "traditional" || RuntimeSupMR.String() != "supmr" || zero != RuntimeSupMR {
		t.Error("runtime names wrong, or the zero runtime is not the pipeline")
	}
}

func drainStream(t *testing.T, s Stream) []*Chunk {
	t.Helper()
	var out []*Chunk
	for {
		c, err := s.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
}

func TestStreamFileSupMRChunks(t *testing.T) {
	clock := NewClock()
	f := MemoryFile("x", []byte("one\ntwo\nthree\nfour\n"), clock)
	s, err := StreamFile(f, Config{Runtime: RuntimeSupMR, ChunkBytes: 5})
	if err != nil {
		t.Fatal(err)
	}
	chunks := drainStream(t, s)
	if len(chunks) < 2 {
		t.Errorf("SupMR stream produced %d chunks, want several", len(chunks))
	}
	// Zero chunk size degenerates to whole input even under SupMR.
	s2, err := StreamFile(f, Config{Runtime: RuntimeSupMR})
	if err != nil {
		t.Fatal(err)
	}
	if got := drainStream(t, s2); len(got) != 1 {
		t.Errorf("zero-chunk SupMR stream produced %d chunks", len(got))
	}
}

func TestStreamFilesVariants(t *testing.T) {
	clock := NewClock()
	var files []Input
	for i := 0; i < 6; i++ {
		files = append(files, MemoryFile("f", []byte("abc def\n"), clock))
	}
	// Intra-file: 6 files at 2/chunk -> 3 chunks.
	s, err := StreamFiles(files, Config{Runtime: RuntimeSupMR, FilesPerChunk: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := drainStream(t, s); len(got) != 3 {
		t.Errorf("intra-file stream produced %d chunks, want 3", len(got))
	}
	// The byte cut coalesces all small files into one chunk.
	s2, err := StreamFiles(files, Config{Runtime: RuntimeSupMR, ChunkBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := drainStream(t, s2); len(got) != 1 {
		t.Errorf("hybrid stream produced %d chunks, want 1", len(got))
	}
	// Empty input rejected.
	if _, err := StreamFiles(nil, Config{}); err == nil {
		t.Error("empty file list accepted")
	}
}

func TestAdaptiveWithoutChunkBytesUsesRecommendation(t *testing.T) {
	clock := NewClock()
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = 'a'
		if i%64 == 63 {
			data[i] = '\n'
		}
	}
	f := MemoryFile("x", data, clock)
	rep, err := RunFile[string, int64](WordCountJob(), f, WordCountContainer(8), Config{
		Runtime:        RuntimeSupMR,
		AdaptiveChunks: true, // no ChunkBytes: the advisor picks
		Clock:          clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.BytesIngested != int64(len(data)) {
		t.Errorf("ingested %d of %d", rep.Stats.BytesIngested, len(data))
	}
	if rep.Stats.MapWaves < 2 {
		t.Errorf("advisor produced %d waves, want pipelining", rep.Stats.MapWaves)
	}
}

func TestReportStatsPlumbing(t *testing.T) {
	data := []byte("x x y\nz z z\n")
	rep, err := RunBytes[string, int64](WordCountJob(), data, WordCountContainer(4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.OutputPairs != len(rep.Pairs) {
		t.Errorf("OutputPairs = %d, pairs = %d", rep.Stats.OutputPairs, len(rep.Pairs))
	}
	if rep.Stats.IntermediateN != 3 {
		t.Errorf("IntermediateN = %d, want 3 distinct words", rep.Stats.IntermediateN)
	}
	if rep.Trace != nil || rep.Markers != nil {
		t.Error("tracing disabled but trace/markers present")
	}
}

func TestValidateSortedPairs(t *testing.T) {
	good := []Pair[string, uint64]{{Key: "a"}, {Key: "b"}, {Key: "c"}}
	chk := ValidateSortedPairs(good)
	if !chk.Ordered || chk.Records != 3 || chk.FirstKey != "a" || chk.LastKey != "c" {
		t.Errorf("check = %+v", chk)
	}
	bad := []Pair[string, uint64]{{Key: "b"}, {Key: "a"}}
	if ValidateSortedPairs(bad).Ordered {
		t.Error("unsorted pairs reported ordered")
	}
}

func TestSortOutputsShareChecksum(t *testing.T) {
	data := make([]byte, 5000*100)
	TeraFill(3)(0, data)
	run := func(rt Runtime) SortCheck {
		rep, err := RunBytes[string, uint64](SortJob(), data, SortContainer(), Config{
			Runtime: rt, ChunkBytes: 64 << 10, Boundary: CRLFRecords,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ValidateSortedPairs(rep.Pairs)
	}
	a := run(RuntimeTraditional)
	b := run(RuntimeSupMR)
	if !a.Ordered || !b.Ordered {
		t.Fatal("outputs not ordered")
	}
	if a.Sum != b.Sum || a.Records != b.Records {
		t.Errorf("checksums differ: %+v vs %+v", a, b)
	}
}

func TestStatsBusyTimes(t *testing.T) {
	data := make([]byte, 256<<10)
	TextFill(7)(0, data)
	rep, err := RunBytes[string, int64](WordCountJob(), data, WordCountContainer(16), Config{
		Runtime: RuntimeSupMR, ChunkBytes: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.MapBusy <= 0 {
		t.Error("MapBusy not accounted")
	}
	if rep.Stats.ReduceBusy <= 0 {
		t.Error("ReduceBusy not accounted")
	}
}

func TestFacadeJobConstructors(t *testing.T) {
	// Histogram through the facade with the array container.
	h := HistogramJob()
	rep, err := RunBytes[int, int64](h, []byte{0, 1, 1, 255}, h.NewContainer(4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int64{}
	for _, p := range rep.Pairs {
		counts[p.Key] = p.Val
	}
	if counts[0] != 1 || counts[1] != 2 || counts[255] != 1 {
		t.Errorf("histogram = %v", counts)
	}

	// Inverted index through the facade over two files.
	clock := NewClock()
	files := []Input{
		MemoryFile("a.txt", []byte("apple pie\n"), clock),
		MemoryFile("b.txt", []byte("apple tart\n"), clock),
	}
	ix := InvertedIndexJob()
	rep2, err := RunFiles[string, []string](ix, files, ix.NewContainer(8), Config{
		Runtime: RuntimeSupMR, FilesPerChunk: 1, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	var appleDocs []string
	for _, p := range rep2.Pairs {
		if p.Key == "apple" {
			appleDocs = p.Val
		}
	}
	if len(appleDocs) != 2 {
		t.Errorf("apple postings = %v", appleDocs)
	}
}

func TestFacadeContainerConstructors(t *testing.T) {
	arr := NewArrayContainer[int64](8, 2, func(a, b int64) int64 { return a + b })
	l := arr.NewLocal()
	l.Emit(3, 5)
	l.Flush()
	if arr.Len() != 1 {
		t.Errorf("array container Len = %d", arr.Len())
	}
	kr := NewKeyRangeContainer[string, int](4)
	l2 := kr.NewLocal()
	l2.Emit("k", 1)
	l2.Flush()
	if kr.Len() != 1 {
		t.Errorf("key-range container Len = %d", kr.Len())
	}
	if HashInt(3) == HashInt(4) {
		t.Error("HashInt collision")
	}
	if HashUint64(3) == HashUint64(4) {
		t.Error("HashUint64 collision")
	}
}

func TestOpenMPSortFileUntraced(t *testing.T) {
	clock := NewClock()
	f, err := TeraFile("t", 2000, 5, NewFastDevice(clock))
	if err != nil {
		t.Fatal(err)
	}
	res, err := OpenMPSortFile(f, 2, clock)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 2000 {
		t.Errorf("sorted %d records", len(res.Pairs))
	}
	chk := ValidateSortedPairs(res.Pairs)
	if !chk.Ordered {
		t.Error("OpenMP output unsorted")
	}
	// Nil clock path.
	f2, err := TeraFile("t2", 100, 5, NewFastDevice(NewClock()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMPSortFile(f2, 1, nil); err != nil {
		t.Errorf("nil-clock OpenMPSortFile failed: %v", err)
	}
}

func TestNewHDFSWithAccessPorts(t *testing.T) {
	clock := NewClock()
	c, err := NewHDFS(HDFSConfig{
		Nodes: 4, BlockSize: 64 << 10, DiskBW: 1 << 30,
		LinkBW: 32 << 20, AccessBW: 128 << 20,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Create("x", 256<<10, TextFill(2))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256<<10)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if c.Link().Stats().BytesRead != 256<<10 {
		t.Errorf("uplink moved %d bytes", c.Link().Stats().BytesRead)
	}
	// Invalid link bandwidth propagates.
	if _, err := NewHDFS(HDFSConfig{Nodes: 2, BlockSize: 1024, DiskBW: 1, LinkBW: 0}, clock); err == nil {
		t.Error("zero link bandwidth accepted")
	}
	if _, err := NewHDFS(HDFSConfig{Nodes: 2, BlockSize: 1024, DiskBW: 1, LinkBW: 0, AccessBW: 1}, clock); err == nil {
		t.Error("zero uplink with access ports accepted")
	}
}

package chunk

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"supmr/internal/storage"
	"supmr/internal/workload"
)

func memFile(t *testing.T, name string, data []byte) *storage.File {
	t.Helper()
	return storage.BytesFile(name, data, storage.NewNullDevice(storage.NewFakeClock()))
}

// drain collects every chunk of a stream.
func drain(t *testing.T, s Stream) []*Chunk {
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

func TestInterFileReassemblesInput(t *testing.T) {
	text := []byte(strings.Repeat("alpha beta gamma delta\n", 500))
	for _, chunkSize := range []int64{64, 1000, 5000, int64(len(text)), int64(len(text)) * 2} {
		s, err := NewInterFile(memFile(t, "f", text), chunkSize, NewlineBoundary{})
		if err != nil {
			t.Fatal(err)
		}
		chunks := drain(t, s)
		var got []byte
		for i, c := range chunks {
			if c.Index != i {
				t.Errorf("chunk %d has index %d", i, c.Index)
			}
			got = append(got, c.Data...)
		}
		if !bytes.Equal(got, text) {
			t.Fatalf("chunkSize %d: reassembled input differs (%d vs %d bytes)",
				chunkSize, len(got), len(text))
		}
	}
}

func TestInterFileNeverSplitsRecords(t *testing.T) {
	text := []byte(strings.Repeat("some words here\n", 300))
	s, err := NewInterFile(memFile(t, "f", text), 100, NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := drain(t, s)
	if len(chunks) < 2 {
		t.Fatalf("expected several chunks, got %d", len(chunks))
	}
	for i, c := range chunks {
		if c.Data[len(c.Data)-1] != '\n' {
			t.Errorf("chunk %d does not end at a record boundary", i)
		}
		if int64(len(c.Data)) < 100 && i != len(chunks)-1 {
			t.Errorf("chunk %d smaller than nominal: %d", i, len(c.Data))
		}
	}
}

func TestInterFileCRLFRecords(t *testing.T) {
	const records = 200
	data := make([]byte, records*workload.TeraRecordSize)
	workload.TeraGen{Seed: 1}.Fill()(0, data)
	// A chunk size that lands mid-record forces boundary extension.
	s, err := NewInterFile(memFile(t, "tera", data), 1037, CRLFBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range drain(t, s) {
		n, err := workload.ParseTeraRecords(c.Data, func([]byte) {})
		if err != nil {
			t.Fatalf("chunk holds partial records: %v", err)
		}
		total += n
	}
	if total != records {
		t.Errorf("records across chunks = %d, want %d", total, records)
	}
}

func TestInterFileFixedBoundary(t *testing.T) {
	data := make([]byte, 100*50) // 50 fixed records of 100 bytes
	s, err := NewInterFile(memFile(t, "fixed", data), 333, FixedBoundary{Width: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range drain(t, s) {
		if len(c.Data)%100 != 0 {
			t.Errorf("chunk %d length %d not a record multiple", i, len(c.Data))
		}
	}
}

func TestInterFileUnterminatedTail(t *testing.T) {
	// Input whose final record has no terminator: the last chunk keeps it.
	text := []byte("one\ntwo\nthree") // no trailing newline
	s, err := NewInterFile(memFile(t, "f", text), 5, NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := drain(t, s)
	var got []byte
	for _, c := range chunks {
		got = append(got, c.Data...)
	}
	if !bytes.Equal(got, text) {
		t.Errorf("reassembly with unterminated tail failed: %q", got)
	}
}

func TestInterFileValidation(t *testing.T) {
	f := memFile(t, "f", []byte("x"))
	if _, err := NewInterFile(nil, 10, NewlineBoundary{}); err == nil {
		t.Error("nil file accepted")
	}
	if _, err := NewInterFile(f, 0, NewlineBoundary{}); err == nil {
		t.Error("zero chunk size accepted")
	}
	if _, err := NewInterFile(f, 10, nil); err == nil {
		t.Error("nil boundary accepted")
	}
}

// Property: for random text and random chunk sizes, inter-file chunking
// conserves bytes and cuts only at newlines.
func TestInterFileProperty(t *testing.T) {
	f := func(seed int64, chunkRaw uint16) bool {
		gen := workload.TextGen{Seed: seed, BlockSize: 512}
		data := make([]byte, 8192)
		gen.Fill()(0, data)
		chunkSize := int64(chunkRaw)%2000 + 1
		s, err := NewInterFile(memFile(t, "p", data), chunkSize, NewlineBoundary{})
		if err != nil {
			return false
		}
		var got []byte
		for {
			c, err := s.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return false
			}
			got = append(got, c.Data...)
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIntraFileGrouping(t *testing.T) {
	// 30 files at 4 per chunk -> 7 chunks of 4 and 1 chunk of 2 (§III-A1).
	var files []Input
	for i := 0; i < 30; i++ {
		files = append(files, memFile(t, "f", []byte(strings.Repeat("x", 10))))
	}
	s, err := NewFiles(files, 4, 0, NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := drain(t, s)
	if len(chunks) != 8 {
		t.Fatalf("got %d chunks, want 8", len(chunks))
	}
	for i := 0; i < 7; i++ {
		if len(chunks[i].Files) != 4 || len(chunks[i].Data) != 40 {
			t.Errorf("chunk %d: %d files, %d bytes; want 4 files, 40 bytes",
				i, len(chunks[i].Files), len(chunks[i].Data))
		}
	}
	if last := chunks[7]; len(last.Files) != 2 || len(last.Data) != 20 {
		t.Errorf("last chunk: %d files, %d bytes; want 2 files, 20 bytes",
			len(last.Files), len(last.Data))
	}
}

func TestIntraFileContent(t *testing.T) {
	a := memFile(t, "a", []byte("AAAA"))
	b := memFile(t, "b", []byte("BB"))
	s, err := NewFiles([]Input{a, b}, 2, 0, NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := drain(t, s)
	if len(chunks) != 1 {
		t.Fatalf("got %d chunks", len(chunks))
	}
	if string(chunks[0].Data) != "AAAABB" {
		t.Errorf("coalesced data = %q", chunks[0].Data)
	}
	if chunks[0].Files[0] != "a" || chunks[0].Files[1] != "b" {
		t.Errorf("files = %v", chunks[0].Files)
	}
	if s.TotalBytes() != 6 {
		t.Errorf("TotalBytes = %d, want 6", s.TotalBytes())
	}
}

func TestIntraFileValidation(t *testing.T) {
	if _, err := NewFiles(nil, 2, 0, NewlineBoundary{}); err == nil {
		t.Error("empty file list accepted")
	}
	if _, err := NewFiles([]Input{memFile(t, "f", nil)}, 0, 0, NewlineBoundary{}); err == nil {
		t.Error("zero files-per-chunk accepted")
	}
}

func TestWholeInput(t *testing.T) {
	text := []byte(strings.Repeat("line\n", 100))
	inner, err := NewInterFile(memFile(t, "f", text), 64, NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWholeInput(inner)
	chunks := drain(t, s)
	if len(chunks) != 1 {
		t.Fatalf("whole input produced %d chunks", len(chunks))
	}
	if !bytes.Equal(chunks[0].Data, text) {
		t.Error("whole input data mismatch")
	}
}

// TestWholeInputListsEachFileOnce: a file spanning several inner chunks
// is named once, and files coalesced by an intra-file stream keep their
// order.
func TestWholeInputListsEachFileOnce(t *testing.T) {
	text := []byte(strings.Repeat("line\n", 100))
	inter, err := NewInterFile(memFile(t, "f", text), 64, NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	intra, err := NewFiles([]Input{memFile(t, "a", text), memFile(t, "b", text), memFile(t, "c", text)}, 2, 0, NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		inner Stream
		want  []string
	}{{inter, []string{"f"}}, {intra, []string{"a", "b", "c"}}} {
		c, err := NewWholeInput(tc.inner).Next()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(c.Files, ",") != strings.Join(tc.want, ",") {
			t.Errorf("Files = %q, want %q", c.Files, tc.want)
		}
	}
}

// TestWholeInputAllocatesOnceAtTotal: the whole-input buffer is sized
// from TotalBytes up front, not regrown chunk by chunk.
func TestWholeInputAllocatesOnceAtTotal(t *testing.T) {
	text := []byte(strings.Repeat("line\n", 1000))
	inner, err := NewInterFile(memFile(t, "f", text), 256, NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWholeInput(inner).Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Data) != len(text) || cap(c.Data) != len(text) {
		t.Errorf("whole-input buffer len %d cap %d, want both %d", len(c.Data), cap(c.Data), len(text))
	}
}

func TestSplitBuffer(t *testing.T) {
	text := []byte(strings.Repeat("word one two\n", 100))
	splits := SplitBuffer(text, 8, NewlineBoundary{})
	if len(splits) == 0 || len(splits) > 8 {
		t.Fatalf("got %d splits", len(splits))
	}
	var got []byte
	for i, sp := range splits {
		got = append(got, sp...)
		if sp[len(sp)-1] != '\n' {
			t.Errorf("split %d cut mid-record", i)
		}
	}
	if !bytes.Equal(got, text) {
		t.Error("splits do not cover the buffer")
	}
}

func TestSplitBufferEdgeCases(t *testing.T) {
	if got := SplitBuffer(nil, 4, NewlineBoundary{}); got != nil {
		t.Errorf("nil buffer: %v", got)
	}
	one := SplitBuffer([]byte("abc\n"), 1, NewlineBoundary{})
	if len(one) != 1 {
		t.Errorf("n=1: %d splits", len(one))
	}
	// More splits than records.
	tiny := SplitBuffer([]byte("a\nb\n"), 16, NewlineBoundary{})
	var got []byte
	for _, s := range tiny {
		got = append(got, s...)
	}
	if string(got) != "a\nb\n" {
		t.Errorf("tiny coverage: %q", got)
	}
}

func TestBoundaries(t *testing.T) {
	nb := NewlineBoundary{}
	if !nb.Complete([]byte("x\n")) || nb.Complete([]byte("x")) || !nb.Complete(nil) {
		t.Error("newline Complete wrong")
	}
	if nb.Scan([]byte("ab\ncd")) != 3 || nb.Scan([]byte("abcd")) != -1 {
		t.Error("newline Scan wrong")
	}
	cb := CRLFBoundary{}
	if !cb.Complete([]byte("x\r\n")) || cb.Complete([]byte("x\n")) {
		t.Error("CRLF Complete wrong")
	}
	if cb.Scan([]byte("ab\r\ncd")) != 4 || cb.Scan([]byte("ab\rcd")) != -1 {
		t.Error("CRLF Scan wrong")
	}
	fb := FixedBoundary{Width: 10}
	if !fb.Complete(make([]byte, 20)) || fb.Complete(make([]byte, 15)) {
		t.Error("fixed Complete wrong")
	}
	if fb.Need(15) != 5 || fb.Need(20) != 0 {
		t.Error("fixed Need wrong")
	}
}

func TestInputsFromSet(t *testing.T) {
	clock := storage.NewFakeClock()
	dev := storage.NewNullDevice(clock)
	set := storage.NewFileSet([]*storage.File{
		storage.BytesFile("a", []byte("1"), dev),
		storage.BytesFile("b", []byte("2"), dev),
	})
	inputs := InputsFromSet(set)
	if len(inputs) != 2 || inputs[0].Name() != "a" {
		t.Errorf("InputsFromSet = %v", inputs)
	}
}

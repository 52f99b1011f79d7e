package chunk

import (
	"bytes"
	"strings"
	"testing"
)

func TestHybridCoalescesSmallFiles(t *testing.T) {
	// Four 10-byte files with a 25-byte chunk: two files per chunk.
	var files []Input
	for i := 0; i < 4; i++ {
		files = append(files, memFile(t, "small", []byte("aaaa bbbb\n")))
	}
	h, err := NewFiles(files, 0, 25, NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := drain(t, h)
	if len(chunks) != 2 {
		t.Fatalf("got %d chunks, want 2", len(chunks))
	}
	for i, c := range chunks {
		if len(c.Files) != 2 || len(c.Data) != 20 {
			t.Errorf("chunk %d: %d files, %d bytes", i, len(c.Files), len(c.Data))
		}
	}
}

func TestHybridSplitsOversizedFiles(t *testing.T) {
	big := []byte(strings.Repeat("0123456789abcde\n", 64)) // 1024 B
	small := []byte("tiny file one\n")
	files := []Input{
		memFile(t, "small1", small),
		memFile(t, "big", big),
		memFile(t, "small2", small),
	}
	h, err := NewFiles(files, 0, 256, NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := drain(t, h)
	// small1 alone (next file is oversized), ~4 chunks of big, small2.
	if len(chunks) < 5 {
		t.Fatalf("got %d chunks, want >= 5", len(chunks))
	}
	var got []byte
	for _, c := range chunks {
		got = append(got, c.Data...)
	}
	want := append(append(append([]byte(nil), small...), big...), small...)
	if !bytes.Equal(got, want) {
		t.Error("hybrid reassembly mismatch")
	}
	// The big file's chunks must end at record boundaries.
	for i, c := range chunks {
		if c.Data[len(c.Data)-1] != '\n' {
			t.Errorf("chunk %d cut mid-record", i)
		}
	}
	// Chunk indices are sequential across modes.
	for i, c := range chunks {
		if c.Index != i {
			t.Errorf("chunk %d has index %d", i, c.Index)
		}
	}
}

func TestHybridSimilarSizes(t *testing.T) {
	// Mixed file sizes: resulting chunk sizes must cluster near nominal
	// (within a factor of ~2 except the tails).
	var files []Input
	for i := 0; i < 10; i++ {
		files = append(files, memFile(t, "s", []byte(strings.Repeat("w\n", 50)))) // 100 B
	}
	files = append(files, memFile(t, "big", []byte(strings.Repeat("word\n", 400)))) // 2000 B
	h, err := NewFiles(files, 0, 500, NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := drain(t, h)
	var total int64
	for _, c := range chunks {
		total += c.Size()
		if c.Size() > 1100 {
			t.Errorf("chunk of %d bytes far exceeds nominal 500", c.Size())
		}
	}
	if total != h.TotalBytes() {
		t.Errorf("bytes conserved: got %d, want %d", total, h.TotalBytes())
	}
}

func TestHybridValidation(t *testing.T) {
	f := memFile(t, "f", []byte("x\n"))
	if _, err := NewFiles(nil, 0, 10, NewlineBoundary{}); err == nil {
		t.Error("empty file list accepted")
	}
	if _, err := NewFiles([]Input{f}, 0, 0, NewlineBoundary{}); err == nil {
		t.Error("zero chunk size accepted")
	}
	if _, err := NewFiles([]Input{f}, 0, 10, nil); err == nil {
		t.Error("nil boundary accepted")
	}
}

func TestInterFileResize(t *testing.T) {
	text := []byte(strings.Repeat("0123456789abcde\n", 256)) // 4096 B
	s, err := NewInterFile(memFile(t, "f", text), 256, NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	if s.ChunkSize() != 256 {
		t.Errorf("ChunkSize = %d", s.ChunkSize())
	}
	first, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	s.SetChunkSize(1024)
	s.SetChunkSize(0) // ignored
	if s.ChunkSize() != 1024 {
		t.Errorf("ChunkSize after resize = %d", s.ChunkSize())
	}
	second, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if second.Size() <= first.Size() {
		t.Errorf("resized chunk %d not larger than first %d", second.Size(), first.Size())
	}
	// Full coverage still holds.
	got := append(append([]byte(nil), first.Data...), second.Data...)
	for _, c := range drain(t, s) {
		got = append(got, c.Data...)
	}
	if !bytes.Equal(got, text) {
		t.Error("resized stream lost bytes")
	}
}

var _ Resizable = (*InterFile)(nil)

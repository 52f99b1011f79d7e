package chunk

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"supmr/internal/workload"
)

func newCDC(t *testing.T, data []byte, min, avg, max int64) *InterFile {
	t.Helper()
	s, err := NewContentDefined(memFile(t, "f", data), min, avg, max, NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func cdcText(n int) []byte {
	buf := make([]byte, n)
	workload.TextGen{Seed: 9}.Fill()(0, buf)
	return buf
}

func TestCDCFileReassemblesInput(t *testing.T) {
	text := cdcText(96 << 10)
	s := newCDC(t, text, 1<<10, 2<<10, 8<<10)
	chunks := drain(t, s)
	var got []byte
	for i, c := range chunks {
		if c.Index != i {
			t.Errorf("chunk %d has index %d", i, c.Index)
		}
		if !c.HasSum {
			t.Errorf("chunk %d missing content hash", i)
		}
		if c.Sum != sha256.Sum256(c.Data) {
			t.Errorf("chunk %d hash does not match its payload", i)
		}
		got = append(got, c.Data...)
	}
	if !bytes.Equal(got, text) {
		t.Fatalf("reassembled input differs (%d vs %d bytes)", len(got), len(text))
	}
	if len(chunks) < 4 {
		t.Fatalf("only %d chunks from %d bytes at avg 2k", len(chunks), len(text))
	}
}

func TestCDCFileKeepsRecordsWhole(t *testing.T) {
	text := []byte(strings.Repeat("a few words per line here\n", 3000))
	s := newCDC(t, text, 512, 1024, 4096)
	chunks := drain(t, s)
	for i, c := range chunks {
		if len(c.Data) == 0 || c.Data[len(c.Data)-1] != '\n' {
			t.Fatalf("chunk %d of %d does not end on a record boundary", i, len(chunks))
		}
	}
}

func TestCDCFileCRLFRecordsWhole(t *testing.T) {
	var b bytes.Buffer
	for i := 0; i < 4000; i++ {
		b.WriteString("key0123456789value")
		b.WriteString("\r\n")
	}
	s, err := NewContentDefined(memFile(t, "f", b.Bytes()), 512, 1024, 4096, CRLFBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range drain(t, s) {
		d := c.Data
		if len(d) < 2 || d[len(d)-2] != '\r' || d[len(d)-1] != '\n' {
			t.Fatalf("chunk %d does not end with CRLF", i)
		}
	}
}

// TestCDCFileAppendStability is the property the memo cache rests on:
// appending bytes to the input must keep every chunk hash before the
// original final chunk identical, so a re-run after an append hits the
// cache for all but the tail.
func TestCDCFileAppendStability(t *testing.T) {
	base := cdcText(128 << 10)
	grown := append(append([]byte{}, base...), cdcText(2<<10)...)

	sums := func(data []byte) [][32]byte {
		var out [][32]byte
		for _, c := range drain(t, newCDC(t, data, 1<<10, 2<<10, 8<<10)) {
			out = append(out, c.Sum)
		}
		return out
	}
	before, after := sums(base), sums(grown)
	if len(before) < 3 {
		t.Fatalf("need several chunks, got %d", len(before))
	}
	stable := before[:len(before)-1]
	if len(after) < len(stable) {
		t.Fatalf("append shrank the chunk list: %d -> %d", len(before), len(after))
	}
	for i, sum := range stable {
		if after[i] != sum {
			t.Fatalf("append shifted content hash of chunk %d (of %d)", i, len(before))
		}
	}
}

// TestCDCFileDeterministicHashes pins that two ingests of identical
// content produce identical chunk hash sequences — the other half of
// the memo key contract.
func TestCDCFileDeterministicHashes(t *testing.T) {
	text := cdcText(64 << 10)
	a := drain(t, newCDC(t, text, 1<<10, 2<<10, 8<<10))
	b := drain(t, newCDC(t, text, 1<<10, 2<<10, 8<<10))
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Sum != b[i].Sum {
			t.Fatalf("chunk %d hashes differ across identical ingests", i)
		}
	}
}

// TestFreeListClearsSum pins that recycled chunk buffers never leak a
// previous chunk's content hash.
func TestFreeListClearsSum(t *testing.T) {
	l := NewFreeList()
	c := l.acquire(16)
	c.Sum = sha256.Sum256([]byte("old"))
	c.HasSum = true
	c.Release()
	c2 := l.acquire(16)
	if c2.HasSum {
		t.Fatal("recycled chunk kept a stale HasSum")
	}
}

func TestCDCFileThroughFetcher(t *testing.T) {
	text := cdcText(64 << 10)
	s := newCDC(t, text, 1<<10, 2<<10, 8<<10)
	s.SetFetcher(NewFetcher(1, nil))
	var got []byte
	var prev *Chunk
	for _, c := range drain(t, Stream(s)) {
		got = append(got, c.Data...)
		if prev != nil {
			prev.Release()
		}
		prev = c
	}
	if !bytes.Equal(got, text) {
		t.Fatal("fetcher-backed cdc stream corrupted the payload")
	}
}

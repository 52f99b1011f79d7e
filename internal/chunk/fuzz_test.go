package chunk

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"testing"

	"supmr/internal/cdc"
	"supmr/internal/storage"
)

// FuzzInterFileCoverage feeds arbitrary data and chunk sizes through the
// inter-file chunker and checks the two invariants that matter: every
// input byte appears exactly once across chunks (in order), and no
// chunk except the last ends mid-record.
func FuzzInterFileCoverage(f *testing.F) {
	f.Add([]byte("alpha beta\ngamma\n"), int64(4))
	f.Add([]byte("no newline at all"), int64(3))
	f.Add([]byte("\n\n\n"), int64(1))
	f.Add(bytes.Repeat([]byte("word\n"), 100), int64(7))
	f.Fuzz(func(t *testing.T, data []byte, chunkSize int64) {
		if chunkSize <= 0 || chunkSize > int64(len(data))+10 {
			chunkSize = int64(len(data)%97) + 1
		}
		file := storage.BytesFile("f", data, storage.NewNullDevice(storage.NewFakeClock()))
		s, err := NewInterFile(file, chunkSize, NewlineBoundary{})
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		var chunks [][]byte
		for {
			c, err := s.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, c.Data...)
			chunks = append(chunks, c.Data)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("coverage broken: %d bytes in, %d out", len(data), len(got))
		}
		for i, c := range chunks[:max(0, len(chunks)-1)] {
			if len(c) > 0 && c[len(c)-1] != '\n' {
				t.Fatalf("chunk %d of %d ends mid-record", i, len(chunks))
			}
		}
	})
}

// FuzzSplitBuffer checks that in-memory splitting covers the buffer
// exactly and respects record boundaries.
func FuzzSplitBuffer(f *testing.F) {
	f.Add([]byte("a b c\nd e\n"), 3)
	f.Add([]byte(""), 5)
	f.Add([]byte("unterminated tail"), 2)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 {
			n = -n
		}
		n = n%32 + 1
		splits := SplitBuffer(data, n, NewlineBoundary{})
		var got []byte
		for i, sp := range splits {
			if len(sp) == 0 {
				t.Fatalf("split %d empty", i)
			}
			got = append(got, sp...)
			if i < len(splits)-1 && sp[len(sp)-1] != '\n' {
				t.Fatalf("split %d cut mid-record", i)
			}
		}
		if !bytes.Equal(got, data) {
			t.Fatal("splits do not cover the buffer")
		}
	})
}

// crlfRecords cuts data into its \r\n-terminated records; the tail
// after the last terminator (if any) is one final unterminated record.
func crlfRecords(data []byte) [][]byte {
	var recs [][]byte
	start := 0
	for i := 1; i < len(data); i++ {
		if data[i] == '\n' && data[i-1] == '\r' {
			recs = append(recs, data[start:i+1])
			start = i + 1
		}
	}
	if start < len(data) {
		recs = append(recs, data[start:])
	}
	return recs
}

// FuzzInterFileCRLFRecords is the record-level invariant for CRLF
// inter-file chunking: no record is ever dropped, duplicated, or split
// across chunks. Byte coverage plus every non-final chunk ending
// exactly at a record boundary (Complete — which a chunk ending in a
// bare \r fails) implies each record lands whole in exactly one chunk;
// the per-chunk record recount makes the claim direct.
func FuzzInterFileCRLFRecords(f *testing.F) {
	f.Add([]byte("aaaa\r\nbb\r\ncccccc\r\n"), int64(5))
	f.Add([]byte("x\r\r\n\r\ny"), int64(2))             // bare \r inside a record
	f.Add([]byte("unterminated tail record"), int64(7)) // no CRLF at all
	f.Add([]byte("a\nb\nc\r\n"), int64(3))              // lone \n is not a terminator
	f.Add(bytes.Repeat([]byte("rec\r\n"), 64), int64(9))
	f.Fuzz(func(t *testing.T, data []byte, chunkSize int64) {
		if chunkSize <= 0 || chunkSize > int64(len(data))+10 {
			chunkSize = int64(len(data)%89) + 1
		}
		file := storage.BytesFile("f", data, storage.NewNullDevice(storage.NewFakeClock()))
		s, err := NewInterFile(file, chunkSize, CRLFBoundary{})
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		var chunks [][]byte
		for {
			c, err := s.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, c.Data...)
			chunks = append(chunks, c.Data)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("coverage broken: %d bytes in, %d out (records dropped or duplicated)", len(data), len(got))
		}
		b := CRLFBoundary{}
		for i, c := range chunks[:max(0, len(chunks)-1)] {
			if !b.Complete(c) {
				t.Fatalf("chunk %d of %d does not end at a record boundary (record split): trailing %q",
					i, len(chunks), c[max(0, len(c)-3):])
			}
		}
		// Recount: the records of the chunks, concatenated in order, must
		// be exactly the records of the input.
		want := crlfRecords(data)
		var have [][]byte
		for _, c := range chunks {
			have = append(have, crlfRecords(c)...)
		}
		if len(have) != len(want) {
			t.Fatalf("record count changed: %d in input, %d across chunks", len(want), len(have))
		}
		for i := range want {
			if !bytes.Equal(want[i], have[i]) {
				t.Fatalf("record %d differs: input %q, chunked %q", i, want[i], have[i])
			}
		}
	})
}

// FuzzCRLFBoundary checks the two-byte terminator logic never splits a
// \r\n pair across chunks.
func FuzzCRLFBoundary(f *testing.F) {
	f.Add([]byte("ab\r\ncd\r\n"), int64(3))
	f.Add([]byte("\r\r\n\r\n"), int64(2))
	f.Add([]byte("xx\rqq\nzz\r\n"), int64(4))
	f.Fuzz(func(t *testing.T, data []byte, chunkSize int64) {
		if chunkSize <= 0 {
			chunkSize = 1
		}
		if chunkSize > 1<<16 {
			chunkSize = 1 << 16
		}
		file := storage.BytesFile("f", data, storage.NewNullDevice(storage.NewFakeClock()))
		s, err := NewInterFile(file, chunkSize, CRLFBoundary{})
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		var prev *Chunk
		for {
			c, err := s.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil && len(prev.Data) > 0 && len(c.Data) > 0 {
				// A \r at the end of one chunk followed by \n at the start
				// of the next would be a split terminator.
				if prev.Data[len(prev.Data)-1] == '\r' && c.Data[0] == '\n' {
					t.Fatal("\\r\\n pair split across chunks")
				}
			}
			got = append(got, c.Data...)
			prev = c
		}
		if !bytes.Equal(got, data) {
			t.Fatal("coverage broken")
		}
	})
}

// refInterFile is InterFile.Next as it was before reads ran ahead — one
// request for the nominal chunk plus the boundary-hunt margin, then
// extension reads while hunting — kept as the reference the read-ahead
// chunker must reproduce chunk for chunk.
type refInterFile struct {
	file      Input
	chunkSize int64
	boundary  Boundary
	off       int64
	emitted   int64
	carry     []byte
	index     int
}

func (c *refInterFile) fetch(buf []byte, want int64) ([]byte, error) {
	if rest := c.file.Size() - c.off; want > rest {
		want = rest
	}
	if want <= 0 {
		return buf, nil
	}
	start := len(buf)
	buf = growTo(buf, int(want))
	if err := readFull(c.file, buf[start:], c.off); err != nil {
		return nil, err
	}
	c.off += want
	return buf, nil
}

func (c *refInterFile) Next() (*Chunk, error) {
	size := c.file.Size()
	if c.off >= size && len(c.carry) == 0 {
		return nil, io.EOF
	}
	buf := append([]byte(nil), c.carry...)
	c.carry = c.carry[:0]
	if int64(len(buf)) < c.chunkSize+extendStep {
		var err error
		if buf, err = c.fetch(buf, c.chunkSize+extendStep-int64(len(buf))); err != nil {
			return nil, err
		}
	}
	cut := len(buf)
	if int64(len(buf)) > c.chunkSize {
		nominal := int(c.chunkSize)
		switch {
		case c.boundary.Complete(buf[:nominal]):
			cut = nominal
		default:
			if need := c.boundary.Need(c.emitted + c.chunkSize); need >= 0 {
				cut = nominal + int(need)
				for int64(len(buf)) < int64(cut) && c.off < size {
					var err error
					if buf, err = c.fetch(buf, int64(cut-len(buf))); err != nil {
						return nil, err
					}
				}
				if cut > len(buf) {
					cut = len(buf)
				}
			} else {
				scanFrom := nominal - 1
				if scanFrom < 0 {
					scanFrom = 0
				}
				for {
					if i := c.boundary.Scan(buf[scanFrom:]); i >= 0 {
						cut = scanFrom + i
						break
					}
					if c.off >= size {
						cut = len(buf)
						break
					}
					scanFrom = len(buf) - 1
					var err error
					if buf, err = c.fetch(buf, extendStep); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if cut < len(buf) {
		c.carry = append(c.carry[:0], buf[cut:]...)
	}
	c.emitted += int64(cut)
	ch := &Chunk{Index: c.index, Data: buf[:cut:cut], Files: []string{c.file.Name()}}
	c.index++
	return ch, nil
}

// FuzzInterFileVsReference: at every lane count and read-ahead depth
// the chunker cuts exactly the reference's chunks — same index, bytes
// and files — and the device serves every input byte exactly once,
// whatever the records (newline, CRLF, fixed 100-byte) and chunk size.
func FuzzInterFileVsReference(f *testing.F) {
	f.Add([]byte("alpha beta\ngamma\n"), int64(4), uint8(0))
	f.Add([]byte("aaaa\r\nbb\r\ncccccc\r\n"), int64(5), uint8(1))
	f.Add(bytes.Repeat([]byte("0123456789"), 100), int64(130), uint8(2))
	// Many chunks, each cut leaving a carry in front of a read in flight.
	f.Add(bytes.Repeat([]byte("lorem ipsum dolor\n"), 1500), int64(1000), uint8(0))
	// Records longer than the boundary-hunt margin and than the reads in
	// flight: cuts reach into later reads and past all of them.
	f.Add(append(bytes.Repeat([]byte("x"), 3*extendStep), "\nshort\n"...), int64(7), uint8(0))
	f.Add(append(bytes.Repeat([]byte("ab\r"), 3000), "\r\n\r\nz"...), int64(1000), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, chunkSize int64, kind uint8) {
		if chunkSize <= 0 || chunkSize > int64(len(data))+10 {
			chunkSize = int64(len(data)%97) + 1
		}
		b := []Boundary{NewlineBoundary{}, CRLFBoundary{}, FixedBoundary{Width: 100}}[int(kind)%3]
		ref := &refInterFile{file: storage.BytesFile("f", data, storage.NewNullDevice(storage.NewFakeClock())), chunkSize: chunkSize, boundary: b}
		var want []*Chunk
		for {
			c, err := ref.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, c)
		}
		for _, lanes := range []int{1, 2, 4} {
			for depth := 1; depth <= 3; depth++ {
				file := storage.BytesFile("f", data, storage.NewNullDevice(storage.NewFakeClock()))
				s, err := NewInterFile(file, chunkSize, b)
				if err != nil {
					t.Fatal(err)
				}
				s.SetFetcher(NewFetcher(lanes, goDispatch))
				s.SetReadAhead(depth, nil)
				for i := 0; ; i++ {
					c, err := s.Next()
					if errors.Is(err, io.EOF) {
						if i != len(want) {
							t.Fatalf("lanes %d depth %d: %d chunks, reference %d", lanes, depth, i, len(want))
						}
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					if i >= len(want) || c.Index != want[i].Index || !bytes.Equal(c.Data, want[i].Data) ||
						len(c.Files) != 1 || c.Files[0] != want[i].Files[0] {
						t.Fatalf("lanes %d depth %d: chunk %d differs from the reference", lanes, depth, i)
					}
					c.Release()
				}
				if got := file.Device().Stats().BytesRead; got != int64(len(data)) {
					t.Fatalf("lanes %d depth %d: device served %d bytes of %d", lanes, depth, got, len(data))
				}
			}
		}
	})
}

// refCDCFile is the content-defined chunker as it was before it became
// an InterFile cut — fill to the policy's max, let the gear hash pick
// the cut, extend it to the record boundary, hash the payload — kept as
// the reference the read-ahead chunker must reproduce chunk for chunk.
type refCDCFile struct {
	file     Input
	chunker  *cdc.Chunker
	boundary Boundary
	off      int64
	emitted  int64
	carry    []byte
	index    int
}

func (c *refCDCFile) fetch(buf []byte, want int) ([]byte, error) {
	want = int(min(int64(want), c.file.Size()-c.off))
	if want <= 0 {
		return buf, nil
	}
	start := len(buf)
	buf = growTo(buf, want)
	if err := readFull(c.file, buf[start:], c.off); err != nil {
		return nil, err
	}
	c.off += int64(want)
	return buf, nil
}

func (c *refCDCFile) Next() (*Chunk, error) {
	size := c.file.Size()
	if c.off >= size && len(c.carry) == 0 {
		return nil, io.EOF
	}
	buf := append([]byte(nil), c.carry...)
	c.carry = c.carry[:0]
	if len(buf) < c.chunker.Max {
		var err error
		if buf, err = c.fetch(buf, c.chunker.Max-len(buf)); err != nil {
			return nil, err
		}
	}
	cut := c.chunker.Cut(buf, c.off >= size)
	if cut < len(buf) || c.off < size {
		var err error
		if buf, cut, err = toBoundary(c.boundary, buf, cut, c.emitted+int64(cut), c.fetch); err != nil {
			return nil, err
		}
	}
	if cut < len(buf) {
		c.carry = append(c.carry[:0], buf[cut:]...)
	}
	c.emitted += int64(cut)
	ch := &Chunk{Index: c.index, Data: buf[:cut:cut], Files: []string{c.file.Name()}, HasSum: true}
	ch.Sum = sha256.Sum256(ch.Data)
	c.index++
	return ch, nil
}

// refIntraFile is intra-file chunking as it was before it became a
// count-limited Files: filesPerChunk files per chunk, the last chunk
// taking what is left.
type refIntraFile struct {
	files         []Input
	filesPerChunk int
	next, index   int
}

func (c *refIntraFile) Next() (*Chunk, error) {
	if c.next >= len(c.files) {
		return nil, io.EOF
	}
	ch := &Chunk{Index: c.index}
	for k := 0; k < c.filesPerChunk && c.next < len(c.files); k++ {
		f := c.files[c.next]
		start := len(ch.Data)
		ch.Data = growTo(ch.Data, int(f.Size()))
		if err := readFull(f, ch.Data[start:], 0); err != nil {
			return nil, err
		}
		ch.Files = append(ch.Files, f.Name())
		c.next++
	}
	c.index++
	return ch, nil
}

// refHybrid is hybrid chunking as it was before it became a
// byte-limited Files: small files coalesce up to chunkSize, a larger
// file is split by the inter-file reference.
type refHybrid struct {
	files       []Input
	chunkSize   int64
	boundary    Boundary
	next, index int
	cur         *refInterFile
}

func (h *refHybrid) Next() (*Chunk, error) {
	if h.cur != nil {
		c, err := h.cur.Next()
		if err == nil {
			c.Index = h.index
			h.index++
			return c, nil
		}
		if !errors.Is(err, io.EOF) {
			return nil, err
		}
		h.cur = nil
	}
	if h.next >= len(h.files) {
		return nil, io.EOF
	}
	if f := h.files[h.next]; f.Size() > h.chunkSize {
		h.next++
		h.cur = &refInterFile{file: f, chunkSize: h.chunkSize, boundary: h.boundary}
		return h.Next()
	}
	ch := &Chunk{Index: h.index}
	for h.next < len(h.files) {
		g := h.files[h.next]
		if g.Size() > h.chunkSize || len(ch.Files) > 0 && int64(len(ch.Data))+g.Size() > h.chunkSize {
			break
		}
		start := len(ch.Data)
		ch.Data = growTo(ch.Data, int(g.Size()))
		if err := readFull(g, ch.Data[start:], 0); err != nil {
			return nil, err
		}
		ch.Files = append(ch.Files, g.Name())
		h.next++
	}
	h.index++
	return ch, nil
}

// nexter is what a reference chunker shares with Stream.
type nexter interface{ Next() (*Chunk, error) }

// drainAll collects a stream's chunks, copying each before releasing it.
func drainAll(t *testing.T, s nexter) []*Chunk {
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
		cp := *c
		cp.Data, cp.Files = append([]byte(nil), c.Data...), append([]string(nil), c.Files...)
		out = append(out, &cp)
		c.Release()
	}
}

// sameChunks reports the first way got differs from the reference's
// chunks: index, bytes, files or content hash.
func sameChunks(got, want []*Chunk) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d chunks, reference %d", len(got), len(want))
	}
	for i, c := range got {
		w := want[i]
		switch {
		case c.Index != w.Index:
			return fmt.Errorf("chunk %d has index %d, reference %d", i, c.Index, w.Index)
		case !bytes.Equal(c.Data, w.Data):
			return fmt.Errorf("chunk %d: %d bytes differ from the reference's %d", i, len(c.Data), len(w.Data))
		case fmt.Sprint(c.Files) != fmt.Sprint(w.Files):
			return fmt.Errorf("chunk %d files %v, reference %v", i, c.Files, w.Files)
		case c.HasSum != w.HasSum || c.Sum != w.Sum:
			return fmt.Errorf("chunk %d content hash differs from the reference", i)
		}
	}
	return nil
}

// FuzzCDCVsReference: at every lane count and read-ahead depth the
// content-defined cut of InterFile produces exactly the reference's
// chunks — index, bytes, files and content hash — and the device serves
// as many bytes, whatever the records (newline, CRLF, fixed 100-byte)
// and gear-hash policy.
func FuzzCDCVsReference(f *testing.F) {
	f.Add([]byte("alpha beta\ngamma\n"), uint16(3), uint16(9), uint8(0))
	f.Add([]byte("aaaa\r\nbb\r\ncccccc\r\n"), uint16(2), uint16(5), uint8(1))
	f.Add(bytes.Repeat([]byte("0123456789"), 300), uint16(130), uint16(400), uint8(2))
	// Many chunks, each cut leaving a carry in front of a read in flight.
	f.Add(bytes.Repeat([]byte("lorem ipsum dolor\n"), 1500), uint16(300), uint16(1200), uint8(0))
	// Records longer than the boundary-hunt margin and than the reads in
	// flight: cuts reach into later reads and past all of them.
	f.Add(append(bytes.Repeat([]byte("x"), 3*extendStep), "\nshort\n"...), uint16(7), uint16(20), uint8(0))
	f.Add(append(bytes.Repeat([]byte("ab\r"), 3000), "\r\n\r\nz"...), uint16(500), uint16(1000), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, lo, span uint16, kind uint8) {
		minB, maxB := int64(lo%2048)+1, int64(lo%2048)+1+int64(span%4096)
		avgB := minB + (maxB-minB)/4
		b := []Boundary{NewlineBoundary{}, CRLFBoundary{}, FixedBoundary{Width: 100}}[int(kind)%3]
		ck, err := cdc.New(int(minB), int(avgB), int(maxB))
		if err != nil {
			t.Fatal(err)
		}
		refFile := storage.BytesFile("f", data, storage.NewNullDevice(storage.NewFakeClock()))
		want := drainAll(t, &refCDCFile{file: refFile, chunker: ck, boundary: b})
		for _, lanes := range []int{1, 2, 4} {
			for depth := 1; depth <= 3; depth++ {
				file := storage.BytesFile("f", data, storage.NewNullDevice(storage.NewFakeClock()))
				s, err := NewContentDefined(file, minB, avgB, maxB, b)
				if err != nil {
					t.Fatal(err)
				}
				s.SetFetcher(NewFetcher(lanes, goDispatch))
				s.SetReadAhead(depth, nil)
				if err := sameChunks(drainAll(t, s), want); err != nil {
					t.Fatalf("lanes %d depth %d: %v", lanes, depth, err)
				}
				if got, ref := file.Device().Stats().BytesRead, refFile.Device().Stats().BytesRead; got != ref {
					t.Fatalf("lanes %d depth %d: device served %d bytes, reference %d", lanes, depth, got, ref)
				}
			}
		}
	})
}

// FuzzFilesVsReference: a count-limited Files chunks exactly as intra-file
// chunking did, and a byte-limited one exactly as hybrid chunking did —
// oversized files split included — at one, two and four lanes, with the
// device serving as many bytes. sizes cuts data into files: each byte
// is one file's length, squared over four (0 to 16 KiB); the rest of
// data is the last file.
func FuzzFilesVsReference(f *testing.F) {
	f.Add([]byte("aaaa bbbb\naaaa bbbb\naaaa bbbb\naaaa bbbb\n"), []byte{6, 6, 6}, uint16(25), uint8(0))
	f.Add(bytes.Repeat([]byte("0123456789abcde\n"), 200), []byte{7, 60, 7, 3}, uint16(256), uint8(0))
	f.Add(bytes.Repeat([]byte("key0123456789value\r\n"), 400), []byte{20, 0, 90, 10, 10}, uint16(700), uint8(1))
	f.Add(bytes.Repeat([]byte("0123456789"), 900), []byte{30, 200, 1, 1}, uint16(3000), uint8(2))
	f.Fuzz(func(t *testing.T, data, sizes []byte, limit uint16, kind uint8) {
		b := []Boundary{NewlineBoundary{}, CRLFBoundary{}, FixedBoundary{Width: 100}}[int(kind)%3]
		split := func() ([]Input, storage.Device) {
			dev := storage.NewNullDevice(storage.NewFakeClock())
			var files []Input
			rest := data
			for i := 0; len(rest) > 0 || len(files) == 0; i++ {
				n := len(rest)
				if i < len(sizes) {
					n = min(n, int(sizes[i])*int(sizes[i])/4)
				}
				files = append(files, storage.BytesFile(fmt.Sprintf("f%d", i), rest[:n], dev))
				rest = rest[n:]
			}
			return files, dev
		}
		perChunk, maxBytes := int(limit%6)+1, int64(limit%4096)+1
		for _, mode := range []string{"count", "bytes"} {
			refFiles, refDev := split()
			var ref nexter = &refIntraFile{files: refFiles, filesPerChunk: perChunk}
			per, size := perChunk, int64(0)
			if mode == "bytes" {
				ref = &refHybrid{files: refFiles, chunkSize: maxBytes, boundary: b}
				per, size = 0, maxBytes
			}
			want := drainAll(t, ref)
			for _, lanes := range []int{1, 2, 4} {
				files, dev := split()
				s, err := NewFiles(files, per, size, b)
				if err != nil {
					t.Fatal(err)
				}
				s.SetFetcher(NewFetcher(lanes, goDispatch))
				if err := sameChunks(drainAll(t, s), want); err != nil {
					t.Fatalf("%s-limited, lanes %d: %v", mode, lanes, err)
				}
				if got, ref := dev.Stats().BytesRead, refDev.Stats().BytesRead; got != ref {
					t.Fatalf("%s-limited, lanes %d: device served %d bytes, reference %d", mode, lanes, got, ref)
				}
			}
		}
	})
}

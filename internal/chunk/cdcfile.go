package chunk

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"supmr/internal/cdc"
)

// CDCFile splits one large file at content-defined boundaries instead
// of a fixed nominal size: a gear-hash chunker (internal/cdc) places
// each cut as a function of the bytes themselves, and the cut is then
// extended forward to the next record boundary exactly as InterFile
// does, so no record straddles two chunks. Both steps depend only on
// content at and before the cut, which gives the memoization layer its
// key property: appending bytes to the input, or editing bytes within
// one chunk, changes only the affected chunks' hashes — every other
// chunk keeps its identity and its cached map output stays valid.
//
// Each emitted chunk carries the SHA-256 of its payload (Chunk.Sum),
// computed here on the ingest path — the pump goroutine or IO lane that
// runs Next — so hashing overlaps map work like the rest of ingest.
type CDCFile struct {
	file     Input
	chunker  *cdc.Chunker
	boundary Boundary
	off      int64  // next unread file offset
	emitted  int64  // total bytes already emitted in chunks
	carry    []byte // bytes read past the previous cut (persistent scratch)
	index    int
	fetcher  *Fetcher
}

// NewCDCFile builds the content-defined chunker. min/avg/max are the
// gear-hash policy in bytes (see cdc.New); records are kept whole with
// b, so chunks may exceed max by up to one record.
func NewCDCFile(file Input, min, avg, max int64, b Boundary) (*CDCFile, error) {
	if file == nil {
		return nil, errors.New("chunk: cdc chunker requires a file")
	}
	if b == nil {
		return nil, errors.New("chunk: cdc chunker requires a boundary")
	}
	ck, err := cdc.New(int(min), int(avg), int(max))
	if err != nil {
		return nil, err
	}
	return &CDCFile{file: file, chunker: ck, boundary: b}, nil
}

// SetFetcher installs the multi-lane fetcher subsequent Next calls read
// and pool buffers through.
func (c *CDCFile) SetFetcher(f *Fetcher) { c.fetcher = f }

// TotalBytes returns the file size.
func (c *CDCFile) TotalBytes() int64 { return c.file.Size() }

// fetch appends up to want more bytes from the file to buf.
func (c *CDCFile) fetch(buf []byte, want int) ([]byte, error) {
	want = int(min(int64(want), c.file.Size()-c.off))
	if want <= 0 {
		return buf, nil
	}
	start := len(buf)
	buf = growTo(buf, want)
	if err := c.fetcher.fetchInto(c.file, buf[start:], c.off); err != nil {
		return nil, fmt.Errorf("chunk: cdc ingest of chunk %d failed: %w", c.index, err)
	}
	c.off += int64(want)
	return buf, nil
}

// Next ingests the next content-defined chunk: fill to the chunker's
// max, let the gear hash pick the cut, extend it to the record
// boundary, hash the payload, and carry the over-read remainder.
func (c *CDCFile) Next() (*Chunk, error) {
	size := c.file.Size()
	if c.off >= size && len(c.carry) == 0 {
		return nil, io.EOF
	}
	max := c.chunker.Max
	ch := c.fetcher.acquire(int64(max) + extendStep)
	buf := append(ch.backing[:0], c.carry...)
	c.carry = c.carry[:0]

	if len(buf) < max {
		var err error
		buf, err = c.fetch(buf, max-len(buf))
		if err != nil {
			return nil, err
		}
	}
	atEOF := c.off >= size
	cut := c.chunker.Cut(buf, atEOF)
	if cut < 0 {
		// Unreachable: buf holds max bytes or the whole remainder.
		return nil, fmt.Errorf("chunk: cdc cut undecided with %d buffered bytes", len(buf))
	}

	// Extend the content-defined cut to the end of the record in
	// progress, mirroring InterFile. The extension reads only bytes up
	// to the next terminator, so it too is a function of local content —
	// boundary stability survives.
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
	ch.backing = buf
	ch.Index = c.index
	ch.Data = buf[:cut:cut]
	ch.Files = append(ch.Files, c.file.Name())
	ch.Sum = sha256.Sum256(ch.Data)
	ch.HasSum = true
	c.index++
	return ch, nil
}

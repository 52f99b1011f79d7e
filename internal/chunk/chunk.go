// Package chunk implements SupMR's ingest chunk management: the
// partitioning of the input into small, similarly-sized units that the
// ingest chunk pipeline streams through the runtime. There is one
// chunker, InterFile, whose reads run ahead of its cuts; streams differ
// only in where a cut lands. It lands near a nominal size and extends to
// a record boundary (§III-A1's inter-file chunking), or where the content
// says (NewContentDefined, the memo cache's chunking), or at file
// boundaries of several files laid end to end (NewFiles: intra-file
// chunking under a file count, hybrid chunking under a byte size), or at
// the end of the input (NewWholeInput, the traditional runtime's one
// chunk). SplitBuffer cuts an ingested chunk into per-mapper input
// splits.
package chunk

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"supmr/internal/cdc"
)

// Chunk is one ingested unit of input: the unit of the n+1-round SupMR
// pipeline. Data holds the raw bytes after ingest; Files names the input
// files coalesced into the chunk under intra-file chunking.
type Chunk struct {
	Index int
	Data  []byte
	Files []string

	// Sum is the SHA-256 of Data, computed on the ingest path when the
	// stream hashes chunks (content-defined ingest for the memo cache).
	// HasSum distinguishes a real hash from a zero value.
	Sum    [32]byte
	HasSum bool

	backing  []byte        // full pooled buffer backing Data
	free     *FreeList     // freelist to return to on Release; nil when unpooled
	slot     chan struct{} // a read-ahead stream's buffer budget, given back on Release
	readAt   time.Duration // when the read the chunk started from was issued
	readDone time.Duration // when that read's last byte arrived
}

// Size returns the chunk payload size.
func (c *Chunk) Size() int64 { return int64(len(c.Data)) }

// ReadSpan reports when the read this chunk started from was issued and
// when its last byte arrived, on the clock InterFile.SetReadAhead gave;
// zeros for other streams.
func (c *Chunk) ReadSpan() (issued, done time.Duration) { return c.readAt, c.readDone }

// Release returns the chunk's buffer to its stream's freelist once the
// consumer is done with the bytes — after the map wave that ran over
// Data, or after copying Data elsewhere. Nil-safe and idempotent;
// chunks from streams without a fetcher release as a no-op. After
// Release, Data and Files must no longer be read: the buffer and the
// chunk header are reused for a future chunk.
func (c *Chunk) Release() {
	if c == nil {
		return
	}
	f, slot := c.free, c.slot
	c.free, c.slot = nil, nil
	if f != nil {
		c.Data = nil
		f.release(c)
	}
	if slot != nil {
		<-slot // after the buffer is back, so the stream waiting on the slot reuses it
	}
}

// Input is any byte source chunkers can ingest from: a simulated local
// file (storage.File), an HDFS file behind a network link (hdfs.File), or
// anything else with a name, a size and positioned reads.
type Input interface {
	Name() string
	Size() int64
	io.ReaderAt
}

// Stream produces the sequence of ingest chunks. Next performs the
// actual (device-throttled) read, so calling Next concurrently with map
// work is exactly the paper's double-buffering. Implementations are not
// safe for concurrent Next calls; the pipeline has a single ingest thread.
type Stream interface {
	// Next ingests and returns the next chunk, or nil, io.EOF when the
	// input is exhausted.
	Next() (*Chunk, error)
	// TotalBytes returns the total input size in bytes.
	TotalBytes() int64
}

// Boundary knows where records end, so that chunking never separates a
// key or value across chunks. The paper's runtime seeks to the nominal
// chunk size and then extends the split point to the end of the value.
type Boundary interface {
	// Complete reports whether buf ends exactly at a record boundary.
	Complete(buf []byte) bool
	// Scan returns the index just past the first record terminator in p,
	// or -1 if p contains none.
	Scan(p []byte) int
	// Need returns the exact number of extra bytes required to finish the
	// record in progress after cur bytes, or -1 when the answer depends
	// on content (delimiter-terminated records).
	Need(cur int64) int64
}

// NewlineBoundary treats '\n' as the record terminator (word count text).
type NewlineBoundary struct{}

// Complete reports whether buf ends with a newline.
func (NewlineBoundary) Complete(buf []byte) bool {
	return len(buf) == 0 || buf[len(buf)-1] == '\n'
}

// Scan finds the first newline.
func (NewlineBoundary) Scan(p []byte) int {
	if i := bytes.IndexByte(p, '\n'); i >= 0 {
		return i + 1
	}
	return -1
}

// Need is content-dependent for newline records.
func (NewlineBoundary) Need(int64) int64 { return -1 }

// CRLFBoundary treats "\r\n" as the terminator, the terasort convention
// the paper cites ("each key-value pair ... is terminated with \r\n").
type CRLFBoundary struct{}

// Complete reports whether buf ends with \r\n.
func (CRLFBoundary) Complete(buf []byte) bool {
	n := len(buf)
	return n == 0 || (n >= 2 && buf[n-2] == '\r' && buf[n-1] == '\n')
}

// Scan finds the first \r\n pair.
func (CRLFBoundary) Scan(p []byte) int {
	for i := 0; i+1 < len(p); i++ {
		if p[i] == '\r' && p[i+1] == '\n' {
			return i + 2
		}
	}
	return -1
}

// Need is content-dependent for delimiter-terminated records.
func (CRLFBoundary) Need(int64) int64 { return -1 }

// FixedBoundary is for fixed-width records (width bytes each): the extra
// bytes needed after a nominal cut are computable without scanning.
type FixedBoundary struct{ Width int64 }

// Complete reports whether buf is a whole number of records.
func (b FixedBoundary) Complete(buf []byte) bool {
	return b.Width <= 0 || int64(len(buf))%b.Width == 0
}

// Scan returns -1; Need is always exact for fixed-width records.
func (b FixedBoundary) Scan(p []byte) int { return -1 }

// Need returns the bytes required to complete the record in progress.
func (b FixedBoundary) Need(cur int64) int64 {
	if b.Width <= 0 {
		return 0
	}
	return (b.Width - cur%b.Width) % b.Width
}

// extendStep is how many bytes the inter-file chunker reads at a time
// while hunting for the record terminator past the nominal cut, and the
// headroom in front of every read-ahead buffer that receives the carry.
const extendStep = 4096

// toBoundary moves cut (at file offset at) forward to the end of the
// record in progress: exact for fixed-width records, a forward scan —
// one byte of overlap for multi-byte terminators — for the others.
// more appends up to want bytes to buf, none at the end of the input.
func toBoundary(b Boundary, buf []byte, cut int, at int64, more func([]byte, int) ([]byte, error)) ([]byte, int, error) {
	if b.Complete(buf[:cut]) {
		return buf, cut, nil
	}
	var err error
	if need := b.Need(at); need >= 0 {
		cut += int(need)
		for n := len(buf); n < cut; n = len(buf) {
			if buf, err = more(buf, cut-n); err != nil || len(buf) == n {
				break
			}
		}
		return buf, min(cut, len(buf)), err
	}
	for scanFrom := max(cut-1, 0); ; {
		if i := b.Scan(buf[scanFrom:]); i >= 0 {
			return buf, scanFrom + i, nil
		}
		n := len(buf)
		if buf, err = more(buf, extendStep); err != nil || len(buf) == n {
			return buf, len(buf), err
		}
		scanFrom = n - 1
	}
}

// InterFile splits its input into chunks, moving a cut that falls inside
// a record forward to the record's end ("it seeks to the user-defined
// chunk size, checks to see if it is in the middle of a key or value,
// and then continually increases the split point until reaching the end
// of the value", §III-A1). Bytes read past a cut are carried into the
// next chunk, so every input byte crosses the device exactly once.
//
// The input is one file, or several laid end to end under a table that
// names each chunk's files (NewFiles). Streams differ only in where the
// cut lands: at C bytes, the nominal size (NewInterFile); where a gear
// hash puts it (NewContentDefined); at file boundaries (NewFiles); or at
// the end of the input (NewWholeInput). A cut at a file boundary is
// final, and a record extension stops at the end of its file.
//
// Reads run ahead of the cuts: at read-ahead depth d (SetReadAhead; 1 by
// default) the reads for chunks up to index+d-1 are issued before chunk
// index is cut, read k ending at s[k-d+1] + d*C + extendStep, where s[i]
// is chunk i's first byte (i*C before chunk 0) and C the nominal size,
// the content-defined max, NewFiles' byte size or largest group, or the
// whole input — at depth 1, a whole chunk plus the boundary-hunt margin.
// Each read lands in the pooled buffer of the chunk it starts: right
// behind the carry when that is known at issue, behind the headroom the
// carry can reach otherwise.
type InterFile struct {
	file      Input
	names     []string // the file table: file i's name, and
	bounds    []int64  // where it starts and ends in file: bounds[i], bounds[i+1]
	next      int      // the first file no cut has closed
	chunkSize int64
	boundary  Boundary
	cdc       *cdc.Chunker // content-defined cut
	perChunk  int          // file-count cut: files per chunk
	groups    bool         // the table ends the stream: empty files still make chunks
	off       int64        // end of the bytes requested so far
	emitted   int64        // total bytes already emitted in chunks
	carry     []byte       // bytes read past the previous cut (persistent scratch)
	index     int
	fetcher   *Fetcher // optional multi-lane reads + buffer freelist

	depth  int                  // reads kept in flight
	slots  chan struct{}        // one per live buffer; nil: unbudgeted
	now    func() time.Duration // stamps each read's issue and completion; nil: unstamped
	ahead  []inflight           // issued reads, oldest first
	issued int                  // reads sized so far, empty ones included
	skip   int                  // bytes of ahead[0] an earlier cut already took
}

// inflight is one issued read: n bytes landing in ch's buffer after
// head bytes of room for the carry.
type inflight struct {
	ch      *Chunk
	head, n int
	r       *read
}

// SetFetcher installs the multi-lane fetcher subsequent Next calls read
// and pool buffers through.
func (c *InterFile) SetFetcher(f *Fetcher) { c.fetcher = f }

// SetReadAhead keeps up to depth reads in flight (at least one), stamps
// each on now for Chunk.ReadSpan, and budgets reads in flight plus
// chunks not yet released at max(depth, 2) buffers: depth reads are in
// flight while the mappers wait, on the buffers a serial stream uses.
func (c *InterFile) SetReadAhead(depth int, now func() time.Duration) {
	c.depth, c.now = max(depth, 1), now
	c.slots = make(chan struct{}, max(depth, 2))
}

// Drain joins every read still in flight and releases its buffer; the
// SupMR pipeline calls it once it stops reading.
func (c *InterFile) Drain() {
	for _, p := range c.ahead {
		_ = p.r.join() // the job is over; only that no wait outlives it matters
		p.ch.Release()
	}
	c.ahead, c.skip = nil, 0
}

// NewInterFile builds the inter-file chunker. chunkSize is the
// user-specified nominal chunk size in bytes.
func NewInterFile(file Input, chunkSize int64, b Boundary) (*InterFile, error) {
	if file == nil {
		return nil, errors.New("chunk: inter-file chunker requires a file")
	}
	if chunkSize <= 0 {
		return nil, fmt.Errorf("chunk: chunk size must be positive, got %d", chunkSize)
	}
	if b == nil {
		return nil, errors.New("chunk: inter-file chunker requires a boundary")
	}
	return &InterFile{file: file, names: []string{file.Name()}, bounds: []int64{0, file.Size()},
		chunkSize: chunkSize, boundary: b, depth: 1}, nil
}

// NewContentDefined builds the content-defined chunker: an InterFile
// whose cuts the gear-hash policy min/avg/max (in bytes, see cdc.New)
// places, each extended to the end of its record with b, so chunks may
// exceed max by up to one record. Each chunk carries the SHA-256 of its
// payload (Chunk.Sum), hashed on the ingest path. Both steps depend only
// on content at and before the cut, which gives the memoization layer
// its key property: appending bytes to the input, or editing bytes
// within one chunk, changes only the affected chunks' hashes.
func NewContentDefined(file Input, min, avg, max int64, b Boundary) (*InterFile, error) {
	ck, err := cdc.New(int(min), int(avg), int(max))
	if err != nil {
		return nil, err
	}
	c, err := NewInterFile(file, max, b)
	if err != nil {
		return nil, err
	}
	c.cdc = ck
	return c, nil
}

// TotalBytes returns the file size.
func (c *InterFile) TotalBytes() int64 { return c.file.Size() }

// ChunkSize returns the current nominal chunk size.
func (c *InterFile) ChunkSize() int64 { return c.chunkSize }

// SetChunkSize changes the nominal size of subsequent chunks — the hook
// the adaptive chunk-size feedback loop (internal/tuner) drives.
// Non-positive sizes are ignored, and so is any size for a file-count or
// whole-input stream, whose C only sizes reads. A content-defined stream
// is never resized: Memo refuses AdaptiveChunks, so its cuts keep
// following the content alone.
func (c *InterFile) SetChunkSize(n int64) {
	if n > 0 && c.perChunk == 0 {
		c.chunkSize = n
	}
}

// acquire takes a buffer of at least n bytes, first waiting for a
// buffer of the budget to come back when all are live.
func (c *InterFile) acquire(n int64) *Chunk {
	if c.slots != nil {
		c.slots <- struct{}{}
	}
	ch := c.fetcher.acquire(n)
	ch.slot = c.slots
	return ch
}

// readAhead issues the reads chunks index..index+depth-1 start from; a
// read the requested bytes already cover is empty and skipped, and
// nothing is issued past a failed issue. The first read of an empty
// queue is the one the current chunk takes, so it lands right behind
// the carry. A later one is issued before the cut it follows, so it
// leaves room for the most that cut can carry: depth*(C-min) +
// extendStep bytes, min being the shortest cut — C itself for the
// nominal cut, which leaves extendStep.
func (c *InterFile) readAhead() {
	for ; c.issued < c.index+c.depth; c.issued++ {
		if n := len(c.ahead); n > 0 && c.ahead[n-1].r.err != nil {
			return
		}
		end := min(c.file.Size(), c.emitted+int64(c.issued-c.index+1)*c.chunkSize+extendStep)
		if end <= c.off {
			continue
		}
		n, head := int(end-c.off), len(c.carry)
		if len(c.ahead) > 0 {
			head = extendStep
			if c.cdc != nil {
				head += c.depth * (c.cdc.Max - c.cdc.Min)
			}
		}
		ch := c.acquire(max(int64(head+n), c.chunkSize+2*extendStep))
		c.ahead = append(c.ahead, inflight{ch: ch, head: head, n: n,
			r: c.fetcher.issue(c.file, ch.backing[head:head+n], c.off, c.now)})
		c.off = end
	}
}

// take starts the next chunk: the oldest read in flight, joined, with
// the carry copied in front of its bytes — into the room the read left,
// or over bytes an earlier cut copied out already — or, with no read in
// flight, the carry alone. The chunk comes back with a failed join's error.
func (c *InterFile) take() (*Chunk, []byte, error) {
	if len(c.ahead) == 0 {
		ch := c.acquire(c.chunkSize + 2*extendStep)
		return ch, append(ch.backing[:0], c.carry...), nil
	}
	p := c.ahead[0]
	head := p.head + c.skip
	c.ahead, c.skip = c.ahead[1:], 0
	if err := p.r.join(); err != nil {
		return p.ch, nil, err
	}
	ch, tail := p.ch, p.head+p.n
	ch.readAt, ch.readDone = p.r.at, p.r.done
	data := ch.backing[max(head-len(c.carry), 0):tail]
	if len(c.carry) > head { // only after a resize or a record longer than the reads in flight
		data = append(make([]byte, len(c.carry), len(c.carry)+tail-head), ch.backing[head:tail]...)
		ch.backing = data
	}
	copy(data, c.carry)
	return ch, data, nil
}

// more appends up to want bytes to data, the chunk ch is building: the
// head of the oldest read in flight or, with none, a read of its own
// at the end of the bytes requested (depth 1's extension read).
func (c *InterFile) more(ch *Chunk, data []byte, want int) ([]byte, error) {
	n := len(data)
	if want <= 0 {
		return data, nil
	}
	if len(c.ahead) == 0 {
		want = int(min(int64(want), c.file.Size()-c.off))
		if want <= 0 {
			return data, nil
		}
		data = grow(ch, data, want)
		if err := c.fetcher.fetchInto(c.file, data[n:], c.off); err != nil {
			return nil, err
		}
		c.off += int64(want)
		return data, nil
	}
	p := c.ahead[0]
	if err := p.r.join(); err != nil {
		return nil, err
	}
	src := p.ch.backing[p.head+c.skip : p.head+p.n]
	want = min(want, len(src))
	data = grow(ch, data, want)
	copy(data[n:], src)
	if c.skip += want; c.skip == p.n {
		c.ahead, c.skip = c.ahead[1:], 0
		p.ch.Release()
	}
	return data, nil
}

// cut places the cut in data — which holds more than C bytes, or the
// whole rest of the input — and reports how many files of the table,
// from next on, the chunk takes, and whether the cut is final: at a file
// boundary or the end of the input, where no record extension moves it.
func (c *InterFile) cut(data []byte) (cut, files int, final bool) {
	switch {
	case c.cdc != nil:
		cut = c.cdc.Cut(data, true)
		return cut, 1, cut == len(data)
	case c.perChunk > 0:
		files = min(c.perChunk, len(c.names)-c.next)
		return int(c.bounds[c.next+files] - c.emitted), files, true
	case c.bounds[c.next+1]-c.emitted > c.chunkSize:
		return int(c.chunkSize), 1, false
	}
	// The rest of a file being split, or whole files up to C bytes.
	end := c.next + 1
	for c.emitted == c.bounds[c.next] && end < len(c.names) && c.bounds[end+1]-c.emitted <= c.chunkSize {
		end++
	}
	return int(c.bounds[end] - c.emitted), end - c.next, true
}

// done reports whether every chunk is out: every file of the table is
// closed or, unless empty files still make chunks, every byte emitted.
func (c *InterFile) done() bool {
	return c.next == len(c.names) || !c.groups && c.emitted >= c.file.Size()
}

// Next ingests the next chunk: it tops up the reads in flight, takes the
// oldest behind the carry, places the cut and moves it to the first
// record boundary at or past it; bytes past the cut carry into the next
// chunk.
func (c *InterFile) Next() (*Chunk, error) {
	if c.done() {
		return nil, io.EOF
	}
	c.readAhead()
	ch, data, err := c.take()
	more := func(b []byte, want int) ([]byte, error) { return c.more(ch, b, want) }
	limit := int(c.chunkSize)
	// Reach past C: a read sized before a resize, or after a record
	// longer than the reads in flight, may fall short of it.
	for n := len(data); err == nil && n <= limit; n = len(data) {
		if data, err = more(data, limit+extendStep-n); len(data) == n {
			break
		}
	}
	var cut, files int
	if err == nil {
		var final bool
		if cut, files, final = c.cut(data); !final {
			// Extend within the file the cut is in: data may already hold
			// bytes of later files, and the record ends before them.
			lim := int(c.bounds[c.next+1] - c.emitted)
			var ext []byte
			ext, cut, err = toBoundary(c.boundary, data[:min(len(data), lim)], cut, c.emitted+int64(cut)-c.bounds[c.next],
				func(b []byte, want int) ([]byte, error) { return more(b, min(want, lim-len(b))) })
			if len(data) <= lim {
				data = ext
			}
		}
	}
	if err != nil {
		ch.Release()
		return nil, fmt.Errorf("chunk: ingest of chunk %d failed: %w", c.index, err)
	}
	// Copy the remainder into the persistent carry scratch: the chunk's
	// data shares its buffer with the bytes past the cut and is handed
	// to mapper threads that run concurrently with the next ingest.
	c.carry = append(c.carry[:0], data[cut:]...)
	c.emitted += int64(cut)
	ch.Index = c.index
	ch.Data = data[:cut:cut]
	ch.Files = append(ch.Files, c.names[c.next:c.next+files]...)
	if c.emitted >= c.bounds[c.next+files] {
		c.next += files
	}
	if c.cdc != nil {
		ch.Sum, ch.HasSum = sha256.Sum256(ch.Data), true
	}
	c.index++
	return ch, nil
}

// NewFiles builds the multi-file chunker: an InterFile over files laid
// end to end whose chunk closes at every perChunk-th file boundary or,
// with perChunk zero, at the last file boundary within maxBytes. Under a
// file count it is §III-A1's intra-file chunking: 30 files at 4 per
// chunk produce 7 full chunks and one chunk of 2. Under a byte size it
// is the hybrid inter/intra-file chunking §III-A1 mentions but does not
// implement: small files coalesce up to the size and a file larger than
// it is cut as NewInterFile cuts, so chunks have similar sizes whatever
// the file size distribution. A group of empty files is still a chunk.
func NewFiles(in []Input, perChunk int, maxBytes int64, b Boundary) (*InterFile, error) {
	if len(in) == 0 {
		return nil, errors.New("chunk: multi-file chunker requires at least one file")
	}
	if perChunk < 0 || maxBytes < 0 || (perChunk == 0) == (maxBytes == 0) {
		return nil, fmt.Errorf("chunk: a multi-file chunk closes at a positive file count or byte size, not both, got %d files, %d bytes", perChunk, maxBytes)
	}
	f := &files{in: in, bounds: make([]int64, len(in)+1)}
	names := make([]string, len(in))
	for i, g := range in {
		f.bounds[i+1], names[i] = f.bounds[i]+g.Size(), g.Name()
	}
	for i := 0; perChunk > 0 && i < len(in); i += perChunk {
		// Reads are sized for the largest group.
		maxBytes = max(maxBytes, f.bounds[min(i+perChunk, len(in))]-f.bounds[i], 1)
	}
	c, err := NewInterFile(f, maxBytes, b)
	if err != nil {
		return nil, err
	}
	c.names, c.bounds, c.perChunk, c.groups = names, f.bounds, perChunk, true
	return c, nil
}

// files lays inputs end to end as one. A read is one request per file it
// spans, so each file, and the fault site wrapping it, sees its own
// operations.
type files struct {
	in     []Input
	bounds []int64 // where file i starts and ends: bounds[i], bounds[i+1]
}

func (f *files) Name() string { return f.in[0].Name() }
func (f *files) Size() int64  { return f.bounds[len(f.in)] }

func (f *files) ReadAt(p []byte, off int64) (int, error) {
	wait, err := f.IssueReadAt(p, off)
	if err != nil {
		return 0, err
	}
	return wait()
}

// IssueReadAt issues the read's part in each file, in offset order, up
// to a refused issue; a file without the issue/wait split reads its part
// here. The wait counts the bytes before the first part served short or
// failed and returns that part's error, or the refused issue's, as
// readFull would stop there; the fetcher reads the rest again.
func (f *files) IssueReadAt(p []byte, off int64) (func() (int, error), error) {
	var reqs []request
	var err error
	for i, _ := slices.BinarySearch(f.bounds[1:], off+1); len(p) > 0 && i < len(f.in) && err == nil; i++ {
		n, at := int(min(int64(len(p)), f.bounds[i+1]-off)), off-f.bounds[i]
		if n == 0 {
			continue
		}
		q := request{s: seg{buf: p[:n], off: at}}
		if ir, ok := f.in[i].(IssueReader); ok {
			q.wait, err = ir.IssueReadAt(q.s.buf, at)
		} else {
			k, rerr := f.in[i].ReadAt(q.s.buf, at)
			q.wait = func() (int, error) { return k, rerr }
		}
		if err == nil {
			reqs = append(reqs, q)
		}
		p, off = p[n:], off+int64(n)
	}
	if len(reqs) == 0 {
		if err == nil {
			err = io.EOF
		}
		return nil, err
	}
	return func() (got int, _ error) {
		(&read{now: unstamped}).wait(reqs)
		for _, q := range reqs {
			if got += q.n; q.n < len(q.s.buf) {
				return got, q.err
			}
		}
		return got, err
	}, nil
}

// NewWholeInput delivers s's entire input as a single chunk: the
// traditional runtime's ingest phase ("none" rows of Table II). An
// InterFile — every stream this package builds — is returned itself,
// cut at the end of its input, so the input is one read into one pooled
// buffer; call it before the first Next. Any other stream is wrapped in
// one whose Next concatenates everything s produces. It is idempotent.
func NewWholeInput(s Stream) Stream {
	switch w := s.(type) {
	case *InterFile:
		// A file count taking every file, read at once.
		w.perChunk, w.groups, w.cdc, w.chunkSize = len(w.names), false, nil, max(w.file.Size(), 1)
	case *wholeStream:
	default:
		return &wholeStream{inner: s}
	}
	return s
}

// Whole reports whether s's first chunk is its whole input: s is a
// NewWholeInput stream, or an InterFile whose cut closes at the end of
// its input, its C or file count covering all of it.
func Whole(s Stream) bool {
	switch s := s.(type) {
	case *wholeStream:
		return true
	case *InterFile:
		return s.cdc == nil && (s.perChunk >= len(s.names) || s.perChunk == 0 && s.chunkSize >= s.file.Size())
	}
	return false
}

// wholeStream is NewWholeInput over a stream this package did not build.
type wholeStream struct {
	inner Stream
	done  bool
}

func (c *wholeStream) TotalBytes() int64 { return c.inner.TotalBytes() }

// Next ingests the whole input at once into one buffer presized from
// TotalBytes. Files lists every source file once, in first-seen order,
// however many inner chunks it spanned, so chunk-aware applications
// (set_data) see the same attribution as under a chunked stream.
func (c *wholeStream) Next() (*Chunk, error) {
	if c.done {
		return nil, io.EOF
	}
	c.done = true
	var buf []byte
	if total := c.inner.TotalBytes(); total > 0 {
		buf = make([]byte, 0, total)
	}
	var names []string
	seen := make(map[string]bool)
	for {
		ch, err := c.inner.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		buf = append(buf, ch.Data...)
		for _, n := range ch.Files {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
		ch.Release()
	}
	return &Chunk{Data: buf, Files: names}, nil
}

// grow extends data, the chunk ch is building, by n bytes, rebinding
// ch's buffer when the bytes had to move.
func grow(ch *Chunk, data []byte, n int) []byte {
	g := growTo(data, n)
	if cap(g) != cap(data) {
		ch.backing = g
	}
	return g
}

// growTo extends buf by n bytes, reallocating with amortized doubling
// when capacity runs out. Unlike append(buf, make([]byte, n)...), it
// never materializes a temporary n-byte slice.
func growTo(buf []byte, n int) []byte {
	need := len(buf) + n
	if cap(buf) < need {
		c := 2 * cap(buf)
		if c < need {
			c = need
		}
		nb := make([]byte, len(buf), c)
		copy(nb, buf)
		buf = nb
	}
	return buf[:need]
}

// readFull fills buf from f starting at off.
func readFull(f Input, buf []byte, off int64) error {
	for len(buf) > 0 {
		n, err := f.ReadAt(buf, off)
		if n > 0 {
			buf = buf[n:]
			off += int64(n)
			continue
		}
		if err != nil {
			return err
		}
		return io.ErrUnexpectedEOF
	}
	return nil
}

// SplitBuffer cuts an in-memory chunk into at most n input splits on
// record boundaries (the traditional MapReduce input splits mappers work
// on). Splits are views into buf, not copies. All bytes of buf appear in
// exactly one split.
func SplitBuffer(buf []byte, n int, b Boundary) [][]byte {
	if n <= 1 || len(buf) == 0 {
		if len(buf) == 0 {
			return nil
		}
		return [][]byte{buf}
	}
	splits := make([][]byte, 0, n)
	target := len(buf) / n
	if target == 0 {
		target = 1
	}
	start := 0
	for i := 0; i < n-1 && start < len(buf); i++ {
		end := start + target
		if end >= len(buf) {
			break
		}
		// Advance to a record boundary.
		if need := b.Need(int64(end)); need >= 0 {
			end += int(need)
		} else if j := b.Scan(buf[end:]); j >= 0 {
			end += j
		} else {
			end = len(buf)
		}
		if end > len(buf) {
			end = len(buf)
		}
		if end > start {
			splits = append(splits, buf[start:end])
			start = end
		}
	}
	if start < len(buf) {
		splits = append(splits, buf[start:])
	}
	return splits
}

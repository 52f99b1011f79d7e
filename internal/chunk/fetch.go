package chunk

import (
	"io"
	"sync"
)

// IssueReader is the two-phase read contract of the multi-lane ingest
// path, implemented by storage.File, hdfs.File and the fault/retry
// wrappers in internal/faults. IssueReadAt books the read — device
// reservations, fault-injection decisions, retry backoff — on the
// calling goroutine, in call order; the returned wait completes the
// transfer (filling p, sleeping out the device time) and may run on any
// goroutine. A non-nil error means the read failed at issue and no wait
// is returned.
//
// The split is what keeps segmented reads deterministic: the fetcher
// issues every segment serially from the single ingest thread, so the
// per-site operation order any fault plan sees is a pure function of
// the input — independent of how many IO lanes execute the waits.
type IssueReader interface {
	IssueReadAt(p []byte, off int64) (wait func() (int, error), err error)
}

// Dispatch runs fn asynchronously on an IO lane and returns a join
// function that blocks until fn has finished. bytes is the payload size
// for per-lane throughput attribution. A non-nil join error (panic in
// fn, pool shutdown) means fn's effects must be discarded. The SupMR
// pipeline backs Dispatch with exec.Pool.GoIOSized.
type Dispatch func(bytes int64, fn func()) (join func() error)

// minSegment is the smallest read the fetcher will split off: segments
// below this are not worth a lane round-trip.
const minSegment = 4096

// FreeList is the chunk-buffer freelist: released chunks park here and
// back future chunks, so steady-state ingest allocates O(ring depth)
// buffers, not O(chunks). It is safe for concurrent use and may be
// shared across many streams — a multi-job engine hands every job's
// fetcher the same list, so chunk buffers recycle across jobs instead
// of each job growing its own pool. A nil *FreeList allocates fresh
// chunks and drops releases.
type FreeList struct {
	mu     sync.Mutex
	free   []*Chunk
	gets   int64 // chunks handed out
	reuses int64 // handed-out chunks that came from the list
}

// NewFreeList builds an empty freelist.
func NewFreeList() *FreeList { return &FreeList{} }

// Stats reports chunks handed out and how many were recycled buffers.
func (l *FreeList) Stats() (gets, reuses int64) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gets, l.reuses
}

// Parked reports how many released chunks wait in the list. Once every
// chunk handed out has been released it equals gets - reuses: each
// buffer the list ever allocated is back.
func (l *FreeList) Parked() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}

// acquire returns a pooled chunk whose backing buffer has at least
// capHint capacity, allocating one when the list is empty.
func (l *FreeList) acquire(capHint int64) *Chunk {
	if l == nil {
		return &Chunk{}
	}
	l.mu.Lock()
	var c *Chunk
	if n := len(l.free); n > 0 {
		c = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.reuses++
	}
	l.gets++
	l.mu.Unlock()
	if c == nil {
		c = &Chunk{}
	}
	if int64(cap(c.backing)) < capHint {
		c.backing = make([]byte, 0, capHint)
	}
	c.Data = nil
	// Files gets a fresh slice per chunk, never a truncated reuse:
	// applications may retain it past the map wave (the inverted index
	// emits it into the container as posting lists).
	c.Files = nil
	c.HasSum = false
	c.free = l
	return c
}

// release returns a chunk to the list (called via Chunk.Release).
func (l *FreeList) release(c *Chunk) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.free = append(l.free, c)
	l.mu.Unlock()
}

// Fetcher gives chunkers striped multi-lane reads and a chunk-buffer
// freelist. A nil *Fetcher (the default everywhere) degrades every
// method to the original single-stream, freshly-allocated behaviour, so
// streams carry one unconditionally.
//
// Buffer lifecycle: chunkers acquire a pooled chunk per Next, fill its
// backing buffer, and emit it; the consumer calls Chunk.Release when
// the map wave is done with the bytes, returning the buffer for a
// future chunk.
type Fetcher struct {
	lanes    int
	dispatch Dispatch
	list     *FreeList
}

// NewFetcher builds a fetcher reading across lanes IO lanes through
// dispatch, with a private freelist. lanes <= 1 or a nil dispatch
// disables segmentation but keeps the buffer freelist.
func NewFetcher(lanes int, dispatch Dispatch) *Fetcher {
	return NewFetcherShared(lanes, dispatch, NewFreeList())
}

// NewFetcherShared is NewFetcher over a caller-owned freelist, the
// multi-job configuration: every job's fetcher draws from and releases
// to the same list.
func NewFetcherShared(lanes int, dispatch Dispatch, list *FreeList) *Fetcher {
	if lanes < 1 {
		lanes = 1
	}
	return &Fetcher{lanes: lanes, dispatch: dispatch, list: list}
}

// Lanes returns the fetcher's lane count (1 for a nil fetcher).
func (f *Fetcher) Lanes() int {
	if f == nil {
		return 1
	}
	return f.lanes
}

// acquire returns a pooled chunk whose backing buffer has at least
// capHint capacity, allocating one when the freelist is empty.
func (f *Fetcher) acquire(capHint int64) *Chunk {
	if f == nil {
		return &Chunk{}
	}
	return f.list.acquire(capHint)
}

// seg is one outstanding portion of a segmented read.
type seg struct {
	buf []byte
	off int64
}

// fetchInto fills buf from in starting at off. With a single lane (or
// no dispatch, or a nil fetcher) it is exactly the serial readFull;
// otherwise buf is split into up to Lanes segments whose waits execute
// concurrently across the IO lanes while every issue — including
// short-read remainders — happens here, serially, in offset order.
//
// Error semantics mirror readFull: a read that made progress has its
// remainder retried regardless of the error; a read that returned zero
// bytes fails the fetch (io.ErrUnexpectedEOF when it reported no
// error). When several segments fail in one round the lowest-offset
// failure wins, which is the same error the serial path would have hit
// first — and, like the serial path, segments past a failed issue are
// never issued.
func (f *Fetcher) fetchInto(in Input, buf []byte, off int64) error {
	if f == nil || f.lanes <= 1 || f.dispatch == nil || len(buf) < 2*minSegment {
		return readFull(in, buf, off)
	}
	ir, _ := in.(IssueReader)
	if ir == nil {
		// No issue/wait split: the input cannot guarantee a deterministic
		// operation order under concurrency, so read it serially.
		return readFull(in, buf, off)
	}

	work := splitSegments(buf, off, f.lanes)
	for len(work) > 0 {
		type flight struct {
			s    seg
			n    int
			err  error
			join func() error
		}
		// Fixed capacity: dispatched closures hold pointers into this
		// slice, so it must never reallocate.
		flights := make([]flight, 0, len(work))
		var issueErr error
		for _, s := range work {
			wait, err := ir.IssueReadAt(s.buf, s.off)
			if err != nil {
				issueErr = err
				break
			}
			flights = append(flights, flight{s: s})
			fl := &flights[len(flights)-1]
			fl.join = f.dispatch(int64(len(s.buf)), func() { fl.n, fl.err = wait() })
		}
		// Join every dispatched wait before touching buf or returning:
		// segment waits write into the caller's buffer and must not
		// outlive this call, error or not.
		for i := range flights {
			if jErr := flights[i].join(); jErr != nil {
				flights[i].n, flights[i].err = 0, jErr
			}
		}
		if issueErr != nil {
			return issueErr
		}
		next := work[:0]
		for i := range flights {
			fl := &flights[i]
			switch {
			case fl.n >= len(fl.s.buf):
				// Segment complete.
			case fl.n > 0:
				next = append(next, seg{buf: fl.s.buf[fl.n:], off: fl.s.off + int64(fl.n)})
			case fl.err != nil:
				return fl.err
			default:
				return io.ErrUnexpectedEOF
			}
		}
		work = next
	}
	return nil
}

// splitSegments cuts [off, off+len(buf)) into at most lanes segments of
// near-equal size, each at least minSegment bytes, in offset order.
func splitSegments(buf []byte, off int64, lanes int) []seg {
	n := len(buf)
	if max := n / minSegment; lanes > max {
		lanes = max
	}
	if lanes < 1 {
		lanes = 1
	}
	segs := make([]seg, 0, lanes)
	start := 0
	for i := 0; i < lanes; i++ {
		end := n * (i + 1) / lanes
		if end <= start {
			continue
		}
		segs = append(segs, seg{buf: buf[start:end], off: off + int64(start)})
		start = end
	}
	return segs
}

// FetcherAware is implemented by streams that can ingest through a
// Fetcher; the SupMR pipeline installs one before the first Next.
type FetcherAware interface {
	SetFetcher(*Fetcher)
}

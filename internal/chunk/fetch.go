package chunk

import (
	"io"
	"sync"
	"time"
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
// issues every request serially from the single ingest thread, so the
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

// maxRequest caps one device request of a multi-lane read. A member
// disk finishes a lone request at its single-stream rate, so a lane's
// share goes out as several requests, all issued before any is waited,
// and each member's queue stays full while the lane waits them in turn.
const maxRequest = 128 << 10

// FreeList is the chunk-buffer freelist: released chunks park here and
// back future chunks, so steady-state ingest allocates O(read-ahead
// depth) buffers, not O(chunks). It is safe for concurrent use and may be
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
		return &Chunk{backing: make([]byte, 0, capHint)}
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
	c.readAt, c.readDone = 0, 0
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
// freelist. A multi-lane read is split into one share per lane, and
// each share into requests of at most maxRequest bytes, issued together
// so the device always has several to serve; with one lane a read stays
// one request. A nil *Fetcher (the default everywhere) degrades every
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

// acquire returns a pooled chunk whose backing buffer has at least
// capHint capacity, allocating one when the freelist is empty.
func (f *Fetcher) acquire(capHint int64) *Chunk {
	if f == nil {
		return (*FreeList)(nil).acquire(capHint)
	}
	return f.list.acquire(capHint)
}

// seg is one portion of a read: a lane's share, or one request of it.
type seg struct {
	buf []byte
	off int64
}

// read is one issued fetch: its requests are on the device and their
// waits on the IO lanes until join completes it.
type read struct {
	f        *Fetcher
	ir       IssueReader
	now      func() time.Duration // stamps at and done
	lanes    []lane
	err      error         // a refused issue, a failed request, or readFull's error
	at, done time.Duration // when the read was issued and its last wait returned
}

// lane is one IO lane's requests of a round and the join of the single
// dispatch that waits them.
type lane struct {
	reqs []request
	join func() error
}

// request is one issued device request and what its wait returned.
type request struct {
	s    seg
	wait func() (int, error)
	n    int
	err  error
	at   time.Duration // when the wait returned
}

// fetchInto fills buf from in starting at off: an issue joined at once.
func (f *Fetcher) fetchInto(in Input, buf []byte, off int64) error {
	return f.issue(in, buf, off, nil).join()
}

// issue starts filling buf from in at off and returns at once; join
// completes the read. buf is split into up to Lanes shares, and with
// more than one lane each share into requests of maxRequest bytes and
// a shorter last one; one lane keeps one request per read. Every
// request is issued here — serially, in offset order, on the calling
// goroutine — and each lane's requests are then waited by one
// dispatch. Without a dispatch, on a nil fetcher, or from an input
// without the issue/wait split (which cannot promise a deterministic
// operation order under concurrency) the read is the serial readFull,
// done here. now, when set, stamps the read's issue and completion
// times.
func (f *Fetcher) issue(in Input, buf []byte, off int64, now func() time.Duration) *read {
	if now == nil {
		now = unstamped
	}
	r := &read{f: f, now: now, at: now()}
	if r.ir, _ = in.(IssueReader); f == nil || f.dispatch == nil || r.ir == nil {
		r.err = readFull(in, buf, off)
		r.done = now()
		return r
	}
	shares := splitSegments(buf, off, f.lanes)
	work := make([][]seg, len(shares))
	for i, s := range shares {
		if f.lanes <= 1 {
			work[i] = shares[i : i+1]
			continue
		}
		for o := 0; o < len(s.buf); o += maxRequest {
			work[i] = append(work[i], seg{buf: s.buf[o:min(o+maxRequest, len(s.buf))], off: s.off + int64(o)})
		}
	}
	r.round(work)
	return r
}

// round issues work, one list of requests per lane, serially in offset
// order, and then dispatches each lane's waits as one task. As on the
// serial path nothing past a failed issue is issued; the requests
// before it are still dispatched, so join waits them.
func (r *read) round(work [][]seg) {
	n := 0
	for _, w := range work {
		n += len(w)
	}
	// One array backs every lane's requests.
	reqs := make([]request, 0, n)
	r.lanes = make([]lane, 0, len(work))
	for _, w := range work {
		start, failed := len(reqs), false
		for _, s := range w {
			wait, err := r.ir.IssueReadAt(s.buf, s.off)
			if err != nil {
				r.err, failed = err, true
				break
			}
			reqs = append(reqs, request{s: s, wait: wait})
		}
		if len(reqs) > start {
			r.lanes = append(r.lanes, lane{reqs: reqs[start:len(reqs):len(reqs)]})
		}
		if failed {
			break
		}
	}
	for i := range r.lanes {
		l := &r.lanes[i]
		var bytes int64
		for _, q := range l.reqs {
			bytes += int64(len(q.s.buf))
		}
		reqs := l.reqs
		l.join = r.f.dispatch(bytes, func() { r.wait(reqs) })
	}
}

// wait runs one lane's waits in offset order. A wait that panics fails
// the lane, but only after the waits behind it have run too: every
// issued request is waited before its read completes.
func (r *read) wait(reqs []request) {
	i := 0
	defer func() {
		for i++; i < len(reqs); i++ {
			reqs[i].wait()
		}
	}()
	for ; i < len(reqs); i++ {
		q := &reqs[i]
		q.n, q.err = q.wait()
		q.at = r.now()
	}
}

// join completes the read and returns its error; it is idempotent.
// Every dispatched wait is joined before any result is looked at —
// waits write into the caller's buffer and must not outlive the read —
// and short-read remainders are issued in further rounds, here, each
// lane's on that lane. Errors are readFull's: a request that made
// progress has its remainder retried regardless of the error, one that
// returned zero bytes fails the read (io.ErrUnexpectedEOF when it
// reported no error), and the lowest-offset failure wins, a failed
// issue included.
func (r *read) join() error {
	for len(r.lanes) > 0 {
		lanes := r.lanes
		r.lanes = nil
		for _, l := range lanes {
			jErr := l.join()
			for i := range l.reqs {
				if jErr != nil {
					l.reqs[i].n, l.reqs[i].err = 0, jErr
				}
				r.done = max(r.done, l.reqs[i].at)
			}
		}
		var next [][]seg
		for _, l := range lanes {
			var rest []seg
			for _, q := range l.reqs {
				switch {
				case q.n >= len(q.s.buf):
					// Request complete.
				case q.n > 0:
					rest = append(rest, seg{buf: q.s.buf[q.n:], off: q.s.off + int64(q.n)})
				case q.err != nil:
					r.err = q.err
					return r.err
				default:
					r.err = io.ErrUnexpectedEOF
					return r.err
				}
			}
			if len(rest) > 0 {
				next = append(next, rest)
			}
		}
		if len(next) > 0 {
			r.round(next)
		}
	}
	return r.err
}

// unstamped is the clock of a read nothing times.
func unstamped() time.Duration { return 0 }

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
// Fetcher, installed before the first Next: InterFile, which the SupMR
// pipeline gives one.
type FetcherAware interface {
	SetFetcher(*Fetcher)
}

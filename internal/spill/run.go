package spill

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"supmr/internal/metrics"
	"supmr/internal/storage"
)

// Run file framing: a run is a flat sequence of records, each
//
//	uvarint keyLen | keyLen bytes | uvarint valLen | valLen bytes
//
// with no per-run header — the store's run table carries the size and
// record count. Records are appended in key order, so a reader streams
// the run back as a sorted source for the external merge.

// NewRun starts writing one run. The caller appends records in key
// order and must Close the writer to publish the run.
func (s *Store) NewRun() (*RunWriter, error) {
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.mu.Unlock()
	data, err := s.backing.NewRun(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.open = append(s.open, data)
	s.mu.Unlock()
	return &RunWriter{s: s, id: id, data: data}, nil
}

// RunWriter streams one run into the store: records accumulate in a
// block-sized buffer that is flushed to the backing as it fills, and
// Close charges the device write path for the whole run. It is used by
// a single goroutine (the pool's IO worker).
type RunWriter struct {
	s       *Store
	id      int
	data    RunData
	buf     []byte
	flushed int64 // bytes already handed to the backing
	records int64
	err     error
}

// WriteRecord appends one key-value record.
func (w *RunWriter) WriteRecord(key, val []byte) error {
	if w.err != nil {
		return w.err
	}
	w.buf = binary.AppendUvarint(w.buf, uint64(len(key)))
	w.buf = append(w.buf, key...)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(val)))
	w.buf = append(w.buf, val...)
	w.records++
	if int64(len(w.buf)) >= w.s.blockSize {
		return w.flush(int64(len(w.buf)) / w.s.blockSize * w.s.blockSize)
	}
	return nil
}

// flush hands the first n buffered bytes to the backing, one block per
// write from a cursor, and then moves the unwritten tail — less than a
// block — to the front once.
func (w *RunWriter) flush(n int64) error {
	for at := int64(0); at < n; at += w.s.blockSize {
		end := min(at+w.s.blockSize, n)
		if _, err := w.data.WriteAt(w.buf[at:end], w.flushed); err != nil {
			w.err = fmt.Errorf("spill: write run %d: %w", w.id, err)
			return w.err
		}
		w.flushed += end - at
	}
	w.buf = w.buf[:copy(w.buf, w.buf[n:])]
	return nil
}

// Close flushes the tail, charges the device write path for the run
// (block-granular reservations, slept on the device clock — this is the
// IO-wait the spill lane shows), and publishes the run in the store.
func (w *RunWriter) Close() (*Run, error) {
	if w.err != nil {
		return nil, w.err
	}
	if len(w.buf) > 0 {
		if err := w.flush(int64(len(w.buf))); err != nil {
			return nil, err
		}
	}
	size := w.flushed
	s := w.s
	s.mu.Lock()
	base := s.nextOff
	s.nextOff += size
	s.mu.Unlock()
	// Reserve the run's extent block by block so device Write counters
	// reflect the real request count, then sleep once on the final
	// deadline — FIFO devices make the two equivalent in time.
	deadline := s.dev.Clock().Now()
	for off := int64(0); off < size; off += s.blockSize {
		n := s.blockSize
		if rem := size - off; n > rem {
			n = rem
		}
		if d := storage.ReserveWrite(s.dev, base+off, n); d > deadline {
			deadline = d
		}
	}
	s.dev.Clock().SleepUntil(deadline)
	run := &Run{id: w.id, devOff: base, size: size, records: w.records, data: w.data}
	s.mu.Lock()
	s.stats.Runs++
	s.stats.Bytes += size
	s.stats.Records += w.records
	s.series = append(s.series, metrics.SeriesPoint{T: s.dev.Clock().Now(), V: s.stats.Bytes})
	s.mu.Unlock()
	return run, nil
}

// OpenRun returns a streaming reader over a completed run. Reads are
// charged to the device block by block as the reader advances.
func (s *Store) OpenRun(r *Run) *RunReader {
	return &RunReader{s: s, run: r}
}

// RunReader streams a run back one device block at a time. A block
// read has two halves, as in chunk.Fetcher: issue reserves the block on
// the store's device — the operation a fault plan sees at the spill
// site, so callers issue in an order that is a pure function of the
// input — and fill waits out the reservation and copies the bytes in,
// which may run on another goroutine. The buffer is refilled in place:
// the undecoded tail moves to the front and the block lands behind it,
// so a run costs O(1) buffers however many blocks it spans. Records are
// parsed from the buffer; key/val views are valid until the next fill.
type RunReader struct {
	s      *Store
	run    *Run
	buf    []byte
	pos    int   // first undecoded byte of buf
	issued int64 // run bytes reserved on the device so far
	filled int64 // run bytes copied into buf so far
}

// blockRead is one issued, not yet filled block read.
type blockRead struct {
	n        int64
	deadline time.Duration
}

// more reports whether part of the run is still unissued.
func (r *RunReader) more() bool { return r.issued < r.run.size }

// issue reserves the run's next block on the device.
func (r *RunReader) issue() (blockRead, error) {
	n := min(r.s.blockSize, r.run.size-r.issued)
	dl, err := storage.TryReserve(r.s.dev, r.run.devOff+r.issued, n)
	if err != nil {
		return blockRead{}, fmt.Errorf("spill: read run %d: %w", r.run.id, err)
	}
	r.issued += n
	return blockRead{n: n, deadline: dl}, nil
}

// fill completes an issued read: it sleeps to the reservation's
// deadline and appends the block behind the undecoded tail.
func (r *RunReader) fill(b blockRead) error {
	r.s.dev.Clock().SleepUntil(b.deadline)
	tail := copy(r.buf, r.buf[r.pos:])
	r.pos = 0
	need := tail + int(b.n)
	if cap(r.buf) < need {
		// A block plus slack for a record's tail is the steady state; a
		// record longer than that doubles the buffer until it fits.
		grown := make([]byte, need, max(need+need/8, 2*cap(r.buf)))
		copy(grown, r.buf[:tail])
		r.buf = grown
	}
	r.buf = r.buf[:need]
	if err := readFull(r.run.data, r.buf[tail:], r.filled); err != nil {
		r.buf = r.buf[:tail]
		return fmt.Errorf("spill: read run %d: %w", r.run.id, err)
	}
	r.filled += b.n
	return nil
}

// readFull fills buf from data at off, looping over short reads (a
// degraded backing may deliver a prefix with a nil error).
func readFull(data RunData, buf []byte, off int64) error {
	for len(buf) > 0 {
		n, err := data.ReadAt(buf, off)
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

// field parses one length-prefixed field from p, the buffered bytes at
// the cursor. ok is false when p ends inside the field. A valid length
// never exceeds what is left of the run; checking that first keeps a
// corrupt (e.g. fuzzed) prefix from forcing a giant buffer.
func (r *RunReader) field(p []byte) (f []byte, size int, ok bool, err error) {
	u, n := binary.Uvarint(p)
	if n == 0 && len(p) < binary.MaxVarintLen64 {
		return nil, 0, false, nil
	}
	if n <= 0 {
		return nil, 0, false, fmt.Errorf("spill: run %d: length prefix overflows uvarint", r.run.id)
	}
	// Unsigned compare: a length >= 2^63 must not wrap negative.
	if left := (r.run.size - r.filled) + int64(len(p)-n); u > uint64(left) {
		return nil, 0, false, fmt.Errorf("spill: run %d: field length %d exceeds remaining %d bytes", r.run.id, u, left)
	}
	if uint64(len(p)-n) < u {
		return nil, 0, false, nil
	}
	return p[n : n+int(u)], n + int(u), true, nil
}

// buffered returns the next record if the buffer holds all of it,
// without touching the device; ok is false when it does not.
func (r *RunReader) buffered() (key, val []byte, ok bool, err error) {
	p := r.buf[r.pos:]
	key, kn, ok, err := r.field(p)
	if !ok {
		return nil, nil, false, err
	}
	val, vn, ok, err := r.field(p[kn:])
	if !ok {
		return nil, nil, false, err
	}
	r.pos += kn + vn
	return key, val, true, nil
}

// atEnd reports, once the buffer holds no whole record, how the run
// ends: io.EOF on a record boundary, io.ErrUnexpectedEOF inside a
// record, nil while blocks remain.
func (r *RunReader) atEnd() error {
	switch {
	case r.more():
		return nil
	case r.pos == len(r.buf):
		return io.EOF
	}
	return fmt.Errorf("spill: run %d: %w", r.run.id, io.ErrUnexpectedEOF)
}

// ReadRecord returns the next record, or io.EOF at the clean end of the
// run, reading blocks on demand. key and val are views into an internal
// buffer, valid only until the next call.
func (r *RunReader) ReadRecord() (key, val []byte, err error) {
	for {
		key, val, ok, err := r.buffered()
		if ok || err != nil {
			return key, val, err
		}
		if err := r.atEnd(); err != nil {
			return nil, nil, err
		}
		b, err := r.issue()
		if err != nil {
			return nil, nil, err
		}
		if err := r.fill(b); err != nil {
			return nil, nil, err
		}
	}
}

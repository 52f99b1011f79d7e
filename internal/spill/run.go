package spill

import (
	"fmt"
	"io"
	"time"

	"supmr/internal/metrics"
	"supmr/internal/storage"
)

// A run has no header — the store's run table carries the size and
// record count — only records (see AppendRecord), appended in key
// order, so a reader streams the run back as a sorted source for the
// external merge.

// NewRun starts writing one run. The caller appends records in key
// order and must Close the writer to publish the run. The run's ID is
// taken first and spent even if the backing fails, so IDs, and the
// fault sites named after them, follow the order of attempts.
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
	s.open[id] = data
	s.mu.Unlock()
	return &RunWriter{s: s, id: id, data: data}, nil
}

// WriteRun stores payload, records already framed by AppendRecord, as
// one run: a single backing write (none for an empty payload), then
// the device charge RunWriter's Close makes. A failed write spends its
// run ID but releases its backing and allocates no device extent.
func (s *Store) WriteRun(payload []byte, records int64) (*Run, error) {
	w, err := s.NewRun()
	if err != nil {
		return nil, err
	}
	if len(payload) == 0 {
		return s.publish(w.id, w.data, 0, records), nil
	}
	if _, err := w.data.WriteAt(payload, 0); err != nil {
		s.release(w.id)
		return nil, fmt.Errorf("spill: write run %d: %w", w.id, err)
	}
	return s.publish(w.id, w.data, int64(len(payload)), records), nil
}

// ReadRun reads a whole run back in one piece: it reserves every block
// of the run's extent in order — the fallible step, where a fault plan
// sees the reads — sleeps once on the latest deadline, then copies the
// payload out of the backing.
func (s *Store) ReadRun(r *Run) ([]byte, error) {
	deadline, err := s.reserve(r.devOff, r.size, false)
	if err != nil {
		return nil, fmt.Errorf("spill: read run %d: %w", r.id, err)
	}
	s.dev.Clock().SleepUntil(deadline)
	buf := make([]byte, r.size)
	if err := ReadFull(r.data, buf, 0); err != nil {
		return nil, fmt.Errorf("spill: read run %d: %w", r.id, err)
	}
	return buf, nil
}

// publish gives a fully written run its device extent, right behind
// the last published run, charges the device write path for it — the
// IO-wait the spill lane shows — and enters it in the store's counters.
func (s *Store) publish(id int, data RunData, size, records int64) *Run {
	s.mu.Lock()
	base := s.nextOff
	s.nextOff += size
	s.mu.Unlock()
	deadline, _ := s.reserve(base, size, true)
	s.dev.Clock().SleepUntil(deadline)
	s.mu.Lock()
	s.stats.Runs++
	s.stats.Bytes += size
	s.stats.Records += records
	s.series = append(s.series, metrics.SeriesPoint{T: s.dev.Clock().Now(), V: s.stats.Bytes})
	s.mu.Unlock()
	return &Run{id: id, devOff: base, size: size, records: records, data: data}
}

// reserve books the extent [base, base+size) on the device one block
// at a time, in offset order, so device counters see the real request
// count, and returns the latest deadline: FIFO devices make one sleep
// on it equal to sleeping block by block. Writes go through the write
// path, which cannot fail; a read's reservation can.
func (s *Store) reserve(base, size int64, write bool) (time.Duration, error) {
	deadline := s.dev.Clock().Now()
	for off := int64(0); off < size; off += s.blockSize {
		n := min(s.blockSize, size-off)
		var dl time.Duration
		if write {
			dl = storage.ReserveWrite(s.dev, base+off, n)
		} else {
			var err error
			if dl, err = storage.TryReserve(s.dev, base+off, n); err != nil {
				return 0, err
			}
		}
		deadline = max(deadline, dl)
	}
	return deadline, nil
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
	w.buf = AppendRecord(w.buf, key, val)
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
// and publishes it in the store.
func (w *RunWriter) Close() (*Run, error) {
	if w.err != nil {
		return nil, w.err
	}
	if len(w.buf) > 0 {
		if err := w.flush(int64(len(w.buf))); err != nil {
			return nil, err
		}
	}
	return w.s.publish(w.id, w.data, w.flushed, w.records), nil
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
	if err := ReadFull(r.run.data, r.buf[tail:], r.filled); err != nil {
		r.buf = r.buf[:tail]
		return fmt.Errorf("spill: read run %d: %w", r.run.id, err)
	}
	r.filled += b.n
	return nil
}

// ReadFull fills buf from r at off, looping over short reads (a
// degraded backing may deliver a prefix with a nil error).
func ReadFull(r io.ReaderAt, buf []byte, off int64) error {
	for len(buf) > 0 {
		n, err := r.ReadAt(buf, off)
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

// buffered returns the next record if the buffer holds all of it,
// without touching the device; ok is false when it does not. A record
// may span what is buffered plus the run bytes not yet filled.
func (r *RunReader) buffered() (key, val []byte, ok bool, err error) {
	p := r.buf[r.pos:]
	key, val, n, err := CutRecord(p, r.run.size-r.filled+int64(len(p)))
	switch err {
	case nil:
		r.pos += n
		return key, val, true, nil
	case ErrShortRecord:
		return nil, nil, false, nil
	}
	return nil, nil, false, fmt.Errorf("%w in run %d", err, r.run.id)
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

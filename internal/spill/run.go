package spill

import (
	"encoding/binary"
	"fmt"
	"io"

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
	for int64(len(w.buf)) >= w.s.blockSize {
		if err := w.flush(w.s.blockSize); err != nil {
			return err
		}
	}
	return nil
}

// flush hands the first n buffered bytes to the backing.
func (w *RunWriter) flush(n int64) error {
	if _, err := w.data.WriteAt(w.buf[:n], w.flushed); err != nil {
		w.err = fmt.Errorf("spill: write run %d: %w", w.id, err)
		return w.err
	}
	w.flushed += n
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

// RunReader decodes a run record by record, refilling a block-sized
// buffer from the backing (and charging the device read path) as it
// drains. Returned key/val slices are valid only until the next
// ReadRecord call.
type RunReader struct {
	s       *Store
	run     *Run
	buf     []byte
	pos     int   // consume position within buf
	keep    int   // earliest buf index still referenced (-1: none), pinned across refills
	fetched int64 // run bytes pulled from the backing so far
}

// remaining returns the undecoded bytes left in the run.
func (r *RunReader) remaining() int64 {
	return (r.run.size - r.fetched) + int64(len(r.buf)-r.pos)
}

// ensure makes at least n bytes available at r.pos, refilling from the
// backing. It reports io.ErrUnexpectedEOF if the run ends first.
// Compaction preserves everything from r.keep on (when set), so a field
// view taken earlier in the current record survives the refill.
func (r *RunReader) ensure(n int) error {
	for len(r.buf)-r.pos < n {
		if r.fetched >= r.run.size {
			return io.ErrUnexpectedEOF
		}
		// Compact (down to the pinned index) and refill one block.
		base := r.pos
		if r.keep >= 0 && r.keep < base {
			base = r.keep
		}
		r.buf = r.buf[:copy(r.buf, r.buf[base:])]
		r.pos -= base
		if r.keep >= 0 {
			r.keep -= base
		}
		chunk := r.s.blockSize
		if rem := r.run.size - r.fetched; chunk > rem {
			chunk = rem
		}
		dl, err := storage.TryReserve(r.s.dev, r.run.devOff+r.fetched, chunk)
		if err != nil {
			return fmt.Errorf("spill: read run %d: %w", r.run.id, err)
		}
		r.s.dev.Clock().SleepUntil(dl)
		at := len(r.buf)
		r.buf = append(r.buf, make([]byte, chunk)...)
		if err := readFull(r.run.data, r.buf[at:], r.fetched); err != nil {
			return fmt.Errorf("spill: read run %d: %w", r.run.id, err)
		}
		r.fetched += chunk
	}
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

// uvarint decodes one length prefix at the cursor.
func (r *RunReader) uvarint() (uint64, error) {
	for width := 1; ; width++ {
		if err := r.ensure(width); err != nil {
			return 0, err
		}
		if r.buf[r.pos+width-1] < 0x80 {
			u, n := binary.Uvarint(r.buf[r.pos : r.pos+width])
			if n <= 0 {
				return 0, fmt.Errorf("spill: run %d: corrupt length prefix", r.run.id)
			}
			r.pos += n
			return u, nil
		}
		if width == binary.MaxVarintLen64 {
			return 0, fmt.Errorf("spill: run %d: length prefix overflows uvarint", r.run.id)
		}
	}
}

// fieldLen decodes one length prefix and buffers that many bytes at the
// cursor. A valid length never exceeds what is left of the run;
// checking first keeps corrupt (e.g. fuzzed) prefixes from forcing a
// giant buffer allocation.
func (r *RunReader) fieldLen() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()) { // unsigned: a length >= 2^63 must not wrap negative
		return 0, fmt.Errorf("spill: run %d: field length %d exceeds remaining %d bytes", r.run.id, n, r.remaining())
	}
	if err := r.ensure(int(n)); err != nil {
		return 0, err
	}
	return int(n), nil
}

// ReadRecord returns the next record, or io.EOF at the clean end of the
// run. key and val are views into an internal buffer, valid only until
// the next call.
func (r *RunReader) ReadRecord() (key, val []byte, err error) {
	if r.pos >= len(r.buf) && r.fetched >= r.run.size {
		return nil, nil, io.EOF
	}
	r.keep = -1
	kl, err := r.fieldLen()
	if err != nil {
		return nil, nil, err
	}
	// Pin the key bytes: decoding the value may refill (and compact) the
	// buffer, and the key view must survive it.
	r.keep = r.pos
	r.pos += kl
	vl, err := r.fieldLen()
	if err != nil {
		r.keep = -1
		return nil, nil, err
	}
	val = r.buf[r.pos : r.pos+vl]
	r.pos += vl
	key = r.buf[r.keep : r.keep+kl]
	r.keep = -1
	return key, val, nil
}

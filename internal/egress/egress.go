package egress

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"supmr/internal/exec"
	"supmr/internal/faults"
	"supmr/internal/metrics"
	"supmr/internal/spill"
	"supmr/internal/storage"
)

// DefaultExtentBytes is the extent size when Config.ExtentBytes is 0.
const DefaultExtentBytes = 256 << 10

// Config describes one parallel egress.
type Config struct {
	// Pool dispatches extent writes onto the IO lanes. Required.
	Pool exec.Executor
	// Lanes bounds how many extent writes are in flight at once:
	// the egress "parallel restore" width. <= 1 is the serial writer —
	// extents written strictly one after another — which the manifest
	// guarantees is byte-identical to any wider setting.
	Lanes int
	// ExtentBytes is the extent size (DefaultExtentBytes when 0).
	ExtentBytes int64
	// Device, when set, charges each extent write's IO time through the
	// device write path, so egress contends for the same simulated
	// bandwidth as ingest and spill. Nil models a free output device.
	Device storage.Device
	// Backing holds extent payloads (spill.MemBacking when nil).
	Backing spill.Backing
	// Injector, when set, wraps each extent's payload as fault site
	// "egress<i>": write faults tear the extent mid-write. Sites are
	// per-extent, so the fault schedule is a pure function of the plan
	// and the extent sequence — independent of lane interleaving.
	Injector *faults.Injector
	// Retry recovers transient extent faults by rewriting the whole
	// extent (the payload is retained until the write verifies), with
	// the policy's capped backoff on Clock. The zero policy fails on
	// the first fault.
	Retry faults.RetryPolicy
	// Clock times retry backoff; defaults to Device's clock, else real.
	Clock storage.Clock
	// Counters receives retry/recover counts (may be nil).
	Counters *faults.Counters
	// Name names the materialized output (default "egress").
	Name string
}

// extent is one dispatched output extent.
type extent struct {
	data spill.RunData // raw payload storage, read by Output after the write verifies
	len  int64
	crc  uint32
}

// Writer cuts the encoded output stream into fixed-size extents and
// writes them concurrently. The caller streams the output through
// Write from a single goroutine; Close flushes the tail extent, joins
// every in-flight write and returns the stitched Output. Extent
// boundaries depend only on the byte stream and ExtentBytes, so the
// manifest — and the stitched bytes — are identical at any lane count.
type Writer struct {
	cfg     Config
	retrier *faults.Retrier
	cur     []byte
	extents []extent
	pending []*exec.Handle // in-flight extent writes, oldest first
	total   int64
	err     error // first dispatch/write error; poisons further dispatch
	closed  bool
}

// NewWriter builds a Writer over cfg.
func NewWriter(cfg Config) (*Writer, error) {
	if cfg.Pool == nil {
		return nil, errors.New("egress: writer requires an executor pool")
	}
	if cfg.ExtentBytes < 0 {
		return nil, fmt.Errorf("egress: extent size must be positive, got %d", cfg.ExtentBytes)
	}
	if cfg.Lanes < 0 {
		return nil, fmt.Errorf("egress: lane count must be positive, got %d", cfg.Lanes)
	}
	if cfg.Backing == nil {
		cfg.Backing = spill.MemBacking{}
	}
	if cfg.ExtentBytes == 0 {
		cfg.ExtentBytes = DefaultExtentBytes
	}
	if cfg.Name == "" {
		cfg.Name = "egress"
	}
	cfg.Lanes = max(cfg.Lanes, 1)
	w := &Writer{cfg: cfg}
	if cfg.Retry.Enabled() {
		clk := cfg.Clock
		if clk == nil && cfg.Device != nil {
			clk = cfg.Device.Clock()
		} else if clk == nil {
			clk = storage.NewRealClock()
		}
		w.retrier = faults.NewRetrier(cfg.Retry, clk, cfg.Counters)
	}
	return w, nil
}

// Write streams output bytes into the extent cutter. It never fails
// mid-stream — write errors surface at Close, after every extent has
// been joined — but stops dispatching new extents once one has failed.
func (w *Writer) Write(p []byte) (int, error) {
	n := len(p)
	size := int(w.cfg.ExtentBytes)
	for len(p) > 0 {
		if w.cur == nil {
			w.cur = make([]byte, 0, size)
		}
		c := copy(w.cur[len(w.cur):size], p)
		w.cur = w.cur[:len(w.cur)+c]
		p = p[c:]
		if len(w.cur) == size {
			w.dispatch(w.cur)
			w.cur = nil
		}
	}
	return n, nil
}

// dispatch seals one extent and hands it to an IO lane, blocking while
// the in-flight window is full so at most Lanes writes overlap.
func (w *Writer) dispatch(payload []byte) {
	idx := len(w.extents)
	ext := extent{len: int64(len(payload)), crc: crc32.Checksum(payload, castagnoli)}
	off := w.total
	w.total += ext.len
	if w.err != nil {
		w.extents = append(w.extents, ext)
		return
	}
	data, err := w.cfg.Backing.NewRun(idx)
	if err != nil {
		w.err = fmt.Errorf("egress: extent %d: %w", idx, err)
		w.extents = append(w.extents, ext)
		return
	}
	ext.data = data
	w.extents = append(w.extents, ext)
	dst := faults.BlockFile(data)
	if w.cfg.Injector != nil {
		dst = w.cfg.Injector.WrapBlockFile(fmt.Sprintf("egress%d", idx), data)
	}
	for len(w.pending) >= w.cfg.Lanes {
		w.join(1)
		if w.err != nil {
			return
		}
	}
	// Reserve the device here, not in the lane: the single producer books
	// write service in extent order once a lane slot frees, so up to Lanes
	// reservations queue at the device and pipeline toward its aggregate
	// bandwidth, while the serial writer re-reserves only after each
	// extent completes and stays at the single-stream rate. The virtual
	// timeline is then a pure function of the extent sequence and lane
	// count, not of goroutine interleaving.
	var deadline time.Duration
	if w.cfg.Device != nil {
		deadline = storage.ReserveWrite(w.cfg.Device, off, ext.len)
	}
	h := w.cfg.Pool.GoIOSized("egress", metrics.StateIOWait, ext.len, func() error {
		return w.writeExtent(idx, dst, payload, off, ext.crc, deadline)
	})
	w.pending = append(w.pending, h)
}

// writeExtent is one extent's write task, run on an IO lane: write the
// whole payload, charge the device, read it back and verify the CRC.
// A fault anywhere — including a torn write that left half the payload
// — retries the whole extent; the payload stays resident until the
// read-back verifies, so a retry always rewrites from the original
// bytes, never from torn state.
func (w *Writer) writeExtent(idx int, dst faults.BlockFile, payload []byte, off int64, crc uint32, deadline time.Duration) error {
	first := true
	op := func() error {
		if _, err := dst.WriteAt(payload, 0); err != nil {
			return err
		}
		if w.cfg.Device != nil {
			// The first attempt's service time was reserved at dispatch;
			// a retry rewrites the extent, so it re-reserves here.
			d := deadline
			if !first {
				d = storage.ReserveWrite(w.cfg.Device, off, int64(len(payload)))
			}
			first = false
			w.cfg.Device.Clock().SleepUntil(d)
		}
		back := make([]byte, len(payload))
		if err := spill.ReadFull(dst, back, 0); err != nil {
			return err
		}
		if got := crc32.Checksum(back, castagnoli); got != crc {
			return corruptf("extent %d read back with checksum %08x, want %08x", idx, got, crc)
		}
		return nil
	}
	if err := w.retrier.Do(op); err != nil {
		return fmt.Errorf("egress: extent %d: %w", idx, err)
	}
	return nil
}

// join waits for up to n of the oldest in-flight writes, keeping the
// first error.
func (w *Writer) join(n int) {
	for ; n > 0 && len(w.pending) > 0; n-- {
		if err := w.pending[0].Wait(); err != nil && w.err == nil {
			w.err = err
		}
		w.pending = w.pending[1:]
	}
}

// Close flushes the tail extent, joins every in-flight write, and
// returns the materialized Output. On error the extent storage is
// released and no Output is returned.
func (w *Writer) Close() (*Output, error) {
	if w.closed {
		return nil, errors.New("egress: writer already closed")
	}
	w.closed = true
	if len(w.cur) > 0 {
		w.dispatch(w.cur)
		w.cur = nil
	}
	w.join(len(w.pending))
	if w.err != nil {
		for _, e := range w.extents {
			if e.data != nil {
				e.data.Close()
			}
		}
		return nil, w.err
	}
	m := Manifest{ExtentBytes: w.cfg.ExtentBytes, Total: w.total}
	o := &Output{name: w.cfg.Name, man: m, extents: w.extents}
	var off int64
	for _, e := range w.extents {
		o.man.Extents = append(o.man.Extents, Extent{Off: off, Len: e.len, CRC: e.crc})
		off += e.len
	}
	return o, nil
}

// Output is a materialized egress: the stitched view over the written
// extents plus their manifest. It implements chunk.Input (Name, Size,
// ReadAt and the two-phase IssueReadAt), so it can feed a subsequent
// job's ingest pipeline directly — the zero-copy pipe internal/dag
// chains rounds with.
type Output struct {
	name    string
	man     Manifest
	extents []extent
}

// Name names the output.
func (o *Output) Name() string { return o.name }

// Size returns the stitched output size in bytes.
func (o *Output) Size() int64 { return o.man.Total }

// Extents returns the extent count.
func (o *Output) Extents() int { return len(o.extents) }

// Manifest returns the stitching manifest.
func (o *Output) Manifest() Manifest { return o.man }

// ReadAt reads the stitched output at off, crossing extent boundaries
// as needed. All extents but the last are exactly ExtentBytes, so the
// covering extent is located by division.
func (o *Output) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("egress: negative read offset %d", off)
	}
	read := 0
	for len(p) > 0 {
		if off >= o.man.Total {
			return read, io.EOF
		}
		i := off / o.man.ExtentBytes
		e := o.extents[i]
		in := off - i*o.man.ExtentBytes
		want := int64(len(p))
		if rest := e.len - in; want > rest {
			want = rest
		}
		n, err := e.data.ReadAt(p[:want], in)
		read += n
		off += int64(n)
		p = p[n:]
		if err != nil {
			return read, err
		}
		if int64(n) < want {
			return read, io.ErrUnexpectedEOF
		}
	}
	return read, nil
}

// IssueReadAt is the two-phase read the multi-lane fetcher prefers:
// extent storage is plain memory, so the read completes at issue time
// and the wait is immediate.
func (o *Output) IssueReadAt(p []byte, off int64) (func() (int, error), error) {
	n, err := o.ReadAt(p, off)
	return func() (int, error) { return n, err }, nil
}

// Bytes stitches and returns the full output, validating every extent
// against the manifest. Corruption — a checksum mismatch, a length
// drift — yields a *CorruptError, never silently wrong bytes.
func (o *Output) Bytes() ([]byte, error) {
	buf := make([]byte, 0, o.man.Total)
	for i, e := range o.extents {
		start := len(buf)
		buf = buf[:start+int(e.len)]
		if err := spill.ReadFull(e.data, buf[start:], 0); err != nil {
			return nil, fmt.Errorf("egress: extent %d: %w", i, err)
		}
		if got := crc32.Checksum(buf[start:], castagnoli); got != o.man.Extents[i].CRC {
			return nil, corruptf("extent %d checksum %08x, want %08x", i, got, o.man.Extents[i].CRC)
		}
	}
	if int64(len(buf)) != o.man.Total {
		return nil, corruptf("stitched %d bytes, manifest total %d", len(buf), o.man.Total)
	}
	return buf, nil
}

// Close releases every extent's backing storage. The Output must not
// be read afterwards.
func (o *Output) Close() error {
	var first error
	for _, e := range o.extents {
		if e.data == nil {
			continue
		}
		if err := e.data.Close(); err != nil && first == nil {
			first = err
		}
	}
	o.extents = nil
	return first
}

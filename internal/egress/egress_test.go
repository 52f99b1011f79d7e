package egress

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"strings"
	"testing"

	"supmr/internal/exec"
	"supmr/internal/faults"
	"supmr/internal/storage"
)

// testStream returns size deterministic pseudo-random bytes.
func testStream(size int) []byte {
	buf := make([]byte, size)
	x := uint64(0x243F6A8885A308D3)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
	return buf
}

// egressAll streams data through a Writer in odd-sized writes and
// returns the closed Output.
func egressAll(t *testing.T, cfg Config, data []byte) *Output {
	t.Helper()
	w, err := NewWriter(cfg)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for off := 0; off < len(data); {
		n := 7777
		if off+n > len(data) {
			n = len(data) - off
		}
		if _, err := w.Write(data[off : off+n]); err != nil {
			t.Fatalf("Write: %v", err)
		}
		off += n
	}
	out, err := w.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	return out
}

func newPool(t *testing.T, ioWorkers int) *exec.Pool {
	t.Helper()
	p := exec.NewPool(context.Background(), exec.Config{Workers: 2, IOWorkers: ioWorkers})
	t.Cleanup(p.Close)
	return p
}

func TestLaneCountsByteIdentical(t *testing.T) {
	data := testStream(1<<20 + 12345) // non-multiple: forces a short tail extent
	const extent = 64 << 10

	var ref []byte
	var refMan Manifest
	for _, lanes := range []int{1, 2, 4} {
		pool := newPool(t, lanes)
		out := egressAll(t, Config{Pool: pool, Lanes: lanes, ExtentBytes: extent}, data)
		got, err := out.Bytes()
		if err != nil {
			t.Fatalf("lanes=%d: Bytes: %v", lanes, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("lanes=%d: stitched output differs from input", lanes)
		}
		if lanes == 1 {
			ref, refMan = got, out.Manifest()
			continue
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("lanes=%d: output differs from serial writer", lanes)
		}
		if !reflect.DeepEqual(out.Manifest(), refMan) {
			t.Fatalf("lanes=%d: manifest differs from serial writer", lanes)
		}
		out.Close()
	}

	// Manifest shape: all extents but the last are exactly ExtentBytes,
	// the last carries the remainder.
	wantExtents := (len(data) + extent - 1) / extent
	if len(refMan.Extents) != wantExtents {
		t.Fatalf("extents = %d, want %d", len(refMan.Extents), wantExtents)
	}
	for i, e := range refMan.Extents[:len(refMan.Extents)-1] {
		if e.Len != extent || e.Off != int64(i)*extent {
			t.Fatalf("extent %d = %+v, want len %d off %d", i, e, extent, i*extent)
		}
	}
	if last := refMan.Extents[len(refMan.Extents)-1]; last.Len != int64(len(data)%extent) {
		t.Fatalf("tail extent len = %d, want %d", last.Len, len(data)%extent)
	}
}

func TestOutputReadAt(t *testing.T) {
	data := testStream(200_000)
	pool := newPool(t, 2)
	out := egressAll(t, Config{Pool: pool, Lanes: 2, ExtentBytes: 64 << 10}, data)
	defer out.Close()

	if out.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", out.Size(), len(data))
	}
	// Reads crossing extent boundaries.
	for _, c := range []struct{ off, n int }{
		{0, 100}, {64<<10 - 50, 100}, {128<<10 - 1, 3}, {199_000, 1000},
	} {
		got := make([]byte, c.n)
		n, err := out.ReadAt(got, int64(c.off))
		if err != nil || n != c.n {
			t.Fatalf("ReadAt(%d, %d) = %d, %v", c.off, c.n, n, err)
		}
		if !bytes.Equal(got, data[c.off:c.off+c.n]) {
			t.Fatalf("ReadAt(%d, %d): wrong bytes", c.off, c.n)
		}
	}
	// Read past the end returns the available prefix and io.EOF.
	got := make([]byte, 100)
	n, err := out.ReadAt(got, int64(len(data)-30))
	if n != 30 || err != io.EOF {
		t.Fatalf("tail ReadAt = %d, %v; want 30, EOF", n, err)
	}
	if !bytes.Equal(got[:30], data[len(data)-30:]) {
		t.Fatalf("tail ReadAt: wrong bytes")
	}
	// Two-phase read completes at issue.
	wait, err := out.IssueReadAt(got[:10], 0)
	if err != nil {
		t.Fatalf("IssueReadAt: %v", err)
	}
	if n, err := wait(); n != 10 || err != nil {
		t.Fatalf("IssueReadAt wait = %d, %v", n, err)
	}
}

func TestTornWriteRetryDeterministic(t *testing.T) {
	data := testStream(512 << 10) // 8 extents of 64 KiB
	plan := faults.Plan{Seed: 7, WriteErrProb: 0.4}
	policy := faults.RetryPolicy{MaxAttempts: 8}

	var ref []byte
	var refFaults string
	for _, lanes := range []int{1, 4} {
		clock := storage.NewRealClock()
		inj := faults.New(plan, clock)
		pool := newPool(t, lanes)
		out := egressAll(t, Config{
			Pool: pool, Lanes: lanes, ExtentBytes: 64 << 10,
			Injector: inj, Retry: policy, Clock: clock, Counters: inj.Counters(),
		}, data)
		got, err := out.Bytes()
		if err != nil {
			t.Fatalf("lanes=%d: Bytes: %v", lanes, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("lanes=%d: faulted egress diverged from input", lanes)
		}
		snap := inj.Counters().Snapshot()
		if snap.Injected == 0 || snap.Retried == 0 || snap.Recovered == 0 {
			t.Fatalf("lanes=%d: no faults exercised: %+v", lanes, snap)
		}
		fs := snap.String()
		if lanes == 1 {
			ref, refFaults = got, fs
			continue
		}
		// Per-extent fault sites make the schedule — and so the exact
		// counter totals — independent of lane interleaving.
		if fs != refFaults {
			t.Fatalf("fault counters depend on lane count: %q vs %q", fs, refFaults)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("lanes=%d: faulted output differs from serial", lanes)
		}
		out.Close()
	}
}

func TestFaultWithoutRetryFails(t *testing.T) {
	data := testStream(256 << 10)
	clock := storage.NewRealClock()
	inj := faults.New(faults.Plan{Seed: 1, WriteErrProb: 1}, clock)
	pool := newPool(t, 2)
	w, err := NewWriter(Config{Pool: pool, Lanes: 2, ExtentBytes: 64 << 10, Injector: inj})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := w.Close(); err == nil {
		t.Fatalf("Close succeeded with every write faulted and no retry policy")
	}
}

func TestDeviceChargesWriteTime(t *testing.T) {
	clock := storage.NewFakeClock()
	disk, err := storage.NewDisk(storage.DiskConfig{Name: "out", Bandwidth: 1 << 20}, clock)
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	data := testStream(1 << 20)
	pool := newPool(t, 1)
	before := clock.Now()
	out := egressAll(t, Config{Pool: pool, Lanes: 1, ExtentBytes: 256 << 10, Device: disk}, data)
	defer out.Close()
	if elapsed := clock.Now() - before; elapsed <= 0 {
		t.Fatalf("egress through a 1 MB/s disk advanced no device time")
	}
}

func TestWriterValidation(t *testing.T) {
	if _, err := NewWriter(Config{}); err == nil || !strings.Contains(err.Error(), "pool") {
		t.Fatalf("nil pool accepted: %v", err)
	}
	pool := newPool(t, 1)
	if _, err := NewWriter(Config{Pool: pool, ExtentBytes: -1}); err == nil {
		t.Fatalf("negative extent size accepted")
	}
	if _, err := NewWriter(Config{Pool: pool, Lanes: -1}); err == nil {
		t.Fatalf("negative lane count accepted")
	}
	w, err := NewWriter(Config{Pool: pool})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if _, err := w.Close(); err != nil {
		t.Fatalf("empty Close: %v", err)
	}
	if _, err := w.Close(); err == nil {
		t.Fatalf("double Close accepted")
	}
}

package exec

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"supmr/internal/metrics"
)

func TestForEachRunsAllIndices(t *testing.T) {
	p := NewLocal(4)
	defer p.Close()
	var hits [100]atomic.Int32
	if _, err := p.ForEach("test", metrics.StateUser, 100, func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Fatalf("index %d executed %d times", i, n)
		}
	}
}

func TestForEachDegenerate(t *testing.T) {
	p := NewLocal(4)
	defer p.Close()
	if _, err := p.ForEach("test", metrics.StateUser, 0, func(int) error {
		t.Error("called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// More tasks than workers, fewer tasks than workers.
	for _, n := range []int{1, 3, 17} {
		var ran atomic.Int32
		if _, err := p.ForEach("test", metrics.StateUser, n, func(int) error {
			ran.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if int(ran.Load()) != n {
			t.Errorf("n=%d: ran %d", n, ran.Load())
		}
	}
}

func TestForEachTaskError(t *testing.T) {
	p := NewLocal(2)
	defer p.Close()
	boom := errors.New("task failed")
	_, err := p.ForEach("test", metrics.StateUser, 50, func(i int) error {
		if i == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want task error", err)
	}
}

func TestForEachPanicNamesTask(t *testing.T) {
	p := NewLocal(2)
	defer p.Close()
	_, err := p.ForEach("map", metrics.StateUser, 10, func(i int) error {
		if i == 3 {
			panic("kaboom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Phase != "map" || pe.Task != 3 {
		t.Errorf("panic error = %+v, want phase=map task=3", pe)
	}
	if !strings.Contains(pe.Error(), "map task 3 panicked: kaboom") {
		t.Errorf("message %q does not name the split", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	// The pool survives: the next phase still runs.
	if _, err := p.ForEach("test", metrics.StateUser, 4, func(int) error { return nil }); err != nil {
		t.Fatalf("pool unusable after panic: %v", err)
	}
}

func TestForEachObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(ctx, Config{Workers: 2})
	defer p.Close()
	started := make(chan struct{})
	var once atomic.Bool
	go func() {
		<-started
		cancel()
	}()
	_, err := p.ForEach("test", metrics.StateUser, 1000, func(i int) error {
		if once.CompareAndSwap(false, true) {
			close(started)
		}
		<-ctx.Done() // park until cancelled so the wave is mid-flight
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEachCancelMidWave(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(ctx, Config{Workers: 2})
	defer p.Close()
	var ran atomic.Int32
	go func() {
		// Cancel once the wave is under way.
		for ran.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, err := p.ForEach("test", metrics.StateUser, 1_000_000, func(i int) error {
		ran.Add(1)
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1_000_000 {
		t.Error("cancellation did not stop dispatch early")
	}
}

func TestForEachCompletedWaveIgnoresLateCancel(t *testing.T) {
	// If every task ran, a cancellation that lands after the fact must
	// not turn a finished wave into an error.
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(ctx, Config{Workers: 2})
	defer p.Close()
	if _, err := p.ForEach("test", metrics.StateUser, 10, func(int) error { return nil }); err != nil {
		t.Fatalf("completed wave errored: %v", err)
	}
	cancel()
	if _, err := p.ForEach("test", metrics.StateUser, 10, func(int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel wave err = %v, want context.Canceled", err)
	}
}

func TestAbortCause(t *testing.T) {
	p := NewLocal(2)
	defer p.Close()
	cause := errors.New("round failed")
	p.Abort(cause)
	if err := p.Err(); !errors.Is(err, cause) {
		t.Fatalf("Err() = %v, want abort cause", err)
	}
	if _, err := p.ForEach("test", metrics.StateUser, 5, func(int) error { return nil }); !errors.Is(err, cause) {
		t.Fatalf("ForEach after abort = %v, want cause", err)
	}
}

func TestGoIOJoinAndPanic(t *testing.T) {
	p := NewLocal(1)
	defer p.Close()
	done := make(chan struct{})
	h := p.GoIO("ingest", metrics.StateIOWait, func() error {
		close(done)
		return nil
	})
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	default:
		t.Error("Wait returned before the task ran")
	}
	h2 := p.GoIO("ingest", metrics.StateIOWait, func() error { panic("io blew up") })
	var pe *PanicError
	if err := h2.Wait(); !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	} else if pe.Phase != "ingest" || pe.Task != -1 {
		t.Errorf("panic error = %+v", pe)
	}
}

func TestGoIODoesNotBlockComputeLane(t *testing.T) {
	// With a single compute worker, an in-flight IO task must not steal
	// the compute slot — the paper's dedicated ingest thread.
	p := NewLocal(1)
	defer p.Close()
	release := make(chan struct{})
	h := p.GoIO("ingest", metrics.StateIOWait, func() error {
		<-release
		return nil
	})
	doneCh := make(chan error, 1)
	go func() {
		_, err := p.ForEach("map", metrics.StateUser, 4, func(int) error { return nil })
		doneCh <- err
	}()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("compute wave blocked behind IO task")
	}
	close(release)
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseJoinsInFlightWork(t *testing.T) {
	p := NewLocal(1)
	var finished atomic.Bool
	p.GoIO("ingest", metrics.StateIOWait, func() error {
		time.Sleep(20 * time.Millisecond)
		finished.Store(true)
		return nil
	})
	p.Close() // must join the parked IO task, not abandon it
	if !finished.Load() {
		t.Error("Close returned before in-flight IO task completed")
	}
	p.Close() // idempotent
	if _, err := p.ForEach("test", metrics.StateUser, 3, func(int) error { return nil }); err == nil {
		t.Error("ForEach on closed pool should fail")
	}
	if err := p.GoIO("x", metrics.StateUser, func() error { return nil }).Wait(); err == nil {
		t.Error("GoIO on closed pool should fail")
	}
}

func TestTaskStats(t *testing.T) {
	p := NewLocal(2)
	defer p.Close()
	if _, err := p.ForEach("map", metrics.StateUser, 20, func(int) error {
		time.Sleep(time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.GoIO("ingest", metrics.StateIOWait, func() error { return nil }).Wait(); err != nil {
		t.Fatal(err)
	}
	stats := p.Record().TaskStats(Mark{})
	m := stats["map"]
	if m.Tasks != 20 || m.Busy <= 0 {
		t.Errorf("map stats = %+v", m)
	}
	if stats["ingest"].Tasks != 1 {
		t.Errorf("ingest stats = %+v", stats["ingest"])
	}
}

// TestSpansPerSlotAndTask: a ForEach records at most one span per worker
// slot, in the call's state, covering the busy time of the slot's tasks;
// a GoIO task records exactly one span in its state. Spans are on the
// pool's clock and land in the submitting record only.
func TestSpansPerSlotAndTask(t *testing.T) {
	p := NewPool(context.Background(), Config{Workers: 3})
	defer p.Close()
	busy, err := p.ForEach("map", metrics.StateUser, 12, func(int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := p.Record().Spans(Mark{})
	if len(spans) == 0 || len(spans) > 3 {
		t.Fatalf("ForEach over 12 tasks on 3 workers recorded %d spans, want 1..3", len(spans))
	}
	var total time.Duration
	for _, s := range spans {
		if s.User != 1 || s.Sys != 0 || s.IOWait != 0 {
			t.Errorf("span %+v is not one user context", s)
		}
		total += s.End - s.Start
	}
	if d := total - busy; d < -busy/20 || d > busy/20 {
		t.Errorf("user spans total %v, busy time %v: off by more than 5%%", total, busy)
	}

	before := p.Now()
	if err := p.GoIO("ingest", metrics.StateIOWait, func() error {
		time.Sleep(time.Millisecond)
		return nil
	}).Wait(); err != nil {
		t.Fatal(err)
	}
	io := p.Record().Spans(Mark{})[len(spans):]
	if len(io) != 1 || io[0].IOWait != 1 || io[0].User != 0 || io[0].Start < before || io[0].End > p.Now() {
		t.Errorf("one GoIO recorded %+v, want one IO-wait span on the pool clock", io)
	}

	// A scoped call's spans land in its record, not the pool's.
	rec := NewRecord(1, p.Now)
	if _, err := p.ForEachScoped(nil, rec, 0, "map", metrics.StateUser, 3, func(int) error {
		time.Sleep(time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	p.GoIOScoped(rec, "ingest", metrics.StateIOWait, 0, func() error {
		time.Sleep(time.Millisecond)
		return nil
	}).Wait()
	if got, own := len(rec.Spans(Mark{})), len(p.Record().Spans(Mark{})); got == 0 || got > 4 || own != len(spans)+1 {
		t.Errorf("scoped record holds %d spans, pool %d; want 2..4 and %d", got, own, len(spans)+1)
	}
}

func TestPoolClockDefaultsAndOverride(t *testing.T) {
	var virtual time.Duration = 42 * time.Second
	p := NewPool(context.Background(), Config{Workers: 1, Now: func() time.Duration { return virtual }})
	defer p.Close()
	if p.Now() != 42*time.Second {
		t.Errorf("Now() = %v, want the configured job clock", p.Now())
	}
	p2 := NewLocal(1)
	defer p2.Close()
	if p2.Now() < 0 {
		t.Error("default clock went backwards")
	}
	if p2.Workers() != 1 {
		t.Errorf("Workers() = %d", p2.Workers())
	}
}

func TestIOLanesFanOut(t *testing.T) {
	// Three GoIO tasks on a 3-lane pool must run concurrently: each
	// parks until released, which would deadlock the barrier below if
	// the lanes serialized.
	p := NewPool(context.Background(), Config{Workers: 1, IOWorkers: 3})
	defer p.Close()
	if p.IOLanes() != 3 {
		t.Fatalf("IOLanes() = %d, want 3", p.IOLanes())
	}
	var started atomic.Int32
	release := make(chan struct{})
	var hs []*Handle
	for i := 0; i < 3; i++ {
		hs = append(hs, p.GoIO("seg", metrics.StateIOWait, func() error {
			started.Add(1)
			<-release
			return nil
		}))
	}
	deadline := time.Now().Add(5 * time.Second)
	for started.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 3 IO tasks in flight concurrently", started.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for _, h := range hs {
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLaneBytesAttribution(t *testing.T) {
	p := NewPool(context.Background(), Config{Workers: 1, IOWorkers: 2})
	defer p.Close()
	var hs []*Handle
	var want int64
	for i := 1; i <= 8; i++ {
		n := int64(i * 1000)
		want += n
		hs = append(hs, p.GoIOSized("seg", metrics.StateIOWait, n, func() error { return nil }))
	}
	// A zero-byte IO task (a spill write) must not perturb the counters.
	hs = append(hs, p.GoIO("spill", metrics.StateIOWait, func() error { return nil }))
	for _, h := range hs {
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	lb := p.Record().LaneBytes(Mark{}, "seg")
	if len(lb) != 2 {
		t.Fatalf("LaneBytes tracks %d lanes, want 2", len(lb))
	}
	var got int64
	for _, b := range lb {
		got += b
	}
	if got != want {
		t.Errorf("lane bytes sum to %d, want %d", got, want)
	}
}

func TestHandleWaitIdempotent(t *testing.T) {
	p := NewLocal(1)
	defer p.Close()
	boom := errors.New("segment failed")
	h := p.GoIO("seg", metrics.StateIOWait, func() error { return boom })
	for i := 0; i < 3; i++ {
		if err := h.Wait(); !errors.Is(err, boom) {
			t.Fatalf("Wait call %d = %v, want the task error", i+1, err)
		}
	}
}

func TestCancelledJobDrainsAllIOHandles(t *testing.T) {
	// Regression: joining a cancelled job's segment handles must never
	// block — every handle resolves whether its task ran, is parked in
	// a wait, or was still queued when cancellation landed — and
	// re-joining an already-consumed handle (the drain-loop shape) is
	// safe.
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(ctx, Config{Workers: 1, IOWorkers: 2})
	defer p.Close()
	var hs []*Handle
	// 2 tasks parked on the lanes plus 2 queued (the IO queue's depth
	// equals the lane count; more would block submission itself).
	for i := 0; i < 4; i++ {
		hs = append(hs, p.GoIO("seg", metrics.StateIOWait, func() error {
			<-ctx.Done()
			return ctx.Err()
		}))
	}
	cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, h := range hs {
			h.Wait()
			h.Wait()
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("draining the cancelled job's IO handles blocked")
	}
}

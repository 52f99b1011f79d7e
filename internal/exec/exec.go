// Package exec is the shared execution engine both runtimes schedule
// on: one persistent worker pool per job, created once and reused by
// every phase (ingest, map waves, reduce, run-sorting, merge) instead of
// spawning and tearing down goroutines per phase. The SupMR pipeline
// pays phase startup once per ingest round — exactly the repeated-wave
// path the paper optimizes (§III) — so scheduling cost must be bounded
// and observable, not re-paid every wave.
//
// The pool provides:
//
//   - a task-submission API (ForEach for data-parallel phases, GoIO /
//     GoIOSized for the asynchronous ingest/prefetch lanes) replacing the
//     ad-hoc per-phase goroutine spawning;
//   - context.Context cancellation: a cancelled job stops dispatching
//     tasks between iterations and surfaces context.Canceled;
//   - panic isolation: a crashing task becomes a *PanicError naming the
//     phase and task (split) instead of killing the process;
//   - per-task instrumentation: task counts, queue-wait and busy
//     durations per phase (metrics.TaskStats), plus activity spans on
//     the job clock — one per worker slot of a ForEach, one per GoIO
//     task — from which a job's utilization trace is built
//     (metrics.BuildTrace). Both land in the submitting job's Record,
//     beside its phase boundaries, so a shared pool's jobs each report
//     only their own work.
//
// The pool runs Workers compute workers plus IOWorkers dedicated IO lane
// workers that serve GoIO tasks (the paper's ingest thread, generalized
// to k striped lanes), so device waits never compete with map tasks for
// a slot.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"supmr/internal/metrics"
)

// PanicError is the job error produced when a task panics: the process
// survives, the job fails, and the error names the crashing task.
type PanicError struct {
	Phase string // phase label, e.g. "map"
	Task  int    // task index within the phase (the split), -1 if n/a
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine
}

// Error names the phase and task so a crashing map split is
// identifiable from the job error alone.
func (e *PanicError) Error() string {
	if e.Task >= 0 {
		return fmt.Sprintf("exec: %s task %d panicked: %v", e.Phase, e.Task, e.Value)
	}
	return fmt.Sprintf("exec: %s panicked: %v", e.Phase, e.Value)
}

// Executor is the task-submission surface the runtimes schedule on.
// *Pool implements it directly — the single-job configuration, where the
// pool belongs to the job. A multi-job engine hands each submission its
// own Executor (internal/sched.JobPool) that shares one pool across jobs
// while keeping cancellation and the job's Record per job.
type Executor interface {
	// Workers returns the compute worker count (phase parallelism).
	Workers() int
	// IOLanes returns the dedicated IO worker count.
	IOLanes() int
	// Context returns the job's cancellable context.
	Context() context.Context
	// Now reads the job clock.
	Now() time.Duration
	// Err reports the job's cancellation cause, nil while live.
	Err() error
	// Abort cancels the job (not the substrate) with the given cause.
	Abort(cause error)
	// ForEach runs fn(i) for i in [0, n) on the compute workers.
	ForEach(phase string, state metrics.WorkerState, n int, fn func(i int) error) (time.Duration, error)
	// GoIO runs fn asynchronously on a dedicated IO worker.
	GoIO(phase string, state metrics.WorkerState, fn func() error) *Handle
	// GoIOSized is GoIO with payload-byte lane attribution.
	GoIOSized(phase string, state metrics.WorkerState, bytes int64, fn func() error) *Handle
	// Record is the job's one record: its task calls, spans and lane
	// bytes, phase boundaries and events, on the job clock.
	Record() *Record
}

// Config configures a pool.
type Config struct {
	// Workers is the number of compute workers (default: NumCPU).
	// Dedicated IO workers are always added on top for GoIO tasks.
	Workers int
	// IOWorkers is the number of dedicated IO lane workers serving GoIO
	// tasks (default 1, the paper's single ingest thread). The multi-lane
	// ingest path raises it so segmented chunk reads overlap on the
	// device.
	IOWorkers int
	// Now is the job clock used for durations handed back to callers
	// (e.g. tuner round observations) and for activity spans. Defaults
	// to a wall clock rooted at pool creation. Pass the storage clock so
	// round measurements and spans share the device timeline under
	// simulated clocks.
	Now func() time.Duration
}

// task is one unit of queued work, run with the executing worker's IO
// lane index (-1 on a compute worker).
type task struct {
	run func(lane int)
}

// Pool is the persistent per-job worker pool. Create one with NewPool,
// run every phase on it, then Close it; Close joins all in-flight work,
// so no task (in particular no prefetch ingest parked in a device wait)
// outlives the job.
type Pool struct {
	ctx     context.Context
	abort   context.CancelCauseFunc
	workers int
	lanes   int
	now     func() time.Duration

	tasks chan task // compute lane
	io    chan task // dedicated IO lanes (ingest/prefetch)
	wg    sync.WaitGroup

	rec *Record // the pool's own record (single-job configuration)

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup // submits between the closed check and the send
}

// NewPool creates a pool of cfg.Workers compute workers plus
// cfg.IOWorkers dedicated IO workers (at least one), all running until
// Close. ctx cancellation stops task dispatch between iterations;
// in-flight tasks run to completion.
func NewPool(ctx context.Context, cfg Config) *Pool {
	if ctx == nil {
		ctx = context.Background()
	}
	w := cfg.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	k := cfg.IOWorkers
	if k <= 0 {
		k = 1
	}
	now := cfg.Now
	if now == nil {
		epoch := time.Now()
		now = func() time.Duration { return time.Since(epoch) }
	}
	cctx, abort := context.WithCancelCause(ctx)
	p := &Pool{
		ctx:     cctx,
		abort:   abort,
		workers: w,
		lanes:   k,
		now:     now,
		tasks:   make(chan task, w),
		io:      make(chan task, k),
		rec:     NewRecord(k, now),
	}
	// Compute workers first, then the IO lanes.
	for i := 0; i < w+k; i++ {
		ch, lane := p.tasks, -1
		if i >= w {
			ch, lane = p.io, i-w
		}
		p.wg.Add(1)
		go p.loop(lane, ch)
	}
	return p
}

// NewLocal is a convenience pool for standalone phase primitives and
// tests: background context, wall clock. Callers must Close it.
func NewLocal(workers int) *Pool {
	return NewPool(context.Background(), Config{Workers: workers})
}

func (p *Pool) loop(lane int, ch chan task) {
	defer p.wg.Done()
	for t := range ch {
		t.run(lane)
	}
}

// Workers returns the compute worker count (phase parallelism).
func (p *Pool) Workers() int { return p.workers }

// IOLanes returns the dedicated IO worker count.
func (p *Pool) IOLanes() int { return p.lanes }

// Record returns the record of the pool's own submissions.
func (p *Pool) Record() *Record { return p.rec }

// Context returns the pool's cancellable job context.
func (p *Pool) Context() context.Context { return p.ctx }

// Now reads the job clock.
func (p *Pool) Now() time.Duration { return p.now() }

// Err reports the cancellation cause, or nil while the job is live.
func (p *Pool) Err() error {
	if p.ctx.Err() != nil {
		return context.Cause(p.ctx)
	}
	return nil
}

// Abort cancels the job with the given cause: queued and future work is
// skipped, in-flight tasks finish, and Err reports cause.
func (p *Pool) Abort(cause error) { p.abort(cause) }

// Close joins the pool: no new tasks are accepted, in-flight tasks
// (including a prefetch parked in a device wait) run to completion, and
// all worker goroutines exit. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	// Let submits that passed the closed check land before closing: the
	// workers are still draining, so the pending sends complete.
	p.inflight.Wait()
	close(p.tasks)
	close(p.io)
	p.wg.Wait()
	p.abort(context.Canceled) // release the derived context
}

// submit enqueues t on ch, refusing after Close.
func (p *Pool) submit(ch chan task, t task) error {
	// The in-flight count keeps Close from closing ch between the closed
	// check and the send — a Close racing an active job (engine shutdown
	// with submissions still running) waits for the send to land instead
	// of panicking the sender.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("exec: pool is closed")
	}
	p.inflight.Add(1)
	p.mu.Unlock()
	ch <- t
	p.inflight.Done()
	return nil
}

// ForEach runs fn(i) for every i in [0, n) on the pool's compute
// workers, recording each worker slot's activity as one span in state,
// from its first task's start to its last task's end. It returns the
// aggregate busy time (the sum of per-task wall-clock durations) and the
// first error: a task error, a *PanicError if a task panicked, or the
// cancellation cause if the job context was cancelled (dispatch stops
// between tasks). Tasks must not themselves submit pool work. Phases
// are sequential — a caller may run one from a goroutine of its own,
// as the memo fold does behind the ingest loop, so long as it joins it
// before starting another — and tasks within a phase are parallel.
func (p *Pool) ForEach(phase string, state metrics.WorkerState, n int, fn func(i int) error) (time.Duration, error) {
	return p.ForEachScoped(p.ctx, p.rec, 0, phase, state, n, fn)
}

// scopeErr reports ctx's cancellation cause, nil while live.
func scopeErr(ctx context.Context) error {
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// ForEachScoped is ForEach under a job scope: dispatch stops when ctx —
// the job's context, typically derived from the pool's — is cancelled,
// the call is logged in rec rather than the pool's own record, and at
// most width worker slots run it (<= 0: all of them).
// This is the entry point a multi-job engine uses so one pool can run
// phases from many jobs with per-job cancellation, attribution and
// width; ForEach is exactly this call scoped to the pool itself.
func (p *Pool) ForEachScoped(ctx context.Context, rec *Record, width int, phase string, state metrics.WorkerState, n int, fn func(i int) error) (time.Duration, error) {
	if ctx == nil {
		ctx = p.ctx
	}
	if err := scopeErr(ctx); err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, nil
	}
	slots := min(p.workers, n)
	if width > 0 {
		slots = min(slots, width)
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		busyNS   atomic.Int64
		ran      atomic.Int64
		waitNS   atomic.Int64
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				setErr(&PanicError{Phase: phase, Task: i, Value: r, Stack: debug.Stack()})
			}
		}()
		if err := fn(i); err != nil {
			setErr(err)
		}
	}
	// Each slot writes only its own span; the record keeps the non-empty
	// ones after the wave joins.
	spans := make([]metrics.Segment, slots)
	loop := func(span *metrics.Segment, submitted time.Time) {
		defer wg.Done()
		waitNS.Add(int64(time.Since(submitted)))
		from, tasks := p.now(), 0
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			start := time.Now()
			runOne(i)
			busyNS.Add(int64(time.Since(start)))
			ran.Add(1)
			tasks++
		}
		if tasks > 0 {
			*span = state.Segment(from, p.now())
		}
	}
	for s := 0; s < slots; s++ {
		submitted, span := time.Now(), &spans[s]
		wg.Add(1)
		if err := p.submit(p.tasks, task{run: func(int) { loop(span, submitted) }}); err != nil {
			wg.Done()
			setErr(err)
			break
		}
	}
	wg.Wait()
	busy := time.Duration(busyNS.Load())
	rec.task(phase, metrics.TaskStats{Tasks: int(ran.Load()), QueueWait: time.Duration(waitNS.Load()), Busy: busy}, -1, 0, spans)
	if firstErr == nil && int(ran.Load()) < n {
		// Dispatch stopped early without a task error: cancellation.
		if err := scopeErr(ctx); err != nil {
			return busy, err
		}
		if err := p.Err(); err != nil {
			return busy, err
		}
	}
	return busy, firstErr
}

// Handle joins an asynchronous task started with GoIO.
type Handle struct {
	done chan error
	once sync.Once
	err  error
}

// Wait blocks until the task completes and returns its error (a
// *PanicError if it panicked). Wait is idempotent: the first call joins
// the task and every later call returns the same error, so a drain loop
// over many handles (the prefetch pump's shutdown path, a cancelled
// job's cleanup) may safely re-join handles it already consumed.
func (h *Handle) Wait() error {
	h.once.Do(func() { h.err = <-h.done })
	return h.err
}

// GoIO runs fn asynchronously on one of the pool's dedicated IO
// workers, recording its run as one span in state (typically
// metrics.StateIOWait). This is the ingest/prefetch lane: it never
// competes with compute tasks for a worker, so the double-buffered read
// of the SupMR pipeline always has a thread to park in the device wait. With a
// single IO worker (the default) GoIO tasks are strictly serialized;
// with more, tasks fan out across the lanes in submission order. The
// returned Handle joins the task and always resolves — normal return,
// panic (as a *PanicError), or refused submission after Close — so
// callers can unconditionally drain every handle they hold. Close also
// joins any task still in flight.
func (p *Pool) GoIO(phase string, state metrics.WorkerState, fn func() error) *Handle {
	return p.GoIOSized(phase, state, 0, fn)
}

// GoIOSized is GoIO with a payload size: bytes are attributed to
// whichever IO lane executes the task, feeding the per-lane throughput
// counters (Record.LaneBytes).
func (p *Pool) GoIOSized(phase string, state metrics.WorkerState, bytes int64, fn func() error) *Handle {
	return p.GoIOScoped(p.rec, phase, state, bytes, fn)
}

// GoIOScoped is GoIOSized under a job scope: the task is logged, with
// its span and lane bytes, in rec rather than the pool's own record, so
// a multi-job engine keeps per-submission counters. The task itself
// still runs on the shared IO lanes in submission order.
func (p *Pool) GoIOScoped(rec *Record, phase string, state metrics.WorkerState, bytes int64, fn func() error) *Handle {
	h := &Handle{done: make(chan error, 1)}
	submitted := time.Now()
	t := task{run: func(lane int) {
		wait := time.Since(submitted)
		from, start := p.now(), time.Now()
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = &PanicError{Phase: phase, Task: -1, Value: r, Stack: debug.Stack()}
				}
			}()
			return fn()
		}()
		rec.task(phase, metrics.TaskStats{Tasks: 1, QueueWait: wait, Busy: time.Since(start)}, lane, bytes,
			[]metrics.Segment{state.Segment(from, p.now())})
		h.done <- err
	}}
	if err := p.submit(p.io, t); err != nil {
		h.done <- err
	}
	return h
}

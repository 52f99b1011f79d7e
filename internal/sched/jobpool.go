package sched

import (
	"context"
	"time"

	"supmr/internal/exec"
	"supmr/internal/metrics"
)

// JobConfig configures one submission's handle on the shared substrate.
type JobConfig struct {
	// Name labels the job in the scheduler (diagnostics only).
	Name string
	// Weight is the fair-share weight (minimum 1).
	Weight int
	// Workers caps the job's compute width: its operations run on at
	// most this many of the shared pool's workers. <= 0, or more than the
	// pool has, is the whole pool.
	Workers int
	// Context, when set, bounds the job: its cancellation aborts this
	// submission without touching the substrate or its peers.
	Context context.Context
}

// JobPool is one job's exec.Executor over the shared pool: the
// refactor's replacement for the per-job worker pool. Compute
// operations (ForEach — a map wave, a spill drain, a reduce or merge
// pass) first acquire a slot from the fair-share Scheduler, run to
// completion on the shared pool's workers, then release the slot
// charged with their measured cost — so concurrent jobs interleave at
// operation boundaries instead of queueing whole-job FIFO. IO-lane work
// (GoIO: ingest, prefetch, spill writes) bypasses the scheduler and
// serializes only on the shared IO lanes, preserving each job's
// ingest/compute overlap while another job's wave computes.
//
// Cancellation and the job's record are job-scoped: Abort cancels this
// submission only, and its Record holds this submission's task calls,
// spans, lane bytes and phase boundaries only — concurrent jobs never
// bleed into each other's reports.
type JobPool struct {
	pool   *exec.Pool
	s      *Scheduler
	ticket *Ticket
	ctx    context.Context
	cancel context.CancelCauseFunc
	unhook func() bool // stops the pool-context propagation
	rec    *exec.Record
	width  int // compute worker slots per operation
}

// NewJobPool registers one job on the scheduler and returns its
// executor handle over the shared pool. Close it when the job is done.
func NewJobPool(pool *exec.Pool, s *Scheduler, cfg JobConfig) *JobPool {
	parent := cfg.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancelCause(parent)
	width := pool.Workers()
	if cfg.Workers > 0 {
		width = min(width, cfg.Workers)
	}
	// The substrate dying (engine Close or pool abort) must abort every
	// submission: propagate the pool context's cause into the job's.
	unhook := context.AfterFunc(pool.Context(), func() {
		cancel(context.Cause(pool.Context()))
	})
	return &JobPool{
		pool:   pool,
		s:      s,
		ticket: s.Register(cfg.Name, cfg.Weight),
		ctx:    ctx,
		cancel: cancel,
		unhook: unhook,
		rec:    exec.NewRecord(pool.IOLanes(), pool.Now),
		width:  width,
	}
}

// Close releases the job's scheduler presence and context plumbing.
// Idempotent; call after the run completes (the record stays readable).
func (j *JobPool) Close() {
	j.unhook()
	j.cancel(context.Canceled)
}

// Workers returns the job's compute width: the shared pool's worker
// count, capped by JobConfig.Workers.
func (j *JobPool) Workers() int { return j.width }

// IOLanes returns the shared pool's IO lane count.
func (j *JobPool) IOLanes() int { return j.pool.IOLanes() }

// Record is this job's record: its own work on the shared pool, none of
// its peers'.
func (j *JobPool) Record() *exec.Record { return j.rec }

// Context returns the job's cancellable context.
func (j *JobPool) Context() context.Context { return j.ctx }

// Now reads the shared substrate's job clock.
func (j *JobPool) Now() time.Duration { return j.pool.Now() }

// Err reports the job's cancellation cause, nil while live.
func (j *JobPool) Err() error {
	if j.ctx.Err() != nil {
		return context.Cause(j.ctx)
	}
	return nil
}

// Abort cancels this job with the given cause. The substrate and the
// other jobs on it are untouched.
func (j *JobPool) Abort(cause error) { j.cancel(cause) }

// ForEach runs one compute operation under the fair-share scheduler:
// it acquires an operation slot (blocking while peers with less service
// run their waves), executes fn(0..n-1) on at most Workers of the shared
// pool's compute workers, and releases the slot charged with the
// operation's measured wall-clock cost.
func (j *JobPool) ForEach(phase string, state metrics.WorkerState, n int, fn func(i int) error) (time.Duration, error) {
	if err := j.Err(); err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, nil
	}
	if err := j.s.Acquire(j.ctx, j.ticket); err != nil {
		return 0, err
	}
	start := j.pool.Now()
	busy, err := j.pool.ForEachScoped(j.ctx, j.rec, j.width, phase, state, n, fn)
	j.s.Release(j.ticket, j.pool.Now()-start)
	return busy, err
}

// GoIO runs fn asynchronously on the shared IO lanes, unscheduled: IO
// work is what compute waves hide behind, so gating it would serialize
// exactly the overlap the pipeline exists for.
func (j *JobPool) GoIO(phase string, state metrics.WorkerState, fn func() error) *Handle {
	return j.pool.GoIOScoped(j.rec, phase, state, 0, fn)
}

// GoIOSized is GoIO with payload-byte attribution to this job's lane
// counters.
func (j *JobPool) GoIOSized(phase string, state metrics.WorkerState, bytes int64, fn func() error) *Handle {
	return j.pool.GoIOScoped(j.rec, phase, state, bytes, fn)
}

// Handle aliases the exec join handle.
type Handle = exec.Handle

// JobPool is the multi-job Executor; the single-job one is *exec.Pool.
var _ exec.Executor = (*JobPool)(nil)

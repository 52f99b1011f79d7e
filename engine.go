package supmr

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"supmr/internal/chunk"
	"supmr/internal/exec"
	"supmr/internal/sched"
	"supmr/internal/storage"
)

// ErrEngineClosed rejects submissions to a closed Engine.
var ErrEngineClosed = errors.New("supmr: engine closed")

// ErrBacklogFull rejects a submission arriving while the engine's
// pending-job backlog is at capacity (see EngineConfig.MaxPending).
// Check with errors.Is; the submission held no resources and can be
// retried.
var ErrBacklogFull = sched.ErrBacklogFull

// EngineConfig sizes a shared multi-job Engine.
type EngineConfig struct {
	// Workers is the shared compute worker count every job's phases draw
	// from (default: GOMAXPROCS).
	Workers int
	// IOLanes is the shared IO lane count serving every job's ingest,
	// prefetch and spill writes (default 1).
	IOLanes int
	// MemoryBudget is the global intermediate-memory budget carved into
	// per-job grants: every admission slot has a guaranteed share
	// (MemoryBudget / MaxJobs) held in reserve until a job claims it, so
	// one spilling job cannot starve another of its fair share. Zero
	// disables global budgeting — each job's own Config.MemoryBudget is
	// granted in full.
	MemoryBudget int64
	// MaxJobs bounds concurrently running jobs (default 4). Submissions
	// beyond it queue in the pending backlog.
	MaxJobs int
	// MaxPending bounds the submitted-but-not-started backlog: a
	// submission arriving with the backlog full fails fast with
	// sched.ErrBacklogFull instead of queueing unboundedly. Negative
	// means unbounded; zero rejects whenever all run slots are busy.
	// Default: 2*MaxJobs.
	MaxPending *int
	// OpSlots is the number of compute operations (map waves, spill
	// drains, merge passes) running on the shared workers at once
	// (default 1: each wave gets the whole pool while jobs interleave at
	// operation boundaries; IO overlaps underneath regardless).
	OpSlots int
	// Clock provides the engine-wide job clock (default: wall clock).
	Clock storage.Clock
	// Memo, when set, is the engine's shared memo store: memoized
	// submissions (Config.Memo) without a store of their own publish to
	// and replay from it, so one tenant's cold run warms the next
	// submission over the same content. The engine does not close it —
	// the owner does, after Engine.Close.
	Memo *MemoStore
}

// Engine is the shared multi-job substrate: one worker pool, one set of
// IO lanes, one chunk-buffer freelist and one memory budget serving N
// concurrent jobs. Submissions route through it by setting
// Config.Engine; admission control bounds how many run at once, and the
// operation-level fair-share scheduler (internal/sched) interleaves the
// admitted jobs' map waves, spill drains and merge tasks so a short job
// is never FIFO-blocked behind a long one. A submission's Config.Workers
// and Config.IOLanes cap its share of the pool and the lanes.
//
// A submission's report has the shape of a solo run's: phase times,
// markers, task stats, lane-byte counters and the task spans a
// utilization trace is built from are per-submission (each job has a
// private exec.Record), and the chunk freelist's counters are
// engine-global, reported by Stats.
type Engine struct {
	clk    storage.Clock
	pool   *exec.Pool
	sched  *sched.Scheduler
	adm    *sched.Admission
	budget *sched.Budget
	frees  *chunk.FreeList
	memo   *MemoStore

	mu        sync.Mutex
	closed    bool
	seq       int64
	submitted int64
	completed int64
	failed    int64
	rejected  int64
	tenants   map[string]*TenantStats
}

// TenantStats is one tenant's rollup across its completed submissions.
type TenantStats struct {
	// Jobs counts finished submissions (successful or failed).
	Jobs int
	// Failed counts submissions that returned an error.
	Failed int
	// OutputPairs, BytesIngested and SpilledBytes accumulate the
	// corresponding Report.Stats fields of successful runs.
	OutputPairs   int64
	BytesIngested int64
	SpilledBytes  int64
	// Busy accumulates map+reduce worker-busy time of successful runs —
	// the tenant's compute consumption on the shared pool.
	Busy time.Duration
}

// EngineStats is a point-in-time snapshot of the engine.
type EngineStats struct {
	// ActiveJobs and PendingJobs are the admission controller's current
	// running and queued submission counts.
	ActiveJobs  int
	PendingJobs int
	// Submitted/Completed/Failed/Rejected count submissions over the
	// engine's lifetime; Rejected counts ErrBacklogFull fast-failures.
	Submitted int64
	Completed int64
	Failed    int64
	Rejected  int64
	// BudgetTotal and BudgetRemaining describe the global memory budget
	// (zero total: unbudgeted).
	BudgetTotal     int64
	BudgetRemaining int64
	// ChunkGets and ChunkReuses are the shared freelist's counters:
	// buffer acquisitions and how many were recycled (engine-global —
	// jobs deliberately share buffers).
	ChunkGets   int64
	ChunkReuses int64
	// Tenants is the per-tenant rollup, keyed by Config.Tenant
	// ("" submissions roll up under "default").
	Tenants map[string]TenantStats
	// Memo snapshots the engine's shared memo store (nil when the
	// engine was built without one).
	Memo *MemoStats `json:",omitempty"`
}

// NewEngine builds the shared substrate. Close it when no more jobs
// will be submitted.
func NewEngine(cfg EngineConfig) *Engine {
	clk := cfg.Clock
	if clk == nil {
		clk = storage.NewRealClock()
	}
	maxJobs := cfg.MaxJobs
	if maxJobs <= 0 {
		maxJobs = 4
	}
	maxPending := 2 * maxJobs
	if cfg.MaxPending != nil {
		maxPending = *cfg.MaxPending
	}
	return &Engine{
		clk: clk,
		pool: exec.NewPool(nil, exec.Config{
			Workers:   cfg.Workers,
			IOWorkers: cfg.IOLanes,
			Now:       clk.Now,
		}),
		sched:   sched.New(sched.Config{OpSlots: cfg.OpSlots}),
		adm:     sched.NewAdmission(maxJobs, maxPending),
		budget:  sched.NewBudget(cfg.MemoryBudget, maxJobs),
		frees:   chunk.NewFreeList(),
		memo:    cfg.Memo,
		tenants: make(map[string]*TenantStats),
	}
}

// Close shuts the engine down: queued submissions abort with
// ErrEngineClosed, in-flight tasks run to completion, and the shared
// workers exit. Prefer letting running jobs finish first; jobs still
// running fail. Idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.pool.Abort(ErrEngineClosed)
	e.pool.Close()
}

// Stats snapshots the engine: admission occupancy, lifetime submission
// counters, budget state, freelist recycling and the per-tenant rollup.
func (e *Engine) Stats() EngineStats {
	active, pending := e.adm.Stats()
	gets, reuses := e.frees.Stats()
	e.mu.Lock()
	defer e.mu.Unlock()
	s := EngineStats{
		ActiveJobs:      active,
		PendingJobs:     pending,
		Submitted:       e.submitted,
		Completed:       e.completed,
		Failed:          e.failed,
		Rejected:        e.rejected,
		BudgetTotal:     e.budget.Total(),
		BudgetRemaining: e.budget.Remaining(),
		ChunkGets:       gets,
		ChunkReuses:     reuses,
		Tenants:         make(map[string]TenantStats, len(e.tenants)),
	}
	for name, t := range e.tenants {
		s.Tenants[name] = *t
	}
	if e.memo != nil {
		ms := e.memo.Stats()
		s.Memo = &ms
	}
	return s
}

// err reports ErrEngineClosed once Close has been called.
func (e *Engine) err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	return nil
}

// nextJobName labels a submission for the scheduler and diagnostics.
func (e *Engine) nextJobName(tenant string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	e.submitted++
	return fmt.Sprintf("%s#%d", tenant, e.seq)
}

func (e *Engine) noteRejected() {
	e.mu.Lock()
	e.rejected++
	e.mu.Unlock()
}

// noteDone folds one finished submission into the lifetime counters and
// its tenant's rollup.
func (e *Engine) noteDone(tenant string, stats *Stats, runErr error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.tenants[tenant]
	if t == nil {
		t = &TenantStats{}
		e.tenants[tenant] = t
	}
	t.Jobs++
	if runErr != nil {
		e.failed++
		t.Failed++
		return
	}
	e.completed++
	t.OutputPairs += int64(stats.OutputPairs)
	t.BytesIngested += stats.BytesIngested
	t.SpilledBytes += stats.SpilledBytes
	t.Busy += stats.MapBusy + stats.ReduceBusy
}

// runOnEngine is Run's multi-job path: admission, budget carve, a
// scheduler-gated JobPool handle over the shared substrate, then the
// same runtime selection as a solo run. Output is byte-identical to a
// solo run of the same Config — only scheduling and instrumentation
// scope differ.
func runOnEngine[K comparable, V any](e *Engine, job Job[K, V], input Stream, cont Container[K, V], cfg Config) (*Report[K, V], error) {
	if err := e.err(); err != nil {
		return nil, err
	}
	tenant := cfg.Tenant
	if tenant == "" {
		tenant = "default"
	}
	name := e.nextJobName(tenant)
	if err := e.adm.Enter(cfg.Context); err != nil {
		if errors.Is(err, sched.ErrBacklogFull) {
			e.noteRejected()
			return nil, fmt.Errorf("supmr: engine rejected %s: %w", name, err)
		}
		e.noteDone(tenant, nil, err)
		return nil, err
	}
	defer e.adm.Leave()

	grant, releaseBudget := e.budget.Carve(cfg.MemoryBudget)
	defer releaseBudget()

	jp := sched.NewJobPool(e.pool, e.sched, sched.JobConfig{
		Name:    name,
		Weight:  cfg.Weight,
		Workers: cfg.Workers,
		Context: cfg.Context,
	})
	defer jp.Close()

	rep, err := runWithExecutor(job, input, cont, cfg, runSubstrate{
		pool:   jp,
		clk:    e.clk,
		budget: grant,
		frees:  e.frees,
		memo:   e.memo,
	})
	var stats *Stats
	if rep != nil {
		stats = &rep.Stats
	}
	e.noteDone(tenant, stats, err)
	return rep, err
}

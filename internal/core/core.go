// Package core implements SupMR, the paper's primary contribution: a
// scale-up MapReduce runtime whose ingest chunk pipeline overlaps reading
// the input with map computation (double-buffering, §III) and whose merge
// phase uses a single-round parallel p-way merge (§IV).
//
// The shape follows Table I:
//
//	run_ingestMR()  -> Run            (launch the SupMR runtime)
//	run_mappers()   -> runMappers     (wrapper over MapWave that keeps
//	                                   the container persistent)
//	run_reducers()  -> ReducePhase    (same as the internal reduce)
//	set_data()      -> ChunkAware.SetData    (chunk pointer/length callback)
//
// The pipeline executes n+1 rounds for n ingest chunks: the first round
// ingests chunk 0 serially, rounds 1..n-1 ingest chunk i+1 while mappers
// operate on chunk i, and the final round maps the last chunk.
//
// Every round runs on the job's persistent internal/exec pool: the
// prefetch ingest is a pool task on the dedicated IO worker (so it is
// joined — never abandoned mid-device-wait — when a round fails or the
// job is cancelled), and map/reduce/merge run on the pool's compute
// workers with panic isolation and cancellation.
//
// Run is the only ingest→map loop, the traditional baseline included:
// Table II's "none" row is Run over a chunk.NewWholeInput stream — one
// chunk, one map wave — merged pairwise. One chunk has nothing to
// overlap, so a run whose first chunk is its whole input (chunk.Whole)
// reports its read and map as separate phases; every other run reports
// the fused read+map phase.
//
// Egress (Options.Egress) is the finish's last phase, so a job's times
// and task stats are stamped once, after everything it ran.
//
// Budgeted, memoized and combiner-ablated multi-node runs differ in one
// drain step chosen before the loop — never, when over budget, or after
// every chunk — whose product, a key-sorted run from spill.DrainContainer,
// goes to the spill store or is parked in memory by chunk index. After
// the loop a memoized run folds what it parked — drained runs and cache
// hits, the latter still encoded — back into the container in parallel,
// and then every single-node run finishes the same way: reduce what is
// resident and merge it in one round (with the spilled runs, if any).
//
// A multi-node run keeps one container per node (the caller's plus
// Nodes-1 from Container.New) as the in-node combiner tier: chunk i is
// mapped into node i % Nodes's, a memoized run folds that node's parked
// output into it, and it is drained once, into the node's one run for
// shuffle.Exchange. The combiner ablation keeps the every-chunk drain
// on the caller's container and exchanges the per-chunk runs.
//
// Persistence (§III-C) applies at two tiers: the intermediate
// containers accumulate across rounds (runMappers never resets them),
// and containers that pool their worker-local accumulators (the flat
// combiner) carry local tables and arenas from round to round, so
// steady-state rounds combine without allocating.
package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/egress"
	"supmr/internal/exec"
	"supmr/internal/faults"
	"supmr/internal/kv"
	"supmr/internal/memo"
	"supmr/internal/metrics"
	"supmr/internal/shuffle"
	"supmr/internal/sortalgo"
	"supmr/internal/spill"
)

// ChunkAware is the set_data() callback of Table I: applications that
// need to know which ingest chunk their map callbacks are about to
// operate on (its length, index and source files) implement it; the
// runtime invokes it before each map wave.
type ChunkAware interface {
	SetData(c *chunk.Chunk)
}

// Tuner is the adaptive chunk-size feedback loop (the paper's §VIII
// future work, implemented in internal/tuner): after each pipelined
// round it receives the ingested chunk size and the round's observed
// ingest and map durations, and returns the chunk size to use next.
type Tuner interface {
	Next(chunkBytes int64, ingest, mapT time.Duration) int64
}

// Options configure the SupMR pipeline and its phase primitives.
type Options struct {
	// Workers is the number of map/reduce/merge worker threads (the
	// paper's machine exposes 32 hardware contexts). Defaults to
	// runtime.NumCPU(). Ignored when Pool is set — the pool's size wins.
	Workers int
	// Splits is the number of input splits per map wave. Defaults to
	// 4 * Workers.
	Splits int
	// Merge selects the merge-phase algorithm: pairwise (the zero value,
	// original Phoenix) or p-way (SupMR's modification, the facade's).
	Merge sortalgo.MergeAlgo
	// Boundary adjusts split points so no record straddles splits.
	Boundary chunk.Boundary
	// Timer records per-phase durations (Run creates one when nil).
	Timer *metrics.Timer
	// Pool is the job's executor, carrying its context and clock: a
	// dedicated exec.Pool or an engine's per-submission handle. Run
	// creates one when nil; MapWave and ReducePhase require it.
	Pool exec.Executor
	// RadixDisabled turns off the fixed-width-key sort fast path (the
	// scatter finish, the radix run sort and the merge tree's prefix
	// heads) — the -radixsort=off ablation. The zero value keeps the
	// fast path enabled for apps that opt in via kv.FixedKeyApp. Run
	// resolves from it the one codec every phase uses.
	RadixDisabled bool
	// Topology carries the multi-node knobs. With Nodes > 0 the job runs
	// on a simulated cluster: chunk i is mapped into node i % Nodes's
	// persistent container and, after ingest, node n takes the n-th key
	// range of every node's runs over simulated links (shuffle.Exchange).
	// Requires key/value types with codecs.
	shuffle.Topology
	// ResetEachRound re-initializes the container at every map round,
	// the traditional behaviour SupMR had to remove (§III-C). It exists
	// only for the persistent-container ablation: with it set, combiner
	// state from earlier rounds is discarded and results are wrong for
	// multi-chunk inputs.
	ResetEachRound bool
	// Tuner, when set and the input stream is a *chunk.InterFile, drives
	// the adaptive chunk-size feedback loop.
	Tuner Tuner
	// MemoryBudget caps the container's resident bytes (Container.
	// SizeBytes). When positive, the pipeline checks the budget between
	// ingest rounds; a container over budget is drained into a
	// key-sorted run written to SpillStore on the pool's IO lane while
	// the next map round computes, and the merge phase streams the runs
	// back in the same single p-way round. Zero disables spilling. Run
	// refuses it beside MemoStore or Nodes, neither of which spills.
	MemoryBudget int64
	// SpillStore receives the spilled runs; required when MemoryBudget
	// is positive.
	SpillStore *spill.Store
	// Retry bounds transient-fault retries on spill-run writes and
	// shuffle frame transfers (ingest reads retry inside the input
	// wrappers; see internal/faults). The zero policy disables retries.
	Retry faults.RetryPolicy
	// FaultCounters accumulates retry outcomes for the report; nil runs
	// uncounted.
	FaultCounters *faults.Counters
	// PrefetchDepth is the ingest depth d: the pipeline keeps up to d
	// chunks in flight ahead of the map wave. A *chunk.InterFile — every
	// stream package chunk builds — keeps d reads outstanding on the
	// device; any other stream is read one chunk ahead. The default (<= 1)
	// is the paper's double buffering — one chunk ahead.
	PrefetchDepth int
	// IOLanes is the number of IO lanes each chunk read fans out across:
	// the read is split into up to IOLanes shares, each sent as requests
	// of at most 128 KiB issued together, whose device waits overlap on
	// the pool's IO workers. <= 1 keeps the single-stream read, one
	// request per read. Values above the pool's IO worker count are
	// clamped.
	IOLanes int
	// Freelist, when set, is a shared chunk-buffer freelist the ingest
	// fetcher recycles through — the multi-job engine passes one list so
	// all submissions reuse each other's chunk buffers. Nil gives the
	// job a private freelist.
	Freelist *chunk.FreeList
	// MemoStore, when set, enables content-addressed memoization: every
	// ingest chunk is keyed by its content hash under MemoSpace; a hit
	// skips the map wave and parks the cached map/combine output, still
	// encoded; a miss is mapped, drained per chunk, published back to
	// the cache and parked as pairs. After ingest the parked output
	// folds back into the container on every compute worker and the job
	// finishes like an unmemoized one (reduce, then merge). Requires an
	// app whose key/value types have spill codecs. Composes with Nodes:
	// the fold is per node (CombinerOff decodes a hit to the chunk's run).
	MemoStore *memo.Store
	// MemoSpace namespaces memo cache keys (application identity plus
	// any parameters that change its output for the same input bytes).
	MemoSpace string
	// Egress, when set, makes writing the merged pairs across the IO
	// lanes the finish's last phase (Result.Egress); Run sets its Pool.
	Egress *egress.Config
}

// ingestResult is one prefetched chunk: the chunk (nil at EOF) and the
// terminal error.
type ingestResult struct {
	c   *chunk.Chunk
	err error
}

// Run launches the SupMR runtime (the run_ingestMR() API call): it
// drives the ingest chunk pipeline over the stream, reduces once, and
// merges with the configured algorithm. The container persists across
// all map rounds unless a drain step (MemoryBudget, MemoStore,
// CombinerOff) empties it into key-sorted runs along the way. If
// opts.Pool is nil a job pool is created here and torn down on return;
// either way every phase, the prefetch ingest too, runs on that pool.
func Run[K comparable, V any](app kv.App[K, V], input chunk.Stream, cont container.Container[K, V], opts Options) (*Result[K, V], error) {
	if opts.Pool == nil {
		// Egress may fan wider than ingest: size the IO lanes for both.
		lanes := opts.IOLanes
		if opts.Egress != nil {
			lanes = max(lanes, opts.Egress.Lanes)
		}
		own := exec.NewPool(nil, exec.Config{Workers: opts.Workers, IOWorkers: lanes})
		defer own.Close()
		opts.Pool = own
	}
	if opts.Timer == nil {
		opts.Timer = metrics.NewTimer(opts.Pool.Now)
	}
	pool, timer := opts.Pool, opts.Timer

	// Fresh container at job start; never again (unless the ablation
	// flag asks for the broken behaviour).
	cont.Reset()

	// The fixed-key sort fast path: resolved here, and only here, so
	// every drain, the external merge and the in-memory finish all
	// agree on it.
	var fixed *kv.FixedKeyCodec[K]
	if !opts.RadixDisabled {
		fixed = kv.FixedKeyOf[K, V](app)
	}

	// The memo cache, the node exchange and the spiller are resolved up
	// front so jobs whose key/value types cannot serialize refuse to
	// start instead of failing at the first publish, frame or spill.
	if opts.MemoryBudget > 0 && (opts.MemoStore != nil || opts.Nodes > 0) {
		return nil, errors.New("core: MemoryBudget cannot bound a memoized or multi-node run (parked per-chunk output and node containers have no spill path)")
	}
	var cache *memo.Cache[K, V]
	if opts.MemoStore != nil {
		var err error
		cache, err = memo.NewCache[K, V](opts.MemoStore, opts.MemoSpace)
		if err != nil {
			return nil, err
		}
	}
	var exchange *shuffle.Exchange[K, V]
	if opts.Nodes > 0 {
		var err error
		exchange, err = shuffle.NewExchange[K, V](opts.Topology, faults.NewRetrier(opts.Retry, opts.Clock, opts.FaultCounters))
		if err != nil {
			return nil, err
		}
	}
	// conts[n] is node n's persistent container. Single-node runs, and
	// multi-node runs that exchange every chunk's run as drained
	// (perChunk, the combiner ablation), map every chunk into the caller's.
	conts := []container.Container[K, V]{cont}
	perChunk := exchange != nil && opts.CombinerOff
	for exchange != nil && !perChunk && len(conts) < opts.Nodes {
		conts = append(conts, cont.New())
	}

	// The drain step, chosen once: when a container is emptied into a
	// key-sorted run, and under which phase and task label. Memo and
	// perChunk runs drain after every chunk and park the run; a budgeted
	// run drains to the spill store when the container outgrows the
	// budget; otherwise the containers persist to the end of ingest.
	when, drainPhase, drainLabel := drainNever, metrics.PhaseSpill, "spill"
	var spiller *spill.Spiller[K, V]
	switch {
	case cache != nil:
		when, drainPhase, drainLabel = drainEveryChunk, metrics.PhaseMemo, "memo"
	case perChunk:
		when, drainPhase, drainLabel = drainEveryChunk, metrics.PhaseShuffle, "shuffle"
	case opts.MemoryBudget > 0:
		when = drainOverBudget
		if _, ok := any(cont).(container.Unspillable); ok {
			return nil, fmt.Errorf("core: container %T cannot spill (its footprint is fixed by construction); run without a memory budget", cont)
		}
		if opts.SpillStore == nil {
			return nil, fmt.Errorf("core: MemoryBudget requires a SpillStore")
		}
		var err error
		spiller, err = spill.NewSpiller(opts.SpillStore, opts.MemoryBudget, app)
		if err != nil {
			return nil, err
		}
		spiller.SetRetry(opts.Retry, opts.FaultCounters)
		spiller.SetFixedKey(fixed)
	}
	drainRadixRuns := 0 // radix-sorted drain groups, folded into Stats.RadixRuns
	drain := func(c container.Container[K, V], label string) ([]kv.Pair[K, V], error) {
		run, nRad, err := spill.DrainContainer(c, app.Less, app.Reduce, fixed, pool, label)
		drainRadixRuns += nRad
		return run, err
	}
	// The phases the loop bills to: a stream whose first chunk is its
	// whole input has nothing to overlap, so its first-chunk wait is the
	// read phase and its map wave the map phase; every other stream's
	// rounds fuse the two.
	whole := chunk.Whole(input)
	readPhase, mapPhase := metrics.PhaseReadMap, metrics.PhaseReadMap
	if whole {
		readPhase, mapPhase = metrics.PhaseRead, metrics.PhaseMap
	}
	// inPhase runs fn under phase p, suspending the map phase around it.
	inPhase := func(p metrics.Phase, fn func() error) error {
		timer.EndPhase(mapPhase)
		timer.StartPhase(p)
		err := fn()
		timer.EndPhase(p)
		timer.StartPhase(mapPhase)
		return err
	}

	lanes := opts.IOLanes
	if lanes < 1 {
		lanes = 1
	}
	if lanes > pool.IOLanes() {
		lanes = pool.IOLanes()
	}

	// next reads one chunk, wrapping a stream failure.
	next := func() (c *chunk.Chunk, err error) {
		if err = pool.Err(); err == nil {
			if c, err = input.Next(); err != nil && !errors.Is(err, io.EOF) {
				err = fmt.Errorf("core: ingest failed: %w", err)
			}
		}
		return c, err
	}
	// read is chosen once. An InterFile — every stream package chunk
	// builds — reads through a fetcher, whose chunk-buffer freelist keeps
	// steady-state ingest at O(d) buffers, with d = PrefetchDepth reads in
	// flight: Next runs here on the pump, issuing every read in stream
	// order (a panic in it fails the job as one in a lane task does), and
	// the waits run on the pool's IO lanes, attributed as IO wait. Any
	// other stream has nothing to fan out: its Next runs as one "ingest"
	// task on an IO lane, whose handle always resolves — normal return,
	// stream panic, cancellation or refused submission — so the pump can
	// always join it.
	inter, _ := input.(*chunk.InterFile)
	read := func() (c *chunk.Chunk, err error) {
		err = pool.GoIO("ingest", metrics.StateIOWait, func() (err error) {
			c, err = next()
			return err
		}).Wait()
		return c, err
	}
	if inter != nil {
		dispatch := func(bytes int64, fn func()) func() error {
			return pool.GoIOSized("ingest", metrics.StateIOWait, bytes, func() error { fn(); return nil }).Wait
		}
		list := opts.Freelist
		if list == nil {
			list = chunk.NewFreeList()
		}
		inter.SetFetcher(chunk.NewFetcherShared(lanes, dispatch, list))
		inter.SetReadAhead(opts.PrefetchDepth, pool.Now)
		read = func() (c *chunk.Chunk, err error) {
			defer func() {
				if v := recover(); v != nil {
					err = &exec.PanicError{Phase: "ingest", Task: -1, Value: v, Stack: debug.Stack()}
				}
			}()
			return next()
		}
	} else {
		lanes = 1
	}

	// The prefetch pump owns every stream read — and therefore every
	// fault decision and chunk-size resize — in strict serial order, and
	// hands each chunk over unbuffered: the next chunk is cut while the
	// mappers work on this one, the paper's double buffering, and an
	// InterFile's reads in flight run up to d chunks ahead.
	//
	// Shutdown: the pump exits after handing over a terminal result (EOF
	// or error), a whole-input stream's one chunk, or when stop closes;
	// it always joins the reads still in flight and closes the hand-off —
	// which the loop reads as end of input — so the failure path can
	// drain it, releasing the chunk the mappers never consumed.
	handoff := make(chan ingestResult)
	stop := make(chan struct{})
	var stopOnce sync.Once
	closeStop := func() { stopOnce.Do(func() { close(stop) }) }
	defer closeStop()
	var pendingResize atomic.Int64

	go func() {
		defer close(handoff)
		if inter != nil {
			defer inter.Drain()
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Apply the tuner's latest resize before issuing the next
			// read: a resize never tears a read already in flight, it
			// only affects chunks not yet issued.
			if n := pendingResize.Swap(0); n > 0 {
				inter.SetChunkSize(n)
			}
			c, err := read()
			select {
			case handoff <- ingestResult{c, err}:
				if err != nil || whole {
					return // the stream is complete
				}
			case <-stop:
				c.Release()
				return
			}
		}
	}()

	var stats Stats
	runMappers := func(c *chunk.Chunk, into container.Container[K, V]) (time.Duration, error) {
		start := pool.Now()
		if opts.ResetEachRound {
			into.Reset()
		}
		if ca, ok := any(app).(ChunkAware); ok {
			ca.SetData(c)
		}
		n, busy, err := MapWave(app, c.Data, into, opts)
		if err != nil {
			return 0, err
		}
		stats.Splits += n
		stats.MapBusy += busy
		stats.MapWaves++
		stats.BytesIngested += c.Size()
		return pool.Now() - start, nil
	}

	// fail aborts the job: the cancellation reaches the in-flight
	// prefetch between stream reads, the pump is stopped and the hand-off
	// drained — releasing the current and any unconsumed chunk — so no
	// ingest result is left behind when the pool shuts down, and an
	// in-flight spill write is joined so its run writer is not abandoned.
	var cur *chunk.Chunk
	fail := func(err error) (*Result[K, V], error) {
		pool.Abort(err)
		closeStop()
		cur.Release()
		for r := range handoff {
			r.c.Release()
		}
		if spiller != nil {
			spiller.Join() // the job error wins; the write ran or was refused
		}
		timer.EndPhase(readPhase)
		timer.EndPhase(mapPhase)
		return nil, err
	}

	// The ingest chunk pipeline (§III-B pseudo-code, with up to d chunk
	// reads in flight):
	//   ingest 1st chunk
	//   for each ingest chunk:
	//     pump keeps up to d chunk reads ahead
	//     run mappers on previous chunk
	//   run mappers on last chunk
	timer.StartPhase(readPhase)
	first := <-handoff
	if readPhase != mapPhase {
		timer.EndPhase(readPhase)
		timer.StartPhase(mapPhase)
	}
	if first.err != nil && !errors.Is(first.err, io.EOF) {
		return fail(first.err)
	}
	// parked is the every-chunk drain's sink: parked[i] is chunk i's
	// combined output — the freshly drained key-sorted run, or on a memo
	// hit the cache entry (still encoded unless perChunk needs its pairs).
	var parked []parkedChunk[K, V]
	cur = first.c
	for i := 0; cur != nil; i++ {
		target := conts[i%len(conts)]
		if err := pool.Err(); err != nil {
			return fail(err)
		}
		// Budget check between ingest rounds: drain an over-budget
		// container now — before this round's mappers refill it. The run
		// write lands on an IO lane and executes while the map round
		// computes (the pump keeps prefetching regardless).
		if when == drainOverBudget && spiller.Over(cont) {
			err := inPhase(drainPhase, func() error {
				if err := spiller.Join(); err != nil { // at most one spill write in flight
					return err
				}
				run, err := drain(cont, drainLabel)
				if len(run) > 0 {
					spiller.SpillAsync(run, pool)
				}
				return err
			})
			if err != nil {
				return fail(err)
			}
		}
		// Memo lookup, serial and in chunk order on the IO lane, so the
		// operation order any fault plan sees at the memo site is a pure
		// function of the input. A hit only fetches and validates the
		// payload; decoding waits for the fold. A cache failure (injected
		// fault, torn write caught by the digest, malformed payload) is
		// swallowed into a miss — the store counts it — and only a
		// pool-level error fails the job.
		var (
			out     parkedChunk[K, V]
			hit     bool
			memoKey memo.Key
		)
		if cache != nil {
			sum := cur.Sum
			if !cur.HasSum {
				sum = sha256.Sum256(cur.Data)
			}
			memoKey = cache.Key(sum)
			err := inPhase(metrics.PhaseMemo, func() error {
				return pool.GoIO("memo", metrics.StateIOWait, func() error {
					if perChunk {
						out.run, hit, _ = cache.Get(memoKey)
					} else {
						out.entry, hit, _ = cache.Fetch(memoKey)
					}
					return nil
				}).Wait()
			})
			if err != nil {
				return fail(err)
			}
		}
		// Give the ingest pump a scheduling slot so it reaches the
		// storage device (issuing its reservation and parking in the
		// device wait) before the mappers monopolize the CPUs; on
		// low-core machines it would otherwise start the read only
		// after the map wave finishes, defeating the double-buffering.
		runtime.Gosched()
		var (
			mapDur time.Duration
			mapErr error
		)
		if hit {
			// The chunk's bytes were read and hashed but are never
			// mapped: the cached output is parked for the finish.
			stats.MemoHits++
			stats.MemoBytesSaved += cur.Size()
			stats.BytesIngested += cur.Size()
		} else {
			mapDur, mapErr = runMappers(cur, target)
		}
		// The wave is done with the bytes: recycle the buffer. cur is
		// cleared so the failure path cannot release it a second time,
		// after the pump has reacquired it for a later read.
		cur.Release()
		cur = nil
		if mapErr != nil {
			return fail(mapErr)
		}
		if when == drainEveryChunk {
			if !hit {
				// Drain this chunk's combined output and, memoized,
				// publish it synchronously on the IO lane: lookup(i),
				// publish(i), lookup(i+1) is a deterministic op order,
				// and a failed publish only skips the cache entry, never
				// the job.
				err := inPhase(drainPhase, func() (err error) {
					if out.run, err = drain(target, drainLabel); err != nil || cache == nil {
						return err
					}
					stats.MemoMisses++
					return pool.GoIO("memo", metrics.StateIOWait, func() error {
						cache.Put(memoKey, out.run)
						return nil
					}).Wait()
				})
				if err != nil {
					return fail(err)
				}
			}
			parked = append(parked, out)
		}
		// Join the next chunk, counting how the prefetch performed: a chunk
		// already cut, or whose read had finished, is a prefetch hit;
		// otherwise the map workers sit idle for the stall time — the
		// per-round slice of Fig. 1's ingest/compute utilization gap.
		var r ingestResult
		select {
		case r = <-handoff:
			stats.PrefetchHits++
		default:
			stallStart := pool.Now()
			r = <-handoff
			if d := pool.Now() - stallStart; d > 0 {
				stats.IngestStall += d
				timer.Mark("ingest stall")
			}
			if inter != nil && r.c != nil {
				if _, done := r.c.ReadSpan(); done <= stallStart {
					stats.PrefetchHits++
				}
			}
		}
		cur = r.c
		if r.err != nil && !errors.Is(r.err, io.EOF) {
			return fail(r.err)
		}
		// Feedback loop: fold this round's observation — the next
		// chunk's read span and this map wave — into the tuner and
		// resize subsequent chunks. Durations are read off the job clock
		// (pool.Now), so simulated devices feed the tuner their virtual
		// timeline, not wall time. The resize is handed to the pump,
		// which applies it before the next read it issues.
		if opts.Tuner != nil && inter != nil && cur != nil {
			issued, done := cur.ReadSpan()
			if next := opts.Tuner.Next(cur.Size(), done-issued, mapDur); next > 0 {
				pendingResize.Store(next)
			}
		}
	}
	timer.EndPhase(mapPhase)
	if lanes > 1 {
		stats.IngestLaneBytes = pool.LaneBytes()
	}

	// The finish path. Runs that drained along the way were partially
	// reduced, so every variant re-reduces keys whose values were split
	// across drains — the associativity contract all drains rely on —
	// and the output is byte-identical whichever drain step ran.
	var (
		merged    []kv.Pair[K, V]
		rounds    = 1
		radixRuns int
		err       error
	)
	if cache != nil && !perChunk {
		// Every miss drained its container, so all are empty: fold each
		// container's chunks back in and finish like an unmemoized run.
		timer.StartPhase(metrics.PhaseMemo)
		for n := 0; n < len(conts) && err == nil; n++ {
			err = foldParked(cache, parked, n, len(conts), conts[n], pool)
		}
		timer.EndPhase(metrics.PhaseMemo)
		parked = nil
	}
	switch {
	case err != nil: // the fold failed
	case exchange != nil:
		// Each node hands the exchange its container's one drain or,
		// with the combiner ablated, its round-robin share of the parked
		// per-chunk runs; an empty run is not handed in.
		nodeRuns := make([][][]kv.Pair[K, V], opts.Nodes)
		give := func(n int, run []kv.Pair[K, V]) {
			stats.IntermediateN += len(run)
			if len(run) > 0 {
				nodeRuns[n] = append(nodeRuns[n], run)
			}
		}
		for i, p := range parked {
			give(i%opts.Nodes, p.run)
		}
		if !perChunk {
			timer.StartPhase(metrics.PhaseShuffle)
			for n := 0; n < len(conts) && err == nil; n++ {
				var run []kv.Pair[K, V]
				run, err = drain(conts[n], "shuffle")
				give(n, run)
			}
			timer.EndPhase(metrics.PhaseShuffle)
		}
		if err == nil {
			var c shuffle.Counters
			merged, c, err = exchange.Run(app, nodeRuns, pool, timer)
			stats.ShuffleBytes, stats.ShuffleFrames, stats.Runs, stats.ReduceBusy = c.Bytes, c.Frames, c.Runs, c.ReduceBusy
		}
	default:
		stats.IntermediateN = cont.Len()
		merged, rounds, radixRuns, err = reduceAndMerge(app, cont, fixed, opts, spiller, &stats)
	}
	var out *egress.Output
	if err == nil && opts.Egress != nil {
		timer.StartPhase(metrics.PhaseEgress)
		out, err = writeEgress(*opts.Egress, pool, merged, &stats)
		timer.EndPhase(metrics.PhaseEgress)
	}
	if err != nil {
		pool.Abort(err)
		return nil, err
	}
	stats.MergeRounds = rounds
	stats.RadixRuns = radixRuns + drainRadixRuns
	stats.OutputPairs = len(merged)
	stats.Tasks = pool.TaskStats()
	if out != nil {
		stats.EgressBusy, stats.EgressStall = stats.Tasks["egress"].Busy, stats.Tasks["egress"].QueueWait
	}
	return &Result[K, V]{Pairs: merged, Times: timer.Finish(), Stats: stats, Egress: out}, nil
}

// drainWhen is the pipeline's one drain decision: when a container is
// emptied into a key-sorted run while ingest is still running.
type drainWhen int

const (
	drainNever      drainWhen = iota // the containers persist to the end of ingest
	drainOverBudget                  // whenever it outgrows MemoryBudget, to the spill store
	drainEveryChunk                  // after every map wave, parked in memory
)

// parkedChunk is one chunk's combined output waiting for the finish:
// the drained key-sorted run, or — on a memo hit whose pairs are not
// exchanged per chunk — the fetched cache entry, left encoded.
type parkedChunk[K comparable, V any] struct {
	run   []kv.Pair[K, V]
	entry memo.Entry
}

// foldParked re-emits the parked output of a memoized run's chunks
// first, first+stride, ... (all of them, or one node's round-robin
// share) into the empty container cont, one task and one container Local
// per compute worker, each taking every Workers-th of those chunks.
// Cache entries decode straight into the Local (see memo.Cache.Replay);
// drained runs are emitted pair by pair. The parked values were reduced
// per chunk, so this relies on the container contract that re-emitting
// reduced runs and reducing again equals reducing once.
func foldParked[K comparable, V any](cache *memo.Cache[K, V], parked []parkedChunk[K, V], first, stride int,
	cont container.Container[K, V], pool exec.Executor) error {
	workers := pool.Workers()
	_, err := pool.ForEach("memo", metrics.StateUser, workers, func(w int) error {
		local := cont.NewLocal()
		for i := first + w*stride; i < len(parked); i += workers * stride {
			if err := cache.Replay(parked[i].entry, local); err != nil {
				return err
			}
			for _, p := range parked[i].run {
				local.Emit(p.Key, p.Val)
			}
		}
		local.Flush()
		return nil
	})
	return err
}

// reduceAndMerge finishes a job whose container holds the intermediate
// set at the end of ingest — persisted there, or folded back by a
// memoized run: reduce what is resident, then merge it — together with
// every spilled run when the budget forced drains. fixed is the job's
// fixed-key codec (nil without one); opts carries the job's pool and
// timer.
func reduceAndMerge[K comparable, V any](app kv.App[K, V], cont container.Container[K, V], fixed *kv.FixedKeyCodec[K], opts Options,
	spiller *spill.Spiller[K, V], stats *Stats) ([]kv.Pair[K, V], int, int, error) {
	timer := opts.Timer
	// Join the last spill write before reducing: the merge below must
	// see every run complete. The residue still in the container is
	// never spilled — it feeds the merge from memory.
	if spiller != nil {
		timer.StartPhase(metrics.PhaseSpill)
		err := spiller.Join()
		timer.EndPhase(metrics.PhaseSpill)
		if err != nil {
			return nil, 0, 0, err
		}
		stats.SpilledRuns = spiller.RunCount()
		stats.SpilledBytes = spiller.BytesSpilled()
	}

	timer.StartPhase(metrics.PhaseReduce)
	runs, reduceBusy, err := ReducePhase(app, cont, opts)
	timer.EndPhase(metrics.PhaseReduce)
	if err != nil {
		return nil, 0, 0, err
	}
	stats.Runs = len(runs) + stats.SpilledRuns
	stats.ReduceBusy = reduceBusy
	if stats.SpilledRuns == 0 {
		return mergePhase(app, runs, fixed, opts)
	}

	// The budgeted merge: the in-memory residue's runs (their keys are
	// disjoint) finish into one resident run by mergePhase's p-way path
	// — one scatter round when the app has a fixed-key codec — then one
	// block-streamed loser-tree pass consumes it together with every
	// on-disk run, which the IO lanes read and decode a block ahead of
	// it. The round count stays 1 — spilling adds merge sources, not
	// merge rounds, preserving the paper's single-round property (§IV).
	opts.Merge = sortalgo.MergePWay
	residue, _, radixRuns, err := mergePhase(app, runs, fixed, opts)
	if err != nil {
		return nil, 0, 0, err
	}
	timer.StartPhase(metrics.PhaseMerge)
	defer timer.EndPhase(metrics.PhaseMerge)
	merged, err := spiller.Merge(residue, opts.Pool, "merge")
	return merged, 1, radixRuns, err
}

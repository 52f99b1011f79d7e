// Package supmr is a Go reproduction of "SupMR: Circumventing Disk and
// Memory Bandwidth Bottlenecks for Scale-up MapReduce" (Sevilla et al.,
// 2014): a scale-up MapReduce runtime whose ingest chunk pipeline
// overlaps reading input with map computation and whose merge phase runs
// a single-round parallel p-way merge instead of iterative pairwise
// merging.
//
// This package is the public facade. Applications implement Job (map,
// reduce, key ordering), pick an intermediate container matched to their
// key distribution, and call Run with a Config. The zero Config is the
// SupMR pipeline, RuntimeTraditional the preset that makes it the
// Phoenix++ baseline; every other knob takes effect or Validate refuses it:
//
//	cfg := supmr.Config{ChunkBytes: 1 << 20}
//	report, err := supmr.RunBytes[string, int64](supmr.WordCountJob(), data,
//	        supmr.NewHashContainer[string, int64](64, supmr.HashString, sum), cfg)
//
// The heavy machinery lives in internal packages: internal/core (the
// pipeline and its phase primitives, egress last, the baseline included),
// internal/container, internal/chunk, internal/sortalgo, plus the
// simulated substrates internal/storage, internal/netsim, internal/hdfs
// and the paper-scale performance model internal/perfmodel.
package supmr

import (
	"context"
	"errors"
	"fmt"
	"time"

	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/core"
	"supmr/internal/egress"
	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/metrics"
	"supmr/internal/shuffle"
	"supmr/internal/sortalgo"
	"supmr/internal/spill"
	"supmr/internal/storage"
	"supmr/internal/tuner"
)

// Job is the user application: Map parses an input split into key-value
// pairs, Reduce folds the values of one key, and Less orders keys for
// the merged output. Implement Combiner (Combine(a, b V) V) to let hash
// and array containers fold values eagerly.
type Job[K comparable, V any] = kv.App[K, V]

// Pair is a key-value pair.
type Pair[K any, V any] = kv.Pair[K, V]

// Emitter receives pairs from Map.
type Emitter[K any, V any] = kv.Emitter[K, V]

// Container stores intermediate pairs between map and reduce.
type Container[K comparable, V any] = container.Container[K, V]

// Boundary locates record boundaries for chunking and splitting.
type Boundary = chunk.Boundary

// Input is any byte source the runtimes can ingest: simulated local
// files, HDFS files, or in-memory buffers.
type Input = chunk.Input

// Stream produces ingest chunks.
type Stream = chunk.Stream

// Chunk is one ingested unit of input.
type Chunk = chunk.Chunk

// MergeAlgo selects the merge-phase algorithm.
type MergeAlgo = sortalgo.MergeAlgo

// Merge algorithm choices.
const (
	// MergePairwise is the original Phoenix iterative merge sort.
	MergePairwise = sortalgo.MergePairwise
	// MergePWay is SupMR's single-round parallel p-way merge.
	MergePWay = sortalgo.MergePWay
)

// Boundaries for common record formats.
var (
	// NewlineRecords marks '\n'-terminated records (text).
	NewlineRecords Boundary = chunk.NewlineBoundary{}
	// CRLFRecords marks "\r\n"-terminated records (terasort).
	CRLFRecords Boundary = chunk.CRLFBoundary{}
)

// FixedRecords marks fixed-width records of the given byte width.
func FixedRecords(width int64) Boundary { return chunk.FixedBoundary{Width: width} }

// Runtime selects the SupMR pipeline (the zero value) or the
// RuntimeTraditional preset over it.
type Runtime int

// Runtime choices.
const (
	// RuntimeSupMR, the zero value, is the paper's contribution: the
	// ingest chunk pipeline, a persistent container and the p-way merge.
	RuntimeSupMR Runtime = iota
	// RuntimeTraditional is the Phoenix++ baseline of Table II as a preset
	// over the same pipeline, the n = 1 case of §III-B's n+1 rounds: the
	// input read whole, file by file, as one chunk (read and map reported
	// as separate phases), merged pairwise unless Merge says otherwise. It
	// sets aside ChunkBytes, FilesPerChunk, HybridChunks, AdaptiveChunks,
	// IOLanes and PrefetchDepth, and Validate refuses it with Memo, Nodes,
	// MemoryBudget or ResetEachRound, which each need more than one round.
	RuntimeTraditional
)

// String names the runtime.
func (r Runtime) String() string {
	if r == RuntimeTraditional {
		return "traditional"
	}
	return "supmr"
}

// Config controls an execution. The zero value runs the SupMR pipeline
// over the whole input as one chunk; set ChunkBytes to pipeline it.
type Config struct {
	// Runtime is RuntimeSupMR (the zero value) or the traditional preset.
	Runtime Runtime
	// Context, when set, bounds the job: cancelling it makes the run
	// abort promptly (ingest between chunks, phases between tasks) and
	// return the cancellation cause, typically context.Canceled.
	// RunContext is the usual way to set it.
	Context context.Context
	// Workers is the number of worker goroutines per phase
	// (default: GOMAXPROCS; on an Engine, its whole worker count).
	Workers int
	// Splits is the number of input splits per map wave
	// (default: 4*Workers).
	Splits int
	// ChunkBytes is the inter-file ingest chunk size of a single-file
	// input. Zero means the whole input arrives as a single chunk.
	ChunkBytes int64
	// FilesPerChunk enables intra-file chunking over multi-file inputs:
	// that many files coalesce into each ingest chunk.
	FilesPerChunk int
	// Merge overrides the merge algorithm. By default SupMR uses the
	// p-way merge and the RuntimeTraditional preset merges pairwise.
	Merge *MergeAlgo
	// RadixSort overrides the fixed-width-key sort fast path (the
	// scatter finish, the radix run sort and the merge tree's prefix
	// heads). nil — the default — and
	// &true enable it for apps that opt in via kv.FixedKeyApp; &false
	// is the -radixsort=off ablation, forcing every run onto the
	// comparison sort. Output is byte-identical either way.
	RadixSort *bool
	// Boundary adjusts chunk and split cut points to record boundaries
	// (default: newline).
	Boundary Boundary
	// TraceContexts, when positive, enables CPU-utilization tracing
	// normalized to that many hardware contexts: the job's task spans,
	// integrated per bucket and clamped at 100 %, solo or on an engine.
	TraceContexts int
	// TraceBucket is the utilization trace bucket width
	// (default: 100ms).
	TraceBucket time.Duration
	// Clock provides time for phase measurement; defaults to a fresh
	// wall clock. Pass the storage clock so device waits and phase
	// times share a timeline.
	Clock storage.Clock
	// ResetEachRound re-initializes the container at every map round —
	// the broken traditional behaviour, exposed only for the
	// persistent-container ablation.
	ResetEachRound bool
	// AdaptiveChunks enables the chunk-size feedback loop (the paper's
	// §VIII future work): the pipeline observes each round's ingest and
	// map durations and retunes the ingest chunk size. ChunkBytes is
	// the starting size; without it the static advisor picks one. It
	// needs a resizable stream: RunFile and StreamFile build one, and
	// RunFiles and StreamFiles refuse the knob.
	AdaptiveChunks bool
	// HybridChunks selects hybrid inter/intra-file chunking for
	// multi-file inputs (RunFiles): small files coalesce up to
	// ChunkBytes while oversized files are split at ChunkBytes.
	HybridChunks bool
	// MemoryBudget caps the intermediate container's resident bytes. When
	// positive, the pipeline drains an over-budget container to key-sorted
	// runs on SpillDevice between ingest rounds, and the merge streams them
	// back in its single p-way round: output is identical to an
	// unbudgeted run. Zero means unbudgeted. Requires a releasable
	// container (hash or key-range, not array) and codec-supported
	// key/value types (string, []byte, int, int64, uint64, float64).
	// Validate refuses it beside Memo and Nodes, which have no spill path.
	MemoryBudget int64
	// SpillDevice charges the spill runs' IO time; point it at the
	// ingest device so spill traffic contends for the same bandwidth.
	// Defaults to an infinitely fast device on the config clock.
	SpillDevice Device
	// Faults, when set, injects the injector's deterministic fault plan
	// into the job: ingest reads (RunFile/RunFiles/RunBytes inputs) and
	// the spill path (device reservations and run payloads). HDFS-side
	// faults are configured separately via HDFSConfig.Faults. Build with
	// NewFaultInjector; share one injector per job.
	Faults *FaultInjector
	// Retry retries transient injected faults with capped exponential
	// backoff on the job clock: ingest reads retry at the failed ReadAt
	// and spill writes rewrite the whole torn run. Permanent faults and
	// genuine errors fail immediately. The zero policy disables retries.
	Retry RetryPolicy
	// IOLanes is the number of dedicated IO workers ingest fans out
	// across: each chunk read is split into up to IOLanes shares whose
	// device waits overlap — the striped multi-lane ingest path. A share
	// goes out as several requests of at most 128 KiB, all issued
	// together and waited in turn by its lane, so every member disk of a
	// stripe keeps a queue. On an HDFS input the shares fetch their
	// blocks from distinct datanodes in parallel. <= 1 (the default)
	// keeps the paper's single ingest thread, one request per read. A
	// whole-input read (ChunkBytes 0) is split like any other; the
	// RuntimeTraditional preset sets the knob aside and reads on one lane.
	IOLanes int
	// PrefetchDepth is the ingest depth d: how many chunks are kept in
	// flight ahead of the map wave. <= 1 (the default) is the paper's
	// double buffering — exactly one chunk ahead. Every stream RunFile,
	// RunFiles and RunBytes build keeps d chunk reads outstanding on the
	// device, on max(d, 2) chunk buffers; a stream of the caller's own is
	// read one chunk ahead.
	PrefetchDepth int
	// Engine, when set, submits the job to a shared multi-job Engine
	// instead of creating a dedicated worker pool: the run passes
	// admission control, receives a memory grant carved from the
	// engine's global budget (MemoryBudget becomes the request, the
	// grant may be smaller), and its operations interleave with
	// concurrent jobs under the fair-share scheduler. Every mode —
	// Memo, Nodes, MemoryBudget, egress — runs on an engine exactly as
	// it does solo, byte-identical, with a report of the same shape.
	// Workers and IOLanes cap this submission's share of the engine: its
	// waves run on at most Workers of the engine's workers and its chunk
	// reads fan over at most IOLanes of its lanes, and values above the
	// engine's size are clamped to it. A trace covers this submission's
	// work only.
	Engine *Engine
	// Tenant names the submitting tenant for the engine's per-tenant
	// stats rollup (engine mode only; "" rolls up under "default").
	Tenant string
	// Weight is the job's fair-share weight on the engine's operation
	// scheduler (engine mode only; minimum and default 1 — a weight-2
	// job receives twice the operation service of a weight-1 job; 0
	// selects the default, and Validate refuses negative values).
	Weight int
	// Memo enables content-addressed incremental recompute (single-file
	// inputs): ingest switches to content-defined chunking (appends and
	// local edits do not shift downstream chunks), each chunk's
	// map/combine output is memoized in a MemoStore keyed by the chunk's
	// content hash, and a chunk whose key hits the cache skips the map
	// wave — its cached output is parked, still encoded. After ingest the
	// compute workers fold the parked output back into the container and
	// the run finishes like a memo-off run, byte-identical to it.
	// ChunkBytes sizes the chunks (min ChunkBytes/2, target ChunkBytes,
	// max 2*ChunkBytes). Memo is the pipeline's drain-after-every-chunk
	// step; it composes with Engine and Nodes, and Validate lists what it
	// excludes, MemoryBudget among them.
	Memo bool
	// MemoStore is the cache a memoized run uses. Nil selects the
	// engine's shared store (engine mode, EngineConfig.Memo) or, solo, a
	// private store living only for this run. Share one store across
	// runs to make re-runs incremental. Jobs with different key/value
	// types or different applications sharing a store must use distinct
	// MemoKeySpace values.
	MemoStore *MemoStore
	// MemoKeySpace namespaces this job's cache entries within the store
	// so distinct applications never replay each other's output ("" is a
	// valid shared namespace).
	MemoKeySpace string
	// MemoBudget caps the private store a memoized run builds when
	// neither MemoStore nor an engine store is supplied (default 64 MiB).
	// A supplied store has its own budget, so Validate refuses MemoBudget
	// beside either.
	MemoBudget int64
	// Nodes, when >= 1, runs the job on a simulated cluster of that many
	// SupMR worker nodes: the same ingest loop over one persistent
	// container per node (the caller's and Nodes-1 built like it). Chunk
	// i is mapped into node i % Nodes's container, which is drained once
	// after ingest into the node's key-sorted run; the runs are cut at
	// sampled splitters and node n merges the n-th key range, shipped over
	// simulated links (internal/shuffle, DESIGN.md §15). Output is
	// byte-identical to a single-node run; 1 is the degenerate one-node
	// cluster on the same code path, 0 the scale-up pipeline. Requires
	// codec-supported key/value types. Composes with Engine, Memo, IOLanes
	// and PrefetchDepth; Validate lists what it excludes, MemoryBudget
	// among them.
	Nodes int
	// InNodeCombiner gates the in-node combiner tier of a multi-node
	// run: the node's persistent container, which combines every chunk
	// the node maps before anything is partitioned for transmission.
	// nil — the default — and &true enable it; &false is the
	// -innode-combiner=off ablation, draining the container after every
	// chunk and transmitting every per-chunk run as-is. Output is
	// byte-identical either way (destination merges re-reduce); only
	// Stats.ShuffleBytes and ShuffleFrames change.
	InNodeCombiner *bool
	// NodeLinkBW is each node port's bandwidth in bytes/sec for a
	// multi-node run (default GigabitLinkBW); NodeLinkLatency is the
	// per-transfer one-way latency (default 0). Shuffle transfer time
	// lands on the job clock like any other simulated IO.
	NodeLinkBW      float64
	NodeLinkLatency time.Duration
	// EgressLanes, when >= 1, materializes the merged output after the
	// merge phase: pairs are rendered one "key\tvalue\n" line each (the
	// digest encoding), the stream is cut into fixed-size extents and
	// the extents are written concurrently across up to EgressLanes IO
	// lanes — the "parallel restore" pattern that removes the serial
	// output tail. 1 is the serial-writer ablation (-egress-lanes=1);
	// output bytes and the extent manifest are byte-identical at any
	// lane count. The materialized output lands in Report.Egress, which
	// implements Input so it can feed a subsequent job's ingest without
	// a file round-trip (see internal/dag). 0, the default, skips
	// output materialization entirely (the Report's in-memory pairs are
	// the only output, as before).
	EgressLanes int
	// EgressExtentBytes is the egress extent size (default 256 KiB).
	EgressExtentBytes int64
	// EgressDevice charges egress write time; point it at the ingest
	// device so output traffic contends for the same bandwidth. Nil
	// models a free output path.
	EgressDevice Device
}

// Report is the outcome of a run: globally key-sorted output pairs,
// per-phase times (the paper's Table II row), execution statistics, and
// the utilization trace when tracing was enabled.
type Report[K comparable, V any] struct {
	Pairs []Pair[K, V]
	Times metrics.PhaseTimes
	Stats Stats
	// Trace is the job's utilization trace (present when TraceContexts
	// was set), built from its own task spans and rooted at its start.
	Trace *metrics.Trace
	// Markers are phase-boundary annotations for the trace (present when
	// tracing was enabled), stamped on the job clock; render with
	// Trace.AnnotatedASCII.
	Markers []metrics.Marker
	// SpillBytes samples cumulative bytes spilled over the job timeline,
	// one point per run written (empty when no memory budget was set or
	// nothing spilled).
	SpillBytes []metrics.SeriesPoint
	// Egress is the materialized output when Config.EgressLanes was set:
	// the merged pairs rendered one "key\tvalue\n" line each, written as
	// checksummed extents with a stitching manifest. It implements Input,
	// so it can be streamed into another job's ingest directly.
	Egress *EgressOutput
}

// EgressOutput is a materialized parallel-egress output: a stitched,
// manifest-verified view over the written extents that also implements
// Input (see internal/egress).
type EgressOutput = egress.Output

// Stats re-exports the execution statistics type found in
// Report.Stats, including the spill counters SpilledRuns/SpilledBytes.
type Stats = core.Stats

func (c Config) clock() storage.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return storage.NewRealClock()
}

func (c Config) boundary() Boundary {
	if c.Boundary != nil {
		return c.Boundary
	}
	return NewlineRecords
}

func (c Config) radixDisabled() bool {
	return c.RadixSort != nil && !*c.RadixSort
}

func (c Config) innodeCombinerOff() bool {
	return c.InNodeCombiner != nil && !*c.InNodeCombiner
}

// Validate reports the first contradiction in the configuration. It is
// the one statement of the mode rules: Run and StreamFile check them
// before anything is read, and the CLI and jobspec call it on the Config
// they build.
func (c Config) Validate() error {
	_, _, err := c.resolve()
	return err
}

// resolve is Validate plus the RuntimeTraditional preset, applied here
// and nowhere else (it is the one reader of c.Runtime): it returns the
// settings the run uses, with Merge always set and, under the preset,
// the chunk-shape knobs set aside, and whether the input is read whole.
// Memo and Nodes both bind a chunk to what is done with its output (a
// cache key, a node's container), so they share the rules below.
func (c Config) resolve() (cfg Config, whole bool, err error) {
	if c.EgressLanes < 0 {
		return c, false, fmt.Errorf("supmr: EgressLanes must be positive, got %d", c.EgressLanes)
	}
	if c.EgressExtentBytes < 0 {
		return c, false, fmt.Errorf("supmr: EgressExtentBytes must be positive, got %d", c.EgressExtentBytes)
	}
	if c.Weight < 0 {
		return c, false, fmt.Errorf("supmr: negative weight %d: Weight, the engine fair-share weight, must be at least 1 (0 selects the default)", c.Weight)
	}
	if c.MemoBudget > 0 && (c.MemoStore != nil || c.Engine != nil && c.Engine.memo != nil) {
		return c, false, errors.New("supmr: MemoBudget is incompatible with a supplied memo store (MemoStore or the engine's shared store): the store's own budget governs")
	}
	merge, whole := MergePWay, c.Runtime == RuntimeTraditional
	if whole {
		for _, k := range []struct {
			name string
			set  bool
		}{{"Memo", c.Memo}, {"Nodes", c.Nodes > 0}, {"MemoryBudget", c.MemoryBudget > 0}, {"ResetEachRound", c.ResetEachRound}} {
			if k.set {
				return c, false, fmt.Errorf("supmr: %s is incompatible with RuntimeTraditional (the preset reads the whole input as one chunk: there is nothing to memoize, shard, bound or reset per chunk)", k.name)
			}
		}
		c.ChunkBytes, c.FilesPerChunk, c.HybridChunks, c.AdaptiveChunks, c.IOLanes, c.PrefetchDepth = 0, 0, false, false, 0, 0
		merge = MergePairwise
	}
	if c.Merge == nil {
		c.Merge = &merge
	}
	if c.Memo && c.ChunkBytes <= 0 {
		return c, false, errors.New("supmr: Memo requires ChunkBytes > 0 (content-defined chunk sizes derive from it)")
	}
	if !c.Memo && c.Nodes <= 0 {
		return c, whole, nil
	}
	knob, keeps, reset := "Nodes", "a node's container holds everything the node mapped until the exchange",
		"resetting a node's container every round would discard the map output it holds for the exchange"
	if c.Memo {
		knob, keeps, reset = "Memo", "a memoized run parks every chunk's output in memory and finishes resident",
			"the container is already drained after every chunk"
	}
	switch {
	case c.MemoryBudget > 0:
		return c, false, fmt.Errorf("supmr: MemoryBudget is incompatible with %s (%s, with no spill path for a budget to bound)", knob, keeps)
	case c.AdaptiveChunks:
		return c, false, fmt.Errorf("supmr: %s is incompatible with AdaptiveChunks (retuned chunk sizes would make chunk boundaries, and with them cache keys and node routing, depend on timing)", knob)
	case c.ResetEachRound:
		return c, false, fmt.Errorf("supmr: %s is incompatible with ResetEachRound (%s)", knob, reset)
	}
	return c, whole, nil
}

// Run executes the job over an explicit chunk stream. Most callers use
// RunFile, RunFiles or RunBytes, which build the stream.
//
// Every phase runs on one persistent worker pool created here for the
// job (the execution engine of internal/exec): map, reduce, sort and
// merge draw compute workers from it, ingest runs on its dedicated IO
// worker, and cfg.Context cancellation or a panicking task aborts the
// whole pipeline with a job error. With cfg.Engine set, the job is
// instead submitted to the shared multi-job engine (see Engine).
func Run[K comparable, V any](job Job[K, V], input Stream, cont Container[K, V], cfg Config) (*Report[K, V], error) {
	if job == nil {
		return nil, errors.New("supmr: nil job")
	}
	if input == nil {
		return nil, errors.New("supmr: nil input stream")
	}
	if cont == nil {
		return nil, errors.New("supmr: nil container")
	}
	cfg, whole, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if whole {
		input = chunk.NewWholeInput(input)
	}
	if cfg.Engine != nil {
		return runOnEngine(cfg.Engine, job, input, cont, cfg)
	}
	clk := cfg.clock()
	timer := metrics.NewTimer(clk.Now)
	// Egress may fan wider than ingest: size the IO pool for the wider
	// of the two so egress extents actually overlap.
	pool := exec.NewPool(cfg.Context, exec.Config{
		Workers:   cfg.Workers,
		IOWorkers: max(cfg.IOLanes, cfg.EgressLanes),
		Now:       clk.Now,
	})
	defer pool.Close()
	return runWithExecutor(job, input, cont, cfg, runSubstrate{
		pool:   pool,
		clk:    clk,
		timer:  timer,
		budget: cfg.MemoryBudget,
	})
}

// runSubstrate is the execution substrate a run is bound to: a
// dedicated pool for a solo run, a JobPool handle plus shared freelist
// and budget grant in engine mode.
type runSubstrate struct {
	pool  exec.Executor
	clk   storage.Clock
	timer *metrics.Timer
	// budget is the container-residency cap for this run: the config's
	// MemoryBudget for a solo run, the engine's carved grant otherwise.
	budget int64
	// frees, when set, is the engine's shared chunk-buffer freelist.
	frees *chunk.FreeList
	// memo, when set, is the engine's shared memo store, used by
	// memoized submissions that bring no store of their own.
	memo *MemoStore
}

// runWithExecutor is the body shared by solo and engine-mode runs over a
// resolved config: it builds the spill store when a budget is granted,
// runs core.Run on the substrate's executor, and assembles the
// substrate-independent part of the Report — its trace too, from the
// executor's spans, which are this job's alone on either substrate.
func runWithExecutor[K comparable, V any](job Job[K, V], input Stream, cont Container[K, V], cfg Config, sub runSubstrate) (*Report[K, V], error) {
	if cfg.TraceContexts > 0 {
		sub.timer.WithMarkers()
	}
	var store *spill.Store
	if sub.budget > 0 {
		dev := cfg.SpillDevice
		if dev == nil {
			dev = storage.NewNullDevice(sub.clk)
		}
		sc := spill.StoreConfig{Device: dev}
		if cfg.Faults != nil {
			// Site "spill" covers run-read reservations; each run's payload
			// is its own "runN" site so torn writes hit individual runs.
			sc.Device = cfg.Faults.WrapDevice("spill", dev)
			sc.Backing = faultBacking{inj: cfg.Faults, inner: spill.MemBacking{}}
		}
		var err error
		store, err = spill.NewStore(sc)
		if err != nil {
			return nil, err
		}
		defer store.Close()
	}
	co := core.Options{
		Splits:        cfg.Splits,
		Merge:         *cfg.Merge,
		Boundary:      cfg.boundary(),
		RadixDisabled: cfg.radixDisabled(),
		Timer:         sub.timer,
		Pool:          sub.pool,
		Topology: shuffle.Topology{
			Nodes:       cfg.Nodes,
			CombinerOff: cfg.innodeCombinerOff(),
			LinkBW:      cfg.NodeLinkBW,
			LinkLatency: cfg.NodeLinkLatency,
			Clock:       sub.clk,
			Injector:    cfg.Faults,
		},
		ResetEachRound: cfg.ResetEachRound,
		MemoryBudget:   sub.budget,
		SpillStore:     store,
		Retry:          cfg.Retry,
		FaultCounters:  cfg.faultCounters(),
		PrefetchDepth:  cfg.PrefetchDepth,
		IOLanes:        cfg.IOLanes,
		Freelist:       sub.frees,
		MemoSpace:      cfg.MemoKeySpace,
	}
	if cfg.EgressLanes > 0 {
		co.Egress = &egress.Config{
			Lanes:       cfg.EgressLanes,
			ExtentBytes: cfg.EgressExtentBytes,
			Device:      cfg.EgressDevice,
			Injector:    cfg.Faults,
			Retry:       cfg.Retry,
			Clock:       sub.clk,
			Counters:    cfg.faultCounters(),
		}
	}
	if cfg.Memo {
		memoSt, owned, err := cfg.memoStoreFor(sub)
		if err != nil {
			return nil, err
		}
		if owned {
			defer memoSt.Close()
		}
		co.MemoStore = memoSt.store
	}
	if rs, ok := input.(*chunk.InterFile); ok && cfg.AdaptiveChunks {
		// The stream was cut at the starting size (StreamFile picked it);
		// the feedback loop refines it from there.
		lim := tuner.Limits{Min: 64 << 10}
		if total := input.TotalBytes(); total > 0 {
			lim.Max = total / 2
		}
		co.Tuner = tuner.NewController(tuner.ControllerConfig{Initial: rs.ChunkSize(), Limits: lim})
	}
	res, err := core.Run(job, input, cont, co)
	if err != nil {
		return nil, err
	}
	rep := &Report[K, V]{Pairs: res.Pairs, Times: res.Times, Stats: res.Stats, Egress: res.Egress}
	rep.Stats.Faults = cfg.faultCounters().Snapshot()
	if store != nil {
		rep.SpillBytes = store.Series()
	}
	if cfg.TraceContexts > 0 {
		bucket := cfg.TraceBucket
		if bucket <= 0 {
			bucket = 100 * time.Millisecond
		}
		start := sub.timer.Start()
		rep.Trace = metrics.BuildTrace(sub.pool.Spans(), cfg.TraceContexts, bucket, start, start+rep.Times.Total)
		rep.Markers = sub.timer.Markers()
	}
	return rep, nil
}

// RunContext is Run bounded by ctx: cancelling ctx aborts the job
// promptly (within the current round) and the call returns the
// cancellation cause — context.Canceled for a plain cancel. RunFile,
// RunFiles and RunBytes honour the same context via cfg.Context.
func RunContext[K comparable, V any](ctx context.Context, job Job[K, V], input Stream, cont Container[K, V], cfg Config) (*Report[K, V], error) {
	cfg.Context = ctx
	return Run(job, input, cont, cfg)
}

// RunFile executes the job over a single (possibly simulated) file,
// chunked per the config: SupMR uses inter-file ingest chunks of
// ChunkBytes; the traditional runtime ingests the whole file.
func RunFile[K comparable, V any](job Job[K, V], file Input, cont Container[K, V], cfg Config) (*Report[K, V], error) {
	stream, err := StreamFile(file, cfg)
	if err != nil {
		return nil, err
	}
	return Run(job, stream, cont, cfg)
}

// RunFiles executes the job over a set of files using intra-file
// chunking (FilesPerChunk files per ingest chunk; default 1).
func RunFiles[K comparable, V any](job Job[K, V], files []Input, cont Container[K, V], cfg Config) (*Report[K, V], error) {
	stream, err := StreamFiles(files, cfg)
	if err != nil {
		return nil, err
	}
	return Run(job, stream, cont, cfg)
}

// RunBytes executes the job over an in-memory buffer (no simulated
// device: ingest is instantaneous). Handy for tests and quickstarts.
func RunBytes[K comparable, V any](job Job[K, V], data []byte, cont Container[K, V], cfg Config) (*Report[K, V], error) {
	clk := cfg.clock()
	cfg.Clock = clk
	f := storage.BytesFile("<memory>", data, storage.NewNullDevice(clk))
	return RunFile(job, f, cont, cfg)
}

// StreamFile builds the chunk stream RunFile would use: a
// chunk.InterFile cut at ChunkBytes, or where the content says under
// Memo, whose reads run PrefetchDepth ahead; one whole-input chunk when
// ChunkBytes is zero.
func StreamFile(file Input, cfg Config) (Stream, error) {
	if file == nil {
		return nil, errors.New("supmr: nil input file")
	}
	// The preset's whole-input read needs no flag of its own here: it
	// leaves ChunkBytes zero and AdaptiveChunks off.
	cfg, _, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	file = cfg.wrapInput(file)
	if cfg.Memo {
		// Content-defined chunking: cut points derive from chunk content,
		// so a re-run over appended or locally edited input re-produces
		// the unchanged chunks' hashes and hits the memo cache. Sizes
		// bracket ChunkBytes: expected cut ≈ lo + avg-mask target.
		lo := max(cfg.ChunkBytes/2, 1)
		s, err := chunk.NewContentDefined(file, lo, lo, 2*cfg.ChunkBytes, cfg.boundary())
		if err != nil {
			return nil, fmt.Errorf("supmr: %w", err)
		}
		return s, nil
	}
	chunkBytes := cfg.ChunkBytes
	if chunkBytes <= 0 && cfg.AdaptiveChunks {
		// No explicit size: start from the static advisor's pick and let
		// the feedback loop refine it.
		chunkBytes = tuner.Recommend(0, 0, file.Size(), 2*time.Millisecond, tuner.Limits{})
	}
	inter, err := chunk.NewInterFile(file, max(chunkBytes, 1), cfg.boundary())
	if err != nil {
		return nil, fmt.Errorf("supmr: %w", err)
	}
	if chunkBytes <= 0 {
		return chunk.NewWholeInput(inter), nil // one read of the whole input
	}
	return inter, nil
}

// StreamFiles builds the multi-file chunk stream RunFiles would use: a
// chunk.NewFiles stream closing each chunk at FilesPerChunk files
// (intra-file chunking), or at ChunkBytes under HybridChunks (hybrid
// inter/intra-file chunking); one whole-input chunk under the
// RuntimeTraditional preset. Its reads run PrefetchDepth ahead, as
// StreamFile's do.
func StreamFiles(files []Input, cfg Config) (Stream, error) {
	cfg, whole, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if cfg.Memo {
		return nil, errors.New("supmr: Memo requires a single-file input (RunFile/StreamFile): multi-file chunk composition is not content-stable across file-set changes")
	}
	if cfg.AdaptiveChunks {
		return nil, errors.New("supmr: AdaptiveChunks requires a single-file input (RunFile/StreamFile): no multi-file stream can be resized between rounds")
	}
	files = cfg.wrapInputs(files)
	per, size := max(cfg.FilesPerChunk, 1), int64(0)
	if cfg.HybridChunks {
		per, size = 0, cfg.ChunkBytes
		if size <= 0 {
			size = 4 << 20
		}
	}
	s, err := chunk.NewFiles(files, per, size, cfg.boundary())
	if err != nil {
		return nil, fmt.Errorf("supmr: %w", err)
	}
	if whole {
		return chunk.NewWholeInput(s), nil
	}
	return s, nil
}

// NewHashContainer returns the default Phoenix++ hash container: keys
// hash into shards; combine (optional) folds values at insertion.
func NewHashContainer[K comparable, V any](shards int, hash func(K) uint64, combine func(a, b V) V) Container[K, V] {
	return container.NewHash[K, V](shards, hash, combine)
}

// NewFlatHashContainer returns the flat combining container for string
// keys: open addressing over arena-interned keys, zero steady-state
// allocation on the map hot path (the container behind -flatcombiner).
func NewFlatHashContainer[V any](shards int, combine func(a, b V) V) Container[string, V] {
	return container.NewFlatHash[V](shards, combine)
}

// NewArrayContainer returns the array container for dense int keys in
// [0, width).
func NewArrayContainer[V any](width, stripes int, combine func(a, b V) V) Container[int, V] {
	return container.NewArray[V](width, stripes, combine)
}

// NewKeyRangeContainer returns Phoenix's unlocked storage for
// unique-key applications such as sort. partitions fixes the reduce
// partition count (<=0 selects the default of 64).
func NewKeyRangeContainer[K comparable, V any](partitions int) Container[K, V] {
	return container.NewKeyRange[K, V](partitions)
}

// HashString hashes string keys for NewHashContainer.
func HashString(s string) uint64 { return container.StringHasher(s) }

// HashInt hashes int keys for NewHashContainer.
func HashInt(i int) uint64 { return container.IntHasher(i) }

// HashUint64 hashes uint64 keys for NewHashContainer.
func HashUint64(x uint64) uint64 { return container.Uint64Hasher(x) }

// Package jobspec is the serializable job description the supmrd job
// server and the supmr CLI share: a Spec names an application, its
// generated workload and its runtime knobs; Run executes it — against a
// shared multi-job Engine when one is supplied — and returns a Result
// whose output digest lets callers diff a server-mode run against a
// direct run byte-for-byte without shipping the pairs themselves.
package jobspec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"supmr"
	"supmr/internal/cliutil"
	"supmr/internal/kv"
)

// Spec describes one job submission. The zero value of every optional
// field selects the documented default; Validate rejects nonsensical
// values instead of guessing.
type Spec struct {
	// App selects the application, one of the table in apps.go (Apps
	// lists them; psum1 and psum2 are the two rounds of the prefix-sum
	// pipeline).
	App string `json:"app"`
	// Runtime selects the runtime: "supmr" (default) | "traditional".
	Runtime string `json:"runtime,omitempty"`
	// Size is the generated input size in bytes (default 4 MiB).
	Size int64 `json:"size,omitempty"`
	// Seed seeds workload generation (default 1).
	Seed int64 `json:"seed,omitempty"`
	// ChunkBytes is the SupMR ingest chunk size (default 256 KiB).
	ChunkBytes int64 `json:"chunk,omitempty"`
	// Budget caps the job's intermediate-container bytes; over-budget
	// state spills (0 = unbudgeted; refused with memo, nodes or the
	// traditional runtime). On an engine, this is the request — the
	// grant may be smaller.
	Budget int64 `json:"budget,omitempty"`
	// BW is the simulated storage bandwidth in bytes/sec (0 = infinite).
	BW int64 `json:"bw,omitempty"`
	// IOLanes is the striped-ingest lane count (default 1).
	IOLanes int `json:"io_lanes,omitempty"`
	// PrefetchDepth is the number of chunk reads kept in flight (default 1).
	PrefetchDepth int `json:"prefetch_depth,omitempty"`
	// Pattern is the comma-separated grep pattern list (grep only).
	Pattern string `json:"pattern,omitempty"`
	// Tenant names the submitting tenant for the engine rollup.
	Tenant string `json:"tenant,omitempty"`
	// Weight is the fair-share weight on the engine (default 1).
	Weight int `json:"weight,omitempty"`
	// Memo enables content-addressed incremental recompute: ingest
	// switches to content-defined chunking and each chunk's map/combine
	// output is memoized in the engine's shared store (or a private
	// per-run store when running without an engine store), so a
	// re-submission over mostly unchanged content replays cached output
	// instead of mapping it again. Refused by the traditional runtime.
	Memo bool `json:"memo,omitempty"`
	// MemoKey namespaces the job's cache entries. Empty derives a key
	// space from the app (and, for grep, its patterns) so distinct
	// applications sharing the engine store never replay each other's
	// output.
	MemoKey string `json:"memo_key,omitempty"`
	// RadixOff disables the fixed-width-key sort fast path (the scatter
	// finish, the radix run sort and the merge tree's prefix heads) — the
	// -radixsort=off ablation. Output is byte-identical either way.
	RadixOff bool `json:"radix_off,omitempty"`
	// Nodes, when >= 1, runs the job on a simulated cluster of that
	// many SupMR worker nodes, node n merging the n-th key range of the
	// runs cut at sampled splitters, shipped over simulated links (solo
	// or on the shared engine; refused by the traditional runtime).
	// Output is byte-identical to a single-node run; 0 keeps the
	// scale-up pipeline.
	Nodes int `json:"nodes,omitempty"`
	// InNodeCombinerOff disables the in-node combiner tier of a
	// multi-node run — the -innode-combiner=off ablation. Requires
	// Nodes >= 1. Output is byte-identical either way; only wire
	// traffic changes.
	InNodeCombinerOff bool `json:"innode_combiner_off,omitempty"`
	// Faults is a cliutil fault-plan string (e.g. "seed=7,read-err-every=5").
	Faults string `json:"faults,omitempty"`
	// Retries is a cliutil retry-policy string (e.g. "4" or "attempts=4,base=100us").
	Retries string `json:"retries,omitempty"`
	// EgressLanes, when >= 1, materializes the merged output across
	// that many concurrent extent writers after the merge (1 is the
	// serial-writer ablation; output is byte-identical at any lane
	// count). 0 skips output materialization.
	EgressLanes int `json:"egress_lanes,omitempty"`
	// Block is the records-per-block grouping of psum1 (default 256).
	Block int64 `json:"block,omitempty"`
	// Blocks is the total block count psum2 emits prefix sums for
	// (default: derived from Size and Block as a standalone round-1
	// reference; a DAG fills it from the upstream round).
	Blocks int64 `json:"blocks,omitempty"`
	// Solo is the part of a Spec that never crosses the wire.
	Solo Solo `json:"-"`
}

// Solo holds the knobs that only make sense for one local run on its
// own worker pool: cmd/supmr fills them from its flags, supmrd and DAG
// rounds leave them zero.
type Solo struct {
	Workers int    // worker goroutines (0 = GOMAXPROCS)
	Merge   string // merge algorithm override: "" | "pairwise" | "pway"
	// Files, when positive, replaces the one generated file with that
	// many files of FileSize bytes each, FilesPerChunk of them to an
	// ingest chunk (Hybrid: hybrid inter/intra-file chunking instead).
	Files, FilesPerChunk int
	FileSize             int64
	Hybrid               bool
	Adaptive             bool // the adaptive chunk-size feedback loop
	// WholeInput ingests the input as a single chunk (the CLI's
	// -chunk 0) where a zero ChunkBytes otherwise selects 256 KiB.
	WholeInput bool
	// TraceContexts, when positive, records the utilization trace
	// normalized to that many hardware contexts, TraceBucket wide.
	TraceContexts int
	TraceBucket   time.Duration
	MapCombiner   bool  // the map-backed combining container, where the app has one (-flatcombiner=off)
	MemoBudget    int64 // budget of a Memo run's private store (0 = 64 MiB)
	EgressExtent  int64 // egress extent size (0 = 256 KiB)
}

// Result summarizes a completed job: counters, the phase breakdown, and
// a digest of the key-sorted output for cross-mode diffing.
type Result struct {
	App         string `json:"app"`
	Runtime     string `json:"runtime"`
	OutputPairs int    `json:"output_pairs"`
	// Digest is the hex SHA-256 over the output pairs rendered one per
	// line as "key\tvalue\n" — identical runs produce identical digests
	// whether executed directly, solo, or on a shared engine.
	Digest   string `json:"digest"`
	Times    string `json:"times"`
	MapWaves int    `json:"map_waves"`
	// RadixRuns counts the runs sorted by the radix fast path (0 when
	// the app has no fixed-width key codec or the ablation disabled it).
	RadixRuns    int    `json:"radix_runs,omitempty"`
	SpilledRuns  int    `json:"spilled_runs,omitempty"`
	SpilledBytes int64  `json:"spilled_bytes,omitempty"`
	Faults       string `json:"faults,omitempty"`
	// MemoHits/MemoMisses count ingest chunks replayed from and
	// published to the memo cache; MemoBytesSaved is the payload bytes
	// of hit chunks, which were hashed but never mapped.
	MemoHits       int   `json:"memo_hits,omitempty"`
	MemoMisses     int   `json:"memo_misses,omitempty"`
	MemoBytesSaved int64 `json:"memo_bytes_saved,omitempty"`
	// Nodes echoes the simulated cluster size of a multi-node run.
	// ShuffleBytes is the framed bytes that crossed simulated links,
	// ShuffleFrames the delivered frame count; the in-node combiner's
	// saving is the ShuffleBytes difference to the innode_combiner_off
	// run.
	Nodes         int   `json:"nodes,omitempty"`
	ShuffleBytes  int64 `json:"shuffle_bytes,omitempty"`
	ShuffleFrames int   `json:"shuffle_frames,omitempty"`
	// EgressBytes/EgressExtents report the materialized output when the
	// spec set EgressLanes (sha256 of the egressed bytes == Digest).
	EgressBytes   int64 `json:"egress_bytes,omitempty"`
	EgressExtents int   `json:"egress_extents,omitempty"`
	// Detail is the part of a Result that never crosses the wire; nil
	// on a result decoded from supmrd.
	Detail *Detail `json:"-"`
}

// Detail is what the plain CLI report prints beyond Result's counters.
type Detail struct {
	// Spec is the spec as the pipeline ran it (zero for kmeans, whose
	// driver reports a model over many runs rather than one run).
	Spec  Spec
	Stats supmr.Stats
	// Trace is the utilization trace when Solo.TraceContexts asked for it.
	Trace *supmr.UtilTrace
	// Summary is the application's own report line(s), newline-terminated.
	Summary string
}

// Validate rejects malformed specs with a descriptive error and fills
// in no defaults — normalization happens in Run. A spec it accepts runs
// solo and on an engine alike; supmrd checks it at submission.
func (s Spec) Validate() error {
	_, _, err := s.check(false, nil)
	return err
}

// check is Validate for a run over a piped input (or not). It returns
// the spec's entry in the app table and the spec's knobs as the
// supmr.Config the run will carry.
func (s Spec) check(piped bool, clock supmr.Clock) (a *app, cfg supmr.Config, err error) {
	if s.App == "" {
		return nil, cfg, fmt.Errorf("jobspec: missing app")
	}
	if a = lookup(s.App); a == nil {
		return nil, cfg, fmt.Errorf("jobspec: unknown app %q (want %s)", s.App, Apps())
	}
	if _, ok := runtimes[s.Runtime]; !ok {
		return nil, cfg, fmt.Errorf("jobspec: unknown runtime %q", s.Runtime)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"size", s.Size}, {"chunk size", s.ChunkBytes}, {"budget", s.Budget}, {"bandwidth", s.BW},
		{"io_lanes", int64(s.IOLanes)}, {"prefetch_depth", int64(s.PrefetchDepth)}, {"egress_lanes", int64(s.EgressLanes)},
		{"node count", int64(s.Nodes)}, {"block", s.Block}, {"blocks", s.Blocks},
	} {
		if f.v < 0 {
			return nil, cfg, fmt.Errorf("jobspec: negative %s %d", f.name, f.v)
		}
	}
	if s.InNodeCombinerOff && s.Nodes == 0 {
		return nil, cfg, fmt.Errorf("jobspec: innode_combiner_off set without nodes")
	}
	if s.MemoKey != "" && !s.Memo {
		return nil, cfg, fmt.Errorf("jobspec: memo_key set without memo")
	}
	if s.Block > 0 && !a.block {
		return nil, cfg, fmt.Errorf("jobspec: block is only meaningful for %s, not %q", appList(func(a *app) bool { return a.block }), s.App)
	}
	if s.Blocks > 0 && !a.blocks {
		return nil, cfg, fmt.Errorf("jobspec: blocks is only meaningful for %s, not %q", appList(func(a *app) bool { return a.blocks }), s.App)
	}
	// What this application refuses, by its table entry. A refused mode,
	// here or below, is the caller's error: cliutil.ExitCode gives 2.
	for _, m := range []struct {
		set  bool
		mode mode
	}{
		{s.Budget > 0, modeBudget}, {s.Memo, modeMemo}, {s.Nodes > 0, modeNodes},
	} {
		if why, refused := a.refuses[m.mode]; m.set && refused {
			return nil, cfg, cliutil.Usage(fmt.Errorf("jobspec: %s is incompatible with %s: %s", m.mode, a.name, why))
		}
	}
	if s.Solo.Files > 0 && a.docs == "" {
		return nil, cfg, cliutil.Usage(fmt.Errorf("jobspec: files is incompatible with %s: it maps one generated file (multi-file inputs: %s)", a.name, appList(func(a *app) bool { return a.docs != "" })))
	}
	if piped && !a.piped {
		return nil, cfg, cliutil.Usage(fmt.Errorf("jobspec: app %q cannot consume a piped input (it maps a generated record format; pipe into %s)", a.name, appList(func(a *app) bool { return a.piped })))
	}
	if piped && s.Memo {
		return nil, cfg, cliutil.Usage(fmt.Errorf("jobspec: memo is incompatible with a piped input (piped rounds hold no stable file identity to key the cache by)"))
	}
	if cfg, err = s.config(a, clock); err != nil {
		return nil, cfg, fmt.Errorf("jobspec: %w", err)
	}
	// The mode rules (what the traditional preset refuses, which knobs
	// exclude each other) are supmr.Config's to state.
	if err = cfg.Validate(); err != nil {
		return nil, cfg, cliutil.Usage(fmt.Errorf("jobspec: %w", err))
	}
	return a, cfg, nil
}

var (
	runtimes   = map[string]supmr.Runtime{"": supmr.RuntimeSupMR, "supmr": supmr.RuntimeSupMR, "traditional": supmr.RuntimeTraditional}
	mergeAlgos = map[string]supmr.MergeAlgo{"pairwise": supmr.MergePairwise, "pway": supmr.MergePWay}
)

// config is the spec's knobs as a supmr.Config; RunInput attaches the
// substrate (context, devices, engine) around it.
func (s Spec) config(a *app, clock supmr.Clock) (cfg supmr.Config, err error) {
	cfg = supmr.Config{
		Runtime:           runtimes[s.Runtime],
		Clock:             clock,
		ChunkBytes:        s.ChunkBytes,
		MemoryBudget:      s.Budget,
		IOLanes:           s.IOLanes,
		PrefetchDepth:     s.PrefetchDepth,
		Tenant:            s.Tenant,
		Weight:            s.Weight,
		Memo:              s.Memo,
		MemoKeySpace:      s.MemoKey,
		Nodes:             s.Nodes,
		EgressLanes:       s.EgressLanes,
		Workers:           s.Solo.Workers,
		FilesPerChunk:     s.Solo.FilesPerChunk,
		HybridChunks:      s.Solo.Hybrid,
		AdaptiveChunks:    s.Solo.Adaptive,
		TraceContexts:     s.Solo.TraceContexts,
		TraceBucket:       s.Solo.TraceBucket,
		MemoBudget:        s.Solo.MemoBudget,
		EgressExtentBytes: s.Solo.EgressExtent,
	}
	if cfg.ChunkBytes <= 0 && !s.Solo.WholeInput {
		cfg.ChunkBytes = 256 << 10
	}
	if s.Memo && s.MemoKey == "" {
		// Derive a key space covering everything that shapes a chunk's map
		// output besides its content: the app and whatever parameters its
		// table entry names.
		if cfg.MemoKeySpace = a.name; a.keySpace != nil {
			cfg.MemoKeySpace = a.keySpace(s)
		}
	}
	if m, ok := mergeAlgos[s.Solo.Merge]; ok {
		cfg.Merge = &m
	} else if s.Solo.Merge != "" {
		return cfg, fmt.Errorf("unknown merge algorithm %q", s.Solo.Merge)
	}
	off := false
	if s.RadixOff {
		cfg.RadixSort = &off
	}
	if s.InNodeCombinerOff {
		cfg.InNodeCombiner = &off
	}
	if s.Faults != "" {
		plan, err := cliutil.ParseFaultPlan(s.Faults)
		if err != nil {
			return cfg, err
		}
		cfg.Faults = supmr.NewFaultInjector(plan, clock)
	}
	if s.Retries != "" {
		cfg.Retry, err = cliutil.ParseRetryPolicy(s.Retries)
	}
	return cfg, err
}

// Run executes the spec. With eng non-nil the job is submitted to the
// shared engine (admission, fair-share scheduling, budget carving);
// with eng nil it runs solo on a dedicated pool — output and digest are
// identical either way. ctx cancellation aborts the job.
func Run(ctx context.Context, spec Spec, eng *supmr.Engine) (*Result, error) {
	res, _, err := RunInput(ctx, spec, eng, nil)
	return res, err
}

// run is one execution in flight: the normalized spec, the Config built
// from it, the simulated device and the ingest source (file, or files
// for a multi-file input).
type run struct {
	spec  Spec
	cfg   supmr.Config
	dev   supmr.Device
	file  supmr.Input
	files []supmr.Input
}

// RunInput is Run over an explicit ingest source: with input non-nil
// the spec's generated workload is replaced by input — the zero-copy
// pipe internal/dag chains rounds with (an upstream job's egressed
// output is newline-terminated "key\tvalue" text, so the piped app
// must be one CanConsumePiped accepts). The returned EgressOutput is
// the materialized output when spec.EgressLanes was set, nil
// otherwise; callers chaining jobs feed it to the next round.
func RunInput(ctx context.Context, spec Spec, eng *supmr.Engine, input supmr.Input) (*Result, *supmr.EgressOutput, error) {
	clock := supmr.NewClock()
	a, cfg, err := spec.check(input != nil, clock)
	if err != nil {
		return nil, nil, err
	}
	if spec.Size <= 0 {
		spec.Size = 4 << 20
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	r := &run{spec: spec, cfg: cfg, file: input}
	if spec.BW > 0 {
		if r.dev, err = supmr.NewDisk("sim", float64(spec.BW), 0, clock); err != nil {
			return nil, nil, err
		}
	} else {
		r.dev = supmr.NewFastDevice(clock)
	}
	r.cfg.Context = ctx
	r.cfg.Engine = eng
	// Egress and spill contend with ingest for the same bandwidth.
	if spec.EgressLanes > 0 {
		r.cfg.EgressDevice = r.dev
	}
	if spec.Budget > 0 {
		r.cfg.SpillDevice = r.dev
	}
	files, fileSize := spec.Solo.Files, spec.Solo.FileSize
	if files <= 0 && a.input == nil {
		files, fileSize = 16, spec.Size/16
	}
	switch {
	case input != nil:
	case files > 0:
		r.files, err = supmr.TextFiles(a.docs, files, fileSize, spec.Seed, r.dev)
	default:
		r.file, err = a.input(r)
	}
	if err != nil {
		return nil, nil, err
	}
	res, out, err := a.run(r)
	if err != nil {
		return nil, nil, err
	}
	res.App, res.Nodes = a.name, spec.Nodes
	return res, out, nil
}

// execJob runs one typed job over the run's input — the job states its
// own record boundary — and flattens its report into a Result; summary
// renders the application's report line.
func execJob[K comparable, V any, J interface {
	supmr.Job[K, V]
	Boundary() supmr.Boundary
}](r *run, job J, cont supmr.Container[K, V], summary func(*supmr.Report[K, V]) string) (*Result, *supmr.EgressOutput, error) {
	r.cfg.Boundary = job.Boundary()
	var rep *supmr.Report[K, V]
	var err error
	if r.files != nil {
		rep, err = supmr.RunFiles[K, V](job, r.files, cont, r.cfg)
	} else {
		rep, err = supmr.RunFile[K, V](job, r.file, cont, r.cfg)
	}
	if err != nil {
		return nil, nil, err
	}
	res := &Result{
		Runtime:        r.cfg.Runtime.String(),
		OutputPairs:    len(rep.Pairs),
		Digest:         Digest(rep.Pairs),
		Times:          rep.Times.String(),
		MapWaves:       rep.Stats.MapWaves,
		RadixRuns:      rep.Stats.RadixRuns,
		SpilledRuns:    rep.Stats.SpilledRuns,
		SpilledBytes:   rep.Stats.SpilledBytes,
		MemoHits:       rep.Stats.MemoHits,
		MemoMisses:     rep.Stats.MemoMisses,
		MemoBytesSaved: rep.Stats.MemoBytesSaved,
		ShuffleBytes:   rep.Stats.ShuffleBytes,
		ShuffleFrames:  rep.Stats.ShuffleFrames,
		EgressBytes:    rep.Stats.EgressBytes,
		EgressExtents:  rep.Stats.EgressExtents,
		Detail:         &Detail{Spec: r.spec, Stats: rep.Stats, Trace: rep.Trace, Summary: summary(rep)},
	}
	if rep.Stats.Faults.Any() {
		res.Faults = rep.Stats.Faults.String()
	}
	return res, rep.Egress, nil
}

// WriteReport prints the counter lines of a finished job, one per mode
// that left a trace, each prefixed by indent. It is the one renderer of
// these lines: the plain CLI report, `supmr submit -wait` and `supmr
// pipeline` all print through it. A result that ran in this process
// (Detail set) carries the figures the wire format has no field for.
func (r *Result) WriteReport(w io.Writer, indent string) {
	line := func(format string, a ...any) { fmt.Fprintf(w, indent+format+"\n", a...) }
	d := r.Detail
	if d == nil {
		d = &Detail{}
	}
	// tail renders local-only figures, and nothing for a wire result.
	tail := func(format string, a ...any) string {
		if r.Detail == nil {
			return ""
		}
		return fmt.Sprintf(format, a...)
	}
	lanes := func(stall time.Duration, bytes []int64) string {
		s := fmt.Sprintf("%s stalled", stall.Round(time.Microsecond))
		for i, b := range bytes {
			if i == 0 {
				s += ", lane bytes"
			}
			s += fmt.Sprintf(" %d:%s", i, cliutil.FormatBytes(b))
		}
		return s
	}
	if r.SpilledRuns > 0 {
		line("spill: %d runs, %d bytes written%s", r.SpilledRuns, r.SpilledBytes,
			tail(", merged in %d round(s) (budget %d)", d.Stats.MergeRounds, d.Spec.Budget))
	}
	if r.MemoHits > 0 || r.MemoMisses > 0 {
		budget := "" // of the run's private store; an engine's store has its own
		if b := d.Spec.Solo.MemoBudget; b > 0 {
			budget = fmt.Sprintf(" (budget %s)", cliutil.FormatBytes(b))
		}
		line("memo: %d hits, %d misses, %s saved%s", r.MemoHits, r.MemoMisses, cliutil.FormatBytes(r.MemoBytesSaved), budget)
	}
	if r.Faults != "" {
		line("faults: %s", r.Faults)
	}
	if r.RadixRuns > 0 {
		line("sortpath: %d run(s) radix-sorted", r.RadixRuns)
	}
	if r.Nodes > 0 {
		line("shuffle: %d node(s), %s in %d frame(s) on the wire", r.Nodes, cliutil.FormatBytes(r.ShuffleBytes), r.ShuffleFrames)
	}
	if d.Spec.IOLanes > 1 || d.Spec.PrefetchDepth > 1 {
		line("ingest: %d prefetch hits, %s", d.Stats.PrefetchHits, lanes(d.Stats.IngestStall, d.Stats.IngestLaneBytes))
	}
	if r.EgressBytes > 0 {
		line("egress: %s in %d extent(s)%s", cliutil.FormatBytes(r.EgressBytes), r.EgressExtents,
			tail(", %s", lanes(d.Stats.EgressStall, d.Stats.EgressLaneBytes)))
	}
}

// Digest hashes key-sorted output pairs: hex SHA-256 over one
// "key\tvalue\n" line per pair. Two runs of the same job produce the
// same digest exactly when their outputs are byte-identical under this
// rendering.
func Digest[K comparable, V any](pairs []supmr.Pair[K, V]) string {
	h := sha256.New()
	kv.WriteText(h, pairs) // a hash.Hash never returns an error
	return hex.EncodeToString(h.Sum(nil))
}

// DigestBytes hashes already-rendered output text. Egress renders
// pairs exactly as Digest does, so DigestBytes over a job's egressed
// bytes equals Digest over its pairs — the property the egress-lanes
// ablation gates on.
func DigestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

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
	"strings"

	"supmr"
	"supmr/internal/cliutil"
	"supmr/internal/kv"
	"supmr/internal/workload"
)

// Spec describes one job submission. The zero value of every optional
// field selects the documented default; Validate rejects nonsensical
// values instead of guessing.
type Spec struct {
	// App selects the application: wordcount | sort | histogram | grep |
	// psum1 | psum2 (the two rounds of the prefix-sum pipeline).
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
	// state spills (supmr runtime only; 0 = unbudgeted). On an engine,
	// this is the request — the grant may be smaller.
	Budget int64 `json:"budget,omitempty"`
	// BW is the simulated storage bandwidth in bytes/sec (0 = infinite).
	BW int64 `json:"bw,omitempty"`
	// IOLanes is the striped-ingest lane count (default 1).
	IOLanes int `json:"io_lanes,omitempty"`
	// PrefetchDepth is the prefetch ring depth (default 1).
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
	// instead of mapping it again. Supmr runtime only.
	Memo bool `json:"memo,omitempty"`
	// MemoKey namespaces the job's cache entries. Empty derives a key
	// space from the app (and, for grep, its patterns) so distinct
	// applications sharing the engine store never replay each other's
	// output.
	MemoKey string `json:"memo_key,omitempty"`
	// RadixOff disables the fixed-width-key sort fast path (radix run
	// sort + columnar merge) — the -radixsort=off ablation. Output is
	// byte-identical either way.
	RadixOff bool `json:"radix_off,omitempty"`
	// Nodes, when >= 1, runs the job on a simulated cluster of that
	// many SupMR worker nodes exchanging hash-partitioned runs over
	// simulated links (supmr runtime; solo or on the shared engine).
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
	// ShuffleFrames the delivered frame count. ShuffleBytesSaved
	// (shuffle_bytes_saved) is deprecated and always 0: compare
	// ShuffleBytes with the innode_combiner_off run's instead.
	Nodes             int   `json:"nodes,omitempty"`
	ShuffleBytes      int64 `json:"shuffle_bytes,omitempty"`
	ShuffleBytesSaved int64 `json:"shuffle_bytes_saved,omitempty"`
	ShuffleFrames     int   `json:"shuffle_frames,omitempty"`
	// EgressBytes/EgressExtents report the materialized output when the
	// spec set EgressLanes (sha256 of the egressed bytes == Digest).
	EgressBytes   int64 `json:"egress_bytes,omitempty"`
	EgressExtents int   `json:"egress_extents,omitempty"`
	// Notes surfaces configuration caveats the run adapted to (engine
	// instruments disabled, memo ignoring the budget).
	Notes []string `json:"notes,omitempty"`
}

// apps the server knows how to build workloads for.
var knownApps = map[string]bool{
	"wordcount": true, "sort": true, "histogram": true, "grep": true,
	"psum1": true, "psum2": true,
}

// pipedApps consume newline-terminated "key\tvalue" text — the egress
// rendering — so they can run over a piped upstream output in a DAG.
// sort (100-byte CRLF records) and psum1 (16-byte self-indexed
// records) need generated workloads and can only be source rounds.
var pipedApps = map[string]bool{
	"wordcount": true, "histogram": true, "grep": true, "psum2": true,
}

// CanConsumePiped reports whether app can run over a piped upstream
// output (internal/dag uses this to validate graph edges).
func CanConsumePiped(app string) bool { return pipedApps[app] }

// Validate rejects malformed specs with a descriptive error and fills
// in no defaults — normalization happens in Run.
func (s Spec) Validate() error {
	if s.App == "" {
		return fmt.Errorf("jobspec: missing app")
	}
	if !knownApps[s.App] {
		return fmt.Errorf("jobspec: unknown app %q (want wordcount, sort, histogram, grep, psum1 or psum2)", s.App)
	}
	switch s.Runtime {
	case "", "supmr", "traditional":
	default:
		return fmt.Errorf("jobspec: unknown runtime %q", s.Runtime)
	}
	if s.Size < 0 {
		return fmt.Errorf("jobspec: negative size %d", s.Size)
	}
	if s.ChunkBytes < 0 {
		return fmt.Errorf("jobspec: negative chunk size %d", s.ChunkBytes)
	}
	if s.Budget < 0 {
		return fmt.Errorf("jobspec: negative budget %d", s.Budget)
	}
	if s.BW < 0 {
		return fmt.Errorf("jobspec: negative bandwidth %d", s.BW)
	}
	if s.IOLanes < 0 {
		return fmt.Errorf("jobspec: io_lanes must be positive, got %d", s.IOLanes)
	}
	if s.PrefetchDepth < 0 {
		return fmt.Errorf("jobspec: prefetch_depth must be positive, got %d", s.PrefetchDepth)
	}
	if s.Weight < 0 {
		return fmt.Errorf("jobspec: negative weight %d (fair-share weight must be at least 1; omit for the default)", s.Weight)
	}
	if s.Nodes < 0 {
		return fmt.Errorf("jobspec: negative node count %d", s.Nodes)
	}
	if s.InNodeCombinerOff && s.Nodes == 0 {
		return fmt.Errorf("jobspec: innode_combiner_off set without nodes")
	}
	if s.MemoKey != "" && !s.Memo {
		return fmt.Errorf("jobspec: memo_key set without memo")
	}
	if s.Budget > 0 && s.App == "histogram" {
		return fmt.Errorf("jobspec: budget is incompatible with histogram: its array container has a fixed footprint and cannot spill")
	}
	if s.Faults != "" {
		if _, err := cliutil.ParseFaultPlan(s.Faults); err != nil {
			return fmt.Errorf("jobspec: %w", err)
		}
	}
	if s.Retries != "" {
		if _, err := cliutil.ParseRetryPolicy(s.Retries); err != nil {
			return fmt.Errorf("jobspec: %w", err)
		}
	}
	if s.EgressLanes < 0 {
		return fmt.Errorf("jobspec: egress_lanes must be positive, got %d", s.EgressLanes)
	}
	if s.Block < 0 {
		return fmt.Errorf("jobspec: negative block %d", s.Block)
	}
	if s.Blocks < 0 {
		return fmt.Errorf("jobspec: negative blocks %d", s.Blocks)
	}
	if s.Block > 0 && s.App != "psum1" && s.App != "psum2" {
		return fmt.Errorf("jobspec: block is only meaningful for psum1/psum2, not %q", s.App)
	}
	if s.Blocks > 0 && s.App != "psum2" {
		return fmt.Errorf("jobspec: blocks is only meaningful for psum2, not %q", s.App)
	}
	// The mode rules (which knobs need the supmr runtime, which exclude
	// each other) are supmr.Config's to state.
	if err := s.config().Validate(); err != nil {
		return fmt.Errorf("jobspec: %w", err)
	}
	return nil
}

// config is the spec's knobs as the supmr.Config the run will carry;
// RunInput attaches the substrate (context, clock, devices, engine,
// faults) around it.
func (s Spec) config() supmr.Config {
	cfg := supmr.Config{
		Runtime:       supmr.RuntimeSupMR,
		ChunkBytes:    s.ChunkBytes,
		MemoryBudget:  s.Budget,
		IOLanes:       s.IOLanes,
		PrefetchDepth: s.PrefetchDepth,
		Tenant:        s.Tenant,
		Weight:        s.Weight,
		Memo:          s.Memo,
		Nodes:         s.Nodes,
		EgressLanes:   s.EgressLanes,
	}
	if s.Runtime == "traditional" {
		cfg.Runtime = supmr.RuntimeTraditional
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 256 << 10
	}
	if s.RadixOff {
		off := false
		cfg.RadixSort = &off
	}
	if s.InNodeCombinerOff {
		off := false
		cfg.InNodeCombiner = &off
	}
	return cfg
}

// Run executes the spec. With eng non-nil the job is submitted to the
// shared engine (admission, fair-share scheduling, budget carving);
// with eng nil it runs solo on a dedicated pool — output and digest are
// identical either way. ctx cancellation aborts the job.
func Run(ctx context.Context, spec Spec, eng *supmr.Engine) (*Result, error) {
	res, _, err := RunInput(ctx, spec, eng, nil)
	return res, err
}

// RunInput is Run over an explicit ingest source: with input non-nil
// the spec's generated workload is replaced by input — the zero-copy
// pipe internal/dag chains rounds with (an upstream job's egressed
// output is newline-terminated "key\tvalue" text, so the piped app
// must be one CanConsumePiped accepts). The returned EgressOutput is
// the materialized output when spec.EgressLanes was set, nil
// otherwise; callers chaining jobs feed it to the next round.
func RunInput(ctx context.Context, spec Spec, eng *supmr.Engine, input supmr.Input) (*Result, *supmr.EgressOutput, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	if input != nil {
		if !CanConsumePiped(spec.App) {
			return nil, nil, fmt.Errorf("jobspec: app %q cannot consume a piped input (it maps a generated record format; pipe into wordcount, histogram, grep or psum2)", spec.App)
		}
		if spec.Memo {
			return nil, nil, fmt.Errorf("jobspec: memo is incompatible with a piped input (piped rounds hold no stable file identity to key the cache by)")
		}
	}
	size := spec.Size
	if size <= 0 {
		size = 4 << 20
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	block := spec.Block
	if block <= 0 {
		block = 256
	}

	clock := supmr.NewClock()
	var dev supmr.Device
	if spec.BW > 0 {
		d, err := supmr.NewDisk("sim", float64(spec.BW), 0, clock)
		if err != nil {
			return nil, nil, err
		}
		dev = d
	} else {
		dev = supmr.NewFastDevice(clock)
	}

	cfg := spec.config()
	cfg.Context = ctx
	cfg.Clock = clock
	cfg.Engine = eng
	rtName := cfg.Runtime.String()
	// Egress and spill contend with ingest for the same bandwidth.
	if cfg.EgressLanes > 0 {
		cfg.EgressDevice = dev
	}
	if cfg.MemoryBudget > 0 {
		cfg.SpillDevice = dev
	}
	if spec.Faults != "" {
		plan, err := cliutil.ParseFaultPlan(spec.Faults)
		if err != nil {
			return nil, nil, err
		}
		cfg.Faults = supmr.NewFaultInjector(plan, clock)
	}
	if spec.Retries != "" {
		policy, err := cliutil.ParseRetryPolicy(spec.Retries)
		if err != nil {
			return nil, nil, err
		}
		cfg.Retry = policy
	}
	if spec.Memo {
		cfg.MemoKeySpace = spec.MemoKey
		if cfg.MemoKeySpace == "" {
			// Derive a key space covering everything that shapes a chunk's
			// map output besides its content: the app and, for grep, its
			// pattern list.
			cfg.MemoKeySpace = spec.App
			if spec.App == "grep" {
				p := spec.Pattern
				if p == "" {
					p = "ERROR"
				}
				cfg.MemoKeySpace = "grep:" + p
			}
		}
	}

	switch spec.App {
	case "wordcount":
		f := input
		if f == nil {
			tf, err := supmr.TextFile("wcinput", size, seed, dev)
			if err != nil {
				return nil, nil, err
			}
			f = tf
		}
		return execJob(supmr.WordCountJob(), f, supmr.WordCountContainer(64), cfg, spec.App, rtName)
	case "sort":
		cfg.Boundary = supmr.CRLFRecords
		f, err := supmr.TeraFile("sortinput", size/100, uint64(seed), dev)
		if err != nil {
			return nil, nil, err
		}
		return execJob(supmr.SortJob(), f, supmr.SortContainer(), cfg, spec.App, rtName)
	case "histogram":
		f := input
		if f == nil {
			tf, err := supmr.TextFile("histinput", size, seed, dev)
			if err != nil {
				return nil, nil, err
			}
			f = tf
		}
		job := supmr.HistogramJob()
		return execJob(job, f, job.NewContainer(8), cfg, spec.App, rtName)
	case "grep":
		pattern := spec.Pattern
		if pattern == "" {
			pattern = "ERROR"
		}
		job := supmr.GrepJob(strings.Split(pattern, ",")...)
		f := input
		if f == nil {
			tf, err := supmr.TextFile("grepinput", size, seed, dev)
			if err != nil {
				return nil, nil, err
			}
			f = tf
		}
		return execJob(job, f, job.NewContainer(), cfg, spec.App, rtName)
	case "psum1":
		records := size / workload.SeqRecordWidth
		f, err := supmr.SeqFile("psuminput", records, seed, dev)
		if err != nil {
			return nil, nil, err
		}
		job := supmr.PrefixPartJob(block)
		return execJob(job, f, job.NewContainer(64), cfg, spec.App, rtName)
	case "psum2":
		f := input
		blocks := spec.Blocks
		if f == nil {
			// Standalone: synthesize round 1's reference output from the
			// generator's expected block sums.
			records := size / workload.SeqRecordWidth
			sums := workload.SeqGen{Seed: seed}.BlockSums(records, block)
			var buf strings.Builder
			for b, s := range sums {
				fmt.Fprintf(&buf, "%d\t%d\n", b, s)
			}
			f = supmr.MemoryFile("psum2input", []byte(buf.String()), clock)
			if blocks <= 0 {
				blocks = int64(len(sums))
			}
		}
		if blocks <= 0 {
			return nil, nil, fmt.Errorf("jobspec: psum2 over a piped input needs blocks (the upstream round's block count)")
		}
		job := supmr.PrefixTotalJob(blocks)
		return execJob(job, f, job.NewContainer(64), cfg, spec.App, rtName)
	}
	return nil, nil, fmt.Errorf("jobspec: unknown app %q", spec.App)
}

// execJob runs one typed job and flattens its report into a Result.
func execJob[K comparable, V any](job supmr.Job[K, V], f supmr.Input, cont supmr.Container[K, V], cfg supmr.Config, app, rtName string) (*Result, *supmr.EgressOutput, error) {
	rep, err := supmr.RunFile(job, f, cont, cfg)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{
		App:               app,
		Runtime:           rtName,
		OutputPairs:       len(rep.Pairs),
		Digest:            Digest(rep.Pairs),
		Times:             rep.Times.String(),
		MapWaves:          rep.Stats.MapWaves,
		RadixRuns:         rep.Stats.RadixRuns,
		SpilledRuns:       rep.Stats.SpilledRuns,
		SpilledBytes:      rep.Stats.SpilledBytes,
		MemoHits:          rep.Stats.MemoHits,
		MemoMisses:        rep.Stats.MemoMisses,
		MemoBytesSaved:    rep.Stats.MemoBytesSaved,
		Nodes:             cfg.Nodes,
		ShuffleBytes:      rep.Stats.ShuffleBytes,
		ShuffleBytesSaved: rep.Stats.ShuffleBytesSaved,
		ShuffleFrames:     rep.Stats.ShuffleFrames,
		EgressBytes:       rep.Stats.EgressBytes,
		EgressExtents:     rep.Stats.EgressExtents,
		Notes:             rep.Notes,
	}
	if rep.Stats.Faults.Any() {
		res.Faults = rep.Stats.Faults.String()
	}
	return res, rep.Egress, nil
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

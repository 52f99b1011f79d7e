// Command supmr runs one of the benchmark applications under either
// runtime against a simulated storage substrate, printing a Table II
// style phase breakdown and, optionally, the collectl-style utilization
// trace.
//
// Examples:
//
//	supmr -app wordcount -runtime supmr -size 32m -chunk 2m -bw 8m -trace
//	supmr -app sort -runtime traditional -size 16m -bw 16m
//	supmr -app wordcount -files 30 -files-per-chunk 4 -filesize 1m
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"supmr"
	"supmr/internal/cliutil"
	"supmr/internal/jobspec"
)

func main() {
	// A known subcommand routes to the supmrd client (`supmr submit ...`)
	// or the local pipeline runner; everything else is the classic
	// single-run CLI.
	if len(os.Args) > 1 && clientCommands[os.Args[1]] {
		clientMain(os.Args[1], os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "pipeline" {
		pipelineMain(os.Args[2:])
		return
	}
	var (
		app       = flag.String("app", "wordcount", "application: wordcount | sort | histogram | invindex | grep | linreg | kmeans")
		rt        = flag.String("runtime", "supmr", "runtime: traditional | supmr")
		size      = flag.String("size", "32m", "input size in bytes (k/m/g suffixes)")
		chunkSz   = flag.String("chunk", "2m", "SupMR ingest chunk size (0 = whole input)")
		budget    = flag.String("budget", "0", "intermediate-container memory budget in bytes; over-budget state spills to the simulated device (0 = unbudgeted; supmr runtime only)")
		bw        = flag.String("bw", "8m", "simulated storage bandwidth, bytes/sec (0 = infinite)")
		workers   = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		merge     = flag.String("merge", "", "merge algorithm override: pairwise | pway")
		files     = flag.Int("files", 0, "use N small files with intra-file chunking instead of one big file")
		filesPer  = flag.Int("files-per-chunk", 4, "files per intra-file chunk")
		fileSize  = flag.String("filesize", "1m", "per-file size for -files")
		trace     = flag.Bool("trace", false, "print utilization trace")
		adaptive  = flag.Bool("adaptive", false, "enable the adaptive chunk-size feedback loop")
		hybrid    = flag.Bool("hybrid", false, "use hybrid inter/intra-file chunking for -files inputs")
		energy    = flag.Bool("energy", false, "estimate energy from the utilization trace (implies -trace)")
		pattern   = flag.String("pattern", "ERROR", "comma-separated patterns for -app grep")
		contexts  = flag.Int("contexts", 4, "hardware contexts to normalize the trace to")
		bucketStr = flag.String("bucket", "100ms", "trace bucket width")
		seed      = flag.Int64("seed", 1, "workload generation seed")
		faultsStr = flag.String("faults", "", "deterministic fault plan, e.g. seed=42,read-err-every=100,short-read=0.05,latency=2ms,latency-prob=0.1 (keys: seed, read-err[-every], write-err[-every], short-read[-every], latency[-prob|-every], permanent[-every], max)")
		retries   = flag.String("retries", "", "retry policy for transient faults: attempt count (\"4\") or attempts=N,base=DUR,max=DUR,budget=N")
		ioLanes   = flag.String("io-lanes", "1", "IO lanes for striped ingest: each chunk read splits into this many segments read in parallel (supmr runtime)")
		prefetch  = flag.String("prefetch-depth", "1", "prefetch ring depth: ingest chunks kept in flight ahead of the map wave (supmr runtime)")
		digest    = flag.Bool("digest", false, "print the output digest instead of the full report, for diffing against a server-mode run (wordcount/sort/histogram/grep/psum1/psum2); flags a job spec cannot carry are rejected")
		memoBudg  = flag.String("memo-budget", "64m", "memo-store byte budget; least-recently-used entries evict beyond it")
		nodes     = flag.Int("nodes", 0, "run on a simulated cluster of N SupMR worker nodes exchanging hash-partitioned runs over simulated links (supmr runtime; 0 = single-node scale-up pipeline; output byte-identical)")
		egLanes   = flag.Int("egress-lanes", 0, "materialize the merged output across N concurrent extent writers after the merge (1 = serial-writer ablation, byte-identical output at any lane count; 0 = skip output materialization)")
		egExtent  = flag.String("egress-extent", "256k", "egress extent size for -egress-lanes")
	)
	flatComb := onOffFlag(true)
	flag.Var(&flatComb, "flatcombiner", "use the flat (arena-interned, open-addressing) combining container for wordcount/grep; off selects the map-backed combiner (ablation)")
	memo := onOffFlag(false)
	flag.Var(&memo, "memo", "content-addressed incremental recompute: content-defined chunking plus a per-chunk map/combine memo cache (supmr runtime, single-file inputs); off is the ablation spelling")
	radix := onOffFlag(true)
	flag.Var(&radix, "radixsort", "radix sort/columnar merge fast path for fixed-width-key apps (sort/histogram/linreg); off falls back to comparison sort everywhere (ablation, byte-identical output)")
	innodeComb := onOffFlag(true)
	flag.Var(&innodeComb, "innode-combiner", "pre-aggregate each node's map output before transmission in a -nodes run; off ships every per-chunk run as-is (ablation, byte-identical output, more wire bytes)")
	flag.Parse()

	if *energy {
		*trace = true
	}
	// Ctrl-C cancels the job context: the runtime aborts within the
	// current round and the process exits cleanly instead of dying
	// mid-phase.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *digest {
		// Digest mode runs through the same jobspec path the server uses,
		// so its output line diffs cleanly against `supmr submit -wait`. A
		// flag jobspec.Spec has no field for would be silently dropped.
		flag.Visit(func(f *flag.Flag) {
			if !digestFlags[f.Name] {
				fmt.Fprintf(os.Stderr, "supmr: -digest runs a job spec, which cannot carry -%s\n", f.Name)
				os.Exit(2)
			}
		})
		rtName := *rt
		if rtName == "supmr" {
			rtName = ""
		}
		res, err := jobspec.Run(ctx, jobspec.Spec{
			App: *app, Runtime: rtName, Size: parseSize(*size), Seed: *seed,
			ChunkBytes: parseSize(*chunkSz), Budget: parseSize(*budget), BW: parseSize(*bw),
			IOLanes: parseCount(*ioLanes), PrefetchDepth: parseCount(*prefetch),
			Pattern: *pattern, Faults: *faultsStr, Retries: *retries, Memo: bool(memo),
			RadixOff: !bool(radix),
			Nodes:    *nodes, InNodeCombinerOff: !bool(innodeComb),
			EgressLanes: *egLanes,
		}, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "supmr:", err)
			os.Exit(1)
		}
		fmt.Printf("app=%s pairs=%d digest=%s", res.App, res.OutputPairs, res.Digest)
		if res.EgressBytes > 0 {
			// Byte-identical at any lane count, so this line diffs cleanly
			// across -egress-lanes settings.
			fmt.Printf(" egress=%dB/%d", res.EgressBytes, res.EgressExtents)
		}
		fmt.Println()
		return
	}
	if err := run(ctx, runOpts{
		app: *app, rt: *rt, size: parseSize(*size), chunkSz: parseSize(*chunkSz), budget: parseSize(*budget),
		bw: parseSize(*bw), workers: *workers, merge: *merge, files: *files,
		filesPer: *filesPer, fileSize: parseSize(*fileSize), trace: *trace,
		contexts: *contexts, bucket: parseDur(*bucketStr), seed: *seed,
		adaptive: *adaptive, hybrid: *hybrid, energy: *energy, pattern: *pattern,
		flatComb: bool(flatComb), faults: *faultsStr, retries: *retries,
		ioLanes: parseCount(*ioLanes), prefetch: parseCount(*prefetch),
		memo: bool(memo), memoBudget: parseSize(*memoBudg), radix: bool(radix),
		nodes: *nodes, innodeComb: bool(innodeComb),
		egressLanes: *egLanes, egressExtent: parseSize(*egExtent),
	}); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "supmr: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "supmr:", err)
		os.Exit(1)
	}
}

// digestFlags are the flags -digest maps onto jobspec.Spec.
var digestFlags = map[string]bool{
	"digest": true, "app": true, "runtime": true, "size": true, "seed": true, "chunk": true,
	"budget": true, "bw": true, "io-lanes": true, "prefetch-depth": true, "pattern": true,
	"faults": true, "retries": true, "memo": true, "radixsort": true, "nodes": true,
	"innode-combiner": true, "egress-lanes": true,
}

type runOpts struct {
	app, rt, merge, pattern  string
	size, chunkSz, bw        int64
	budget                   int64
	workers, files, filesPer int
	fileSize                 int64
	trace, adaptive, hybrid  bool
	energy                   bool
	flatComb                 bool
	contexts                 int
	bucket                   time.Duration
	seed                     int64
	faults, retries          string
	ioLanes, prefetch        int
	memo                     bool
	memoBudget               int64
	radix                    bool
	nodes                    int
	innodeComb               bool
	egressLanes              int
	egressExtent             int64
}

func run(ctx context.Context, o runOpts) error {
	app, rt := o.app, o.rt
	size, chunkSz, bw := o.size, o.chunkSz, o.bw
	workers, merge := o.workers, o.merge
	files, filesPer, fileSize := o.files, o.filesPer, o.fileSize
	trace, contexts, bucket, seed := o.trace, o.contexts, o.bucket, o.seed

	clock := supmr.NewClock()
	var dev supmr.Device
	if bw > 0 {
		d, err := supmr.NewDisk("sim", float64(bw), 0, clock)
		if err != nil {
			return err
		}
		dev = d
	} else {
		dev = supmr.NewFastDevice(clock)
	}

	cfg := supmr.Config{
		Context:        ctx,
		Workers:        workers,
		ChunkBytes:     chunkSz,
		FilesPerChunk:  filesPer,
		Clock:          clock,
		AdaptiveChunks: o.adaptive,
		HybridChunks:   o.hybrid,
		IOLanes:        o.ioLanes,
		PrefetchDepth:  o.prefetch,
	}
	if o.faults != "" {
		plan, err := cliutil.ParseFaultPlan(o.faults)
		if err != nil {
			return err
		}
		cfg.Faults = supmr.NewFaultInjector(plan, clock)
	}
	if o.retries != "" {
		policy, err := cliutil.ParseRetryPolicy(o.retries)
		if err != nil {
			return err
		}
		cfg.Retry = policy
	}
	if o.egressLanes != 0 {
		// Negative values flow through so Config.Validate rejects them with
		// a named error instead of silently skipping egress.
		cfg.EgressLanes = o.egressLanes
		cfg.EgressExtentBytes = o.egressExtent
		cfg.EgressDevice = dev // egress contends with ingest for the same bandwidth
	}
	switch rt {
	case "supmr":
		cfg.Runtime = supmr.RuntimeSupMR
	case "traditional":
		cfg.Runtime = supmr.RuntimeTraditional
	default:
		return fmt.Errorf("unknown runtime %q", rt)
	}
	switch merge {
	case "":
	case "pairwise":
		m := supmr.MergePairwise
		cfg.Merge = &m
	case "pway":
		m := supmr.MergePWay
		cfg.Merge = &m
	default:
		return fmt.Errorf("unknown merge algorithm %q", merge)
	}
	if trace {
		cfg.TraceContexts = contexts
		cfg.TraceBucket = bucket
	}
	if o.budget > 0 {
		switch app {
		case "histogram", "linreg":
			return fmt.Errorf("-budget is incompatible with -app %s: its array container has a fixed footprint and cannot spill", app)
		case "invindex":
			return fmt.Errorf("-budget is incompatible with -app invindex: []string values have no spill codec")
		case "kmeans":
			return fmt.Errorf("-budget is incompatible with -app kmeans: the iterative driver re-creates its container every iteration")
		}
		cfg.MemoryBudget = o.budget
		cfg.SpillDevice = dev // spill contends with ingest for the same bandwidth
	}
	if !o.radix {
		off := false
		cfg.RadixSort = &off
	}
	if o.memo {
		switch app {
		case "kmeans":
			return fmt.Errorf("-memo is incompatible with -app kmeans: map output depends on the evolving centroids, not just chunk content, so cached chunks would replay stale assignments")
		case "invindex":
			return fmt.Errorf("-memo is incompatible with -app invindex: []string values have no cache codec")
		}
		cfg.Memo = true
		cfg.MemoBudget = o.memoBudget
		// Key the cache by everything that shapes map output besides the
		// chunk content: the app and, for grep, its pattern list.
		cfg.MemoKeySpace = app
		if app == "grep" {
			cfg.MemoKeySpace = "grep:" + o.pattern
		}
	}
	if !o.innodeComb && o.nodes == 0 {
		return fmt.Errorf("-innode-combiner=off requires -nodes: the combiner tier only exists in multi-node runs")
	}
	if o.nodes > 0 {
		switch app {
		case "invindex":
			return fmt.Errorf("-nodes is incompatible with -app invindex: []string values have no wire codec")
		case "kmeans":
			return fmt.Errorf("-nodes is incompatible with -app kmeans: the iterative driver re-creates its container every iteration")
		}
		cfg.Nodes = o.nodes
		if !o.innodeComb {
			off := false
			cfg.InNodeCombiner = &off
		}
	}
	// Which modes need the supmr runtime or exclude each other is
	// supmr.Config's to say; only the per-app rules live here.
	if err := cfg.Validate(); err != nil {
		return err
	}

	var (
		times  fmt.Stringer
		stats  *supmr.Stats
		allocs fmt.Stringer
		notes  []string
		tr     interface{ ASCII(int) string }
		report func()
	)
	switch app {
	case "wordcount":
		rep, err := runWordCount(cfg, dev, size, files, fileSize, seed, o.flatComb)
		if err != nil {
			return err
		}
		times, stats, allocs, notes = &rep.Times, &rep.Stats, rep.Allocs, rep.Notes
		report = func() {
			fmt.Printf("distinct words: %d  occurrences kept: %d  map waves: %d\n",
				len(rep.Pairs), rep.Stats.IntermediateN, rep.Stats.MapWaves)
		}
		if rep.Trace != nil {
			tr = rep.Trace
		}
	case "sort":
		cfg.Boundary = supmr.CRLFRecords
		f, err := supmr.TeraFile("sortinput", size/100, uint64(seed), dev)
		if err != nil {
			return err
		}
		rep, err := supmr.RunFile[string, uint64](supmr.SortJob(), f, supmr.SortContainer(), cfg)
		if err != nil {
			return err
		}
		times, stats, notes = &rep.Times, &rep.Stats, rep.Notes
		report = func() {
			fmt.Printf("records sorted: %d  map waves: %d  merge rounds: %d\n",
				len(rep.Pairs), rep.Stats.MapWaves, rep.Stats.MergeRounds)
		}
		if rep.Trace != nil {
			tr = rep.Trace
		}
	case "histogram":
		f, err := supmr.TextFile("histinput", size, seed, dev)
		if err != nil {
			return err
		}
		job := supmr.HistogramJob()
		rep, err := supmr.RunFile[int, int64](job, f, job.NewContainer(8), cfg)
		if err != nil {
			return err
		}
		times, stats, notes = &rep.Times, &rep.Stats, rep.Notes
		report = func() {
			fmt.Printf("byte values seen: %d  map waves: %d\n", len(rep.Pairs), rep.Stats.MapWaves)
		}
		if rep.Trace != nil {
			tr = rep.Trace
		}
	case "invindex":
		if files <= 0 {
			files = 16
		}
		inputs, err := supmr.TextFiles("doc", files, fileSize, seed, dev)
		if err != nil {
			return err
		}
		cfg.FilesPerChunk = 1 // per-file attribution
		job := supmr.InvertedIndexJob()
		rep, err := supmr.RunFiles[string, []string](job, inputs, job.NewContainer(32), cfg)
		if err != nil {
			return err
		}
		times, stats = &rep.Times, &rep.Stats
		report = func() {
			fmt.Printf("indexed words: %d  files: %d\n", len(rep.Pairs), files)
		}
		if rep.Trace != nil {
			tr = rep.Trace
		}
	case "grep":
		pats := strings.Split(o.pattern, ",")
		job := supmr.GrepJob(pats...)
		f, err := supmr.TextFile("grepinput", size, seed, dev)
		if err != nil {
			return err
		}
		cont := job.NewContainer()
		if !o.flatComb {
			cont = job.NewMapContainer()
		}
		rep, err := supmr.RunFile[string, int64](job, f, cont, cfg)
		if err != nil {
			return err
		}
		times, stats, allocs, notes = &rep.Times, &rep.Stats, rep.Allocs, rep.Notes
		report = func() {
			for _, p := range rep.Pairs {
				fmt.Printf("  %-16s %d matching lines\n", p.Key, p.Val)
			}
		}
		if rep.Trace != nil {
			tr = rep.Trace
		}
	case "kmeans":
		km := supmr.KMeansJob(4, 2)
		km.Epsilon = 0.05
		f, err := supmr.TextFile("points", size, seed, dev) // bytes as 2-D points
		if err != nil {
			return err
		}
		res, err := supmr.RunKMeans(km, f, cfg, 25)
		if err != nil {
			return err
		}
		fmt.Printf("app=%s runtime=supmr size=%d chunk=%d bw=%d\n", app, size, chunkSz, bw)
		fmt.Printf("k-means: %d iterations, %d total map waves, final movement %.4f\n",
			res.Iterations, res.Waves, res.Moved)
		for i, n := range res.Sizes {
			fmt.Printf("  cluster %d: %d points, centroid (%.1f, %.1f)\n",
				i, n, km.Centroids[i][0], km.Centroids[i][1])
		}
		return nil
	case "linreg":
		job := supmr.LinearRegressionJob()
		f, err := supmr.TextFile("points", size, seed, dev) // any bytes are points
		if err != nil {
			return err
		}
		cfg.Boundary = supmr.FixedRecords(2)
		rep, err := supmr.RunFile[int, float64](job, f, job.NewContainer(), cfg)
		if err != nil {
			return err
		}
		times, stats = &rep.Times, &rep.Stats
		report = func() {
			if slope, intercept, ok := job.Fit(rep.Pairs); ok {
				fmt.Printf("fit: y = %.4f*x + %.2f over %d points\n", slope, intercept, int64(rep.Pairs[0].Val))
			}
		}
		if rep.Trace != nil {
			tr = rep.Trace
		}
	default:
		return fmt.Errorf("unknown app %q", app)
	}

	fmt.Printf("app=%s runtime=%s size=%d chunk=%d bw=%d\n", app, rt, size, chunkSz, bw)
	fmt.Println(times.String())
	if allocs != nil {
		if s := allocs.String(); s != "" {
			fmt.Println("allocs:", s)
		}
	}
	report()
	if stats != nil && stats.SpilledRuns > 0 {
		fmt.Printf("spill: %d runs, %d bytes written, merged in %d round(s) (budget %d)\n",
			stats.SpilledRuns, stats.SpilledBytes, stats.MergeRounds, o.budget)
	}
	if stats != nil && (stats.MemoHits > 0 || stats.MemoMisses > 0) {
		fmt.Printf("memo: %d hits, %d misses, %s saved (budget %s)\n",
			stats.MemoHits, stats.MemoMisses,
			cliutil.FormatBytes(stats.MemoBytesSaved), cliutil.FormatBytes(o.memoBudget))
	}
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if stats != nil && stats.Faults.Any() {
		fmt.Println("faults:", stats.Faults.String())
	}
	if stats != nil && stats.RadixRuns > 0 {
		fmt.Printf("sortpath: %d run(s) radix-sorted\n", stats.RadixRuns)
	}
	if stats != nil && o.nodes > 0 {
		fmt.Printf("shuffle: %d node(s), %s in %d frame(s) on the wire\n",
			o.nodes, cliutil.FormatBytes(stats.ShuffleBytes), stats.ShuffleFrames)
	}
	if stats != nil && (o.ioLanes > 1 || o.prefetch > 1) {
		fmt.Printf("ingest: %d prefetch hits, %s stalled", stats.PrefetchHits, stats.IngestStall.Round(time.Microsecond))
		if len(stats.IngestLaneBytes) > 0 {
			fmt.Printf(", lane bytes")
			for i, b := range stats.IngestLaneBytes {
				fmt.Printf(" %d:%s", i, cliutil.FormatBytes(b))
			}
		}
		fmt.Println()
	}
	if stats != nil && o.egressLanes > 0 {
		fmt.Printf("egress: %s in %d extent(s), %s stalled", cliutil.FormatBytes(stats.EgressBytes),
			stats.EgressExtents, stats.EgressStall.Round(time.Microsecond))
		if len(stats.EgressLaneBytes) > 0 {
			fmt.Printf(", lane bytes")
			for i, b := range stats.EgressLaneBytes {
				fmt.Printf(" %d:%s", i, cliutil.FormatBytes(b))
			}
		}
		fmt.Println()
	}
	if trace && tr != nil {
		fmt.Println()
		fmt.Print(tr.ASCII(16))
	}
	if o.energy {
		if ut, ok := tr.(*supmr.UtilTrace); ok && ut != nil {
			e := supmr.Energy(ut, contexts)
			fmt.Printf("energy: %.1f J over %v (avg %.1f W, peak %.1f W, E*D %.1f J*s)\n",
				e.Joules, e.Duration.Round(time.Millisecond), e.AvgWatts, e.PeakWatts, e.EnergyDelay())
		}
	}
	return nil
}

func runWordCount(cfg supmr.Config, dev supmr.Device, size int64, files int, fileSize int64, seed int64, flatComb bool) (*supmr.Report[string, int64], error) {
	job := supmr.WordCountJob()
	cont := supmr.WordCountContainer(64)
	if !flatComb {
		cont = supmr.WordCountMapContainer(64)
	}
	if files > 0 {
		inputs, err := supmr.TextFiles("wc", files, fileSize, seed, dev)
		if err != nil {
			return nil, err
		}
		return supmr.RunFiles[string, int64](job, inputs, cont, cfg)
	}
	f, err := supmr.TextFile("wcinput", size, seed, dev)
	if err != nil {
		return nil, err
	}
	return supmr.RunFile[string, int64](job, f, cont, cfg)
}

// onOffFlag is a boolean flag that also accepts on/off, so the ablation
// reads naturally as -flatcombiner=off.
type onOffFlag bool

func (f *onOffFlag) String() string {
	if bool(*f) {
		return "on"
	}
	return "off"
}

func (f *onOffFlag) Set(s string) error {
	switch strings.ToLower(s) {
	case "on", "true", "1", "yes":
		*f = true
	case "off", "false", "0", "no":
		*f = false
	default:
		return fmt.Errorf("invalid value %q (want on or off)", s)
	}
	return nil
}

func (f *onOffFlag) IsBoolFlag() bool { return true }

// parseSize parses "64", "64k", "4m", "2g" into bytes.
func parseSize(s string) int64 {
	v, err := cliutil.ParseSize(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supmr:", err)
		os.Exit(2)
	}
	return v
}

func parseCount(s string) int {
	v, err := cliutil.ParseCount(s, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supmr:", err)
		os.Exit(2)
	}
	return v
}

// parseCount0 is parseCount for knobs where 0 means "default/off"
// (egress lanes, psum block sizing).
func parseCount0(s string) int {
	v, err := cliutil.ParseCount(s, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supmr:", err)
		os.Exit(2)
	}
	return v
}

func parseDur(s string) time.Duration {
	d, err := cliutil.ParseDuration(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "supmr:", err)
		os.Exit(2)
	}
	return d
}

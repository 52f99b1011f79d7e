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
	if len(os.Args) > 1 {
		if sub := subcommands[os.Args[1]]; sub != nil {
			sub(os.Args[2:])
			return
		}
	}
	spec, digest, energy := parseFlags(os.Args[1:])
	// Ctrl-C cancels the job context: the runtime aborts within the
	// current round and the process exits cleanly instead of dying
	// mid-phase.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// One path whatever is printed: the spec runs through the builder
	// supmrd, `supmr submit` and DAG rounds use, so the -digest line
	// diffs cleanly against `supmr submit -wait`.
	res, err := jobspec.Run(ctx, spec, nil)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "supmr: interrupted")
			os.Exit(130)
		}
		fatal(err)
	}
	if digest {
		fmt.Printf("app=%s pairs=%d digest=%s", res.App, res.OutputPairs, res.Digest)
		if res.EgressBytes > 0 {
			// Byte-identical at any lane count, so this line diffs cleanly
			// across -egress-lanes settings.
			fmt.Printf(" egress=%dB/%d", res.EgressBytes, res.EgressExtents)
		}
		fmt.Println()
		return
	}
	chunk := spec.ChunkBytes
	if res.Runtime == supmr.RuntimeTraditional.String() {
		chunk = 0 // the preset reads the input whole, as -chunk 0 does
	}
	fmt.Printf("app=%s runtime=%s size=%d chunk=%d bw=%d\n", res.App, res.Runtime, spec.Size, chunk, spec.BW)
	if res.Times != "" {
		fmt.Println(res.Times)
	}
	d := res.Detail
	fmt.Print(d.Summary)
	res.WriteReport(os.Stdout, "")
	if d.Trace != nil {
		fmt.Println()
		fmt.Print(d.Trace.ASCII(16))
		if energy {
			e := supmr.Energy(d.Trace, spec.Solo.TraceContexts)
			fmt.Printf("energy: %.1f J over %v (avg %.1f W, peak %.1f W, E*D %.1f J*s)\n",
				e.Joules, e.Duration.Round(time.Millisecond), e.AvgWatts, e.PeakWatts, e.EnergyDelay())
		}
	}
}

// specFlags registers the knobs a jobspec.Spec carries over the wire —
// the ones plain `supmr` and `supmr submit` share — with the surface's
// own defaults for the workload size, the chunk size and the device
// bandwidth, and returns the function that reads them back into a Spec
// once fs is parsed.
func specFlags(fs *flag.FlagSet, size, chunk, bw string) func() jobspec.Spec {
	var (
		app      = fs.String("app", jobspec.DefaultApp, "application: "+jobspec.Apps())
		rt       = fs.String("runtime", "supmr", "runtime: traditional | supmr")
		sizeStr  = fs.String("size", size, "input size in bytes (k/m/g suffixes)")
		seed     = fs.Int64("seed", 1, "workload generation seed")
		chunkSz  = fs.String("chunk", chunk, "SupMR ingest chunk size (0 = whole input; submitted to supmrd, 0 = 256k)")
		budget   = fs.String("budget", "0", "intermediate-container memory budget in bytes; over-budget state spills to the simulated device (0 = unbudgeted; refused with -memo, -nodes or -runtime traditional; on supmrd this is the request and the engine may grant less)")
		bwStr    = fs.String("bw", bw, "simulated storage bandwidth, bytes/sec (0 = infinite)")
		ioLanes  = fs.String("io-lanes", "1", "IO lanes for striped ingest: each chunk read splits into this many shares read in parallel, each share sent as requests of at most 128 KiB issued together (1 = one request per read; set aside by -runtime traditional)")
		prefetch = fs.String("prefetch-depth", "1", "prefetch depth: ingest chunk reads kept in flight ahead of the map wave (set aside by -runtime traditional)")
		pattern  = fs.String("pattern", "", "comma-separated patterns for a string-match run (empty = the app's default)")
		faults   = fs.String("faults", "", "deterministic fault plan, e.g. seed=42,read-err-every=100,short-read=0.05,latency=2ms,latency-prob=0.1 (keys: seed, read-err[-every], write-err[-every], short-read[-every], latency[-prob|-every], permanent[-every], max)")
		retries  = fs.String("retries", "", "retry policy for transient faults: attempt count (\"4\") or attempts=N,base=DUR,max=DUR,budget=N")
		nodes    = fs.Int("nodes", 0, "run on a simulated cluster of N SupMR worker nodes exchanging key ranges of their runs, cut at sampled splitters, over simulated links (refused by -runtime traditional; 0 = single-node scale-up pipeline; output byte-identical)")
		egLanes  = fs.Int("egress-lanes", 0, "materialize the merged output across N concurrent extent writers after the merge (1 = serial-writer ablation, byte-identical output at any lane count; 0 = skip output materialization)")
	)
	memo := cliutil.OnOff(false)
	fs.Var(&memo, "memo", "content-addressed incremental recompute: content-defined chunking plus a per-chunk map/combine memo cache — on supmrd the server's shared store, so a re-submission over mostly unchanged content replays cached map output (single-file inputs; refused by -runtime traditional); off is the ablation spelling")
	radix := cliutil.OnOff(true)
	fs.Var(&radix, "radixsort", "fixed-width-key sort fast path (scatter finish, radix run sort, prefix-head merge); off falls back to comparison sort everywhere (ablation, byte-identical output)")
	return func() jobspec.Spec {
		return jobspec.Spec{
			App: *app, Runtime: *rt, Size: parseSize(*sizeStr), Seed: *seed,
			ChunkBytes: parseSize(*chunkSz), Budget: parseSize(*budget), BW: parseSize(*bwStr),
			IOLanes: parseCount(*ioLanes), PrefetchDepth: parseCount(*prefetch),
			Pattern: *pattern, Faults: *faults, Retries: *retries, Memo: bool(memo), RadixOff: !bool(radix),
			// Negative values flow through so validation rejects them with a
			// named error instead of silently skipping the mode.
			Nodes: *nodes, EgressLanes: *egLanes,
		}
	}
}

// parseFlags turns the command line into the job spec it describes —
// the knobs a job server could not carry ride in spec.Solo — and the
// two print choices: the digest line instead of the report, and the
// energy estimate under the trace.
func parseFlags(args []string) (spec jobspec.Spec, digest, energy bool) {
	fs := flag.NewFlagSet("supmr", flag.ExitOnError)
	wire := specFlags(fs, "32m", "2m", "8m")
	var (
		workers   = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		merge     = fs.String("merge", "", "merge algorithm override: pairwise | pway")
		files     = fs.Int("files", 0, "use N small files with intra-file chunking instead of one big file")
		filesPer  = fs.Int("files-per-chunk", 4, "files per intra-file chunk")
		fileSize  = fs.String("filesize", "1m", "per-file size for -files")
		trace     = fs.Bool("trace", false, "print utilization trace")
		adaptive  = fs.Bool("adaptive", false, "enable the adaptive chunk-size feedback loop")
		hybrid    = fs.Bool("hybrid", false, "use hybrid inter/intra-file chunking for -files inputs")
		energyF   = fs.Bool("energy", false, "estimate energy from the utilization trace (implies -trace)")
		contexts  = fs.Int("contexts", 4, "hardware contexts to normalize the trace to")
		bucketStr = fs.String("bucket", "100ms", "trace bucket width")
		digestF   = fs.Bool("digest", false, "print the output digest instead of the full report, for diffing against a server-mode run; the job is the same one either way")
		memoBudg  = fs.String("memo-budget", "64m", "memo-store byte budget; least-recently-used entries evict beyond it")
		egExtent  = fs.String("egress-extent", "256k", "egress extent size for -egress-lanes")
	)
	flatComb := cliutil.OnOff(true)
	fs.Var(&flatComb, "flatcombiner", "use the flat (arena-interned, open-addressing) combining container where the app combines on string keys; off selects the map-backed combiner (ablation)")
	innodeComb := cliutil.OnOff(true)
	fs.Var(&innodeComb, "innode-combiner", "pre-aggregate each node's map output before transmission in a -nodes run; off ships every per-chunk run as-is (ablation, byte-identical output, more wire bytes)")
	fs.Parse(args)

	spec = wire()
	spec.InNodeCombinerOff = !bool(innodeComb)
	spec.Solo = jobspec.Solo{
		Workers: *workers, Merge: *merge, Files: *files, FilesPerChunk: *filesPer, FileSize: parseSize(*fileSize),
		Hybrid: *hybrid, Adaptive: *adaptive, WholeInput: spec.ChunkBytes == 0, MapCombiner: !bool(flatComb),
		MemoBudget: parseSize(*memoBudg), EgressExtent: parseSize(*egExtent),
	}
	if *trace || *energyF {
		spec.Solo.TraceContexts, spec.Solo.TraceBucket = *contexts, parseDur(*bucketStr)
	}
	return spec, *digestF, *energyF
}

// must exits 2 with the parse error: a malformed knob is a usage error.
func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "supmr:", err)
		os.Exit(2)
	}
	return v
}

// parseSize parses "64", "64k", "4m", "2g" into bytes.
func parseSize(s string) int64 { return must(cliutil.ParseSize(s)) }

func parseCount(s string) int { return must(cliutil.ParseCount(s, 1)) }

// parseCount0 is parseCount for knobs where 0 means "default/off"
// (psum block sizing).
func parseCount0(s string) int { return must(cliutil.ParseCount(s, 0)) }

func parseDur(s string) time.Duration { return must(cliutil.ParseDuration(s)) }

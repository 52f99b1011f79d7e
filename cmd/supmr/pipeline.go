// `supmr pipeline` runs a multi-round job chain locally: each round's
// merged output is egressed as checksummed extents and piped straight
// into the next round's ingest (internal/dag) — no intermediate file.
// -materialize is the ablation: stitch each upstream output into an
// in-memory file and re-ingest it; digests must match the piped mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"supmr/internal/dag"
	"supmr/internal/jobspec"
)

func pipelineMain(args []string) {
	fs := flag.NewFlagSet("supmr pipeline", flag.ExitOnError)
	var (
		kind        = fs.String("kind", "prefixsum", "pipeline: prefixsum (psum1 → psum2 over piped block sums) | sortgrep (sort → grep over the piped sorted records)")
		size        = fs.String("size", "4m", "round-1 input size in bytes (k/m/g suffixes)")
		seed        = fs.Int64("seed", 1, "workload generation seed")
		chunkSz     = fs.String("chunk", "256k", "SupMR ingest chunk size")
		block       = fs.Int64("block", 256, "records per block for the prefixsum pipeline")
		pattern     = fs.String("pattern", "00", "comma-separated patterns for the sortgrep pipeline's grep round")
		egLanes     = fs.Int("egress-lanes", 2, "egress extent writers per piped round (1 = serial-writer ablation; output byte-identical at any lane count)")
		ioLanes     = fs.String("io-lanes", "1", "IO lanes for striped ingest")
		prefetch    = fs.String("prefetch-depth", "1", "prefetch depth: ingest chunk reads kept in flight")
		faultsStr   = fs.String("faults", "", "deterministic fault plan applied to every round (see supmr -faults)")
		retries     = fs.String("retries", "", "retry policy for transient faults (see supmr -retries)")
		materialize = fs.Bool("materialize", false, "ablation: write each upstream output to an in-memory file and re-ingest it instead of piping extents (digests must match the piped mode)")
	)
	fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := jobspec.Spec{
		Size:          parseSize(*size),
		Seed:          *seed,
		ChunkBytes:    parseSize(*chunkSz),
		IOLanes:       parseCount(*ioLanes),
		PrefetchDepth: parseCount(*prefetch),
		Faults:        *faultsStr,
		Retries:       *retries,
		EgressLanes:   *egLanes,
	}
	var g dag.Graph
	switch *kind {
	case "prefixsum":
		part, total := base, base
		part.App, part.Block = "psum1", *block
		total.App, total.EgressLanes = "psum2", 0 // sink round: pairs are the output
		g = dag.Graph{Nodes: []dag.Node{
			{ID: "part", Spec: part},
			{ID: "total", Spec: total, Input: "part"},
		}}
	case "sortgrep":
		sorted, hits := base, base
		sorted.App = "sort"
		hits.App, hits.Pattern, hits.EgressLanes = "grep", *pattern, 0
		g = dag.Graph{Nodes: []dag.Node{
			{ID: "sorted", Spec: sorted},
			{ID: "hits", Spec: hits, Input: "sorted"},
		}}
	default:
		fmt.Fprintf(os.Stderr, "supmr: unknown pipeline %q (want prefixsum or sortgrep)\n", *kind)
		os.Exit(2)
	}

	mode := "piped"
	if *materialize {
		mode = "materialized"
	}
	res, err := dag.Run(ctx, g, dag.Options{Materialize: *materialize})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("pipeline=%s mode=%s rounds=%d\n", *kind, mode, len(res.Rounds))
	for _, r := range res.Rounds {
		fmt.Printf("round %-8s app=%-6s pairs=%d digest=%s\n", r.ID, r.Res.App, r.Res.OutputPairs, r.Res.Digest)
		r.Res.WriteReport(os.Stdout, "  ")
	}
}

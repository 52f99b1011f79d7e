// Command hdfscase reproduces the Fig. 7 case study: a scale-up word
// count whose primary storage is a 32-node HDFS behind one 1 Gbit link.
// The original runtime copies the input to the compute node and then
// starts the computation; SupMR ingests chunks from HDFS in parallel
// with map waves. The paper's point — reproduced here — is that the
// pipelined run shows high CPU utilization during ingest yet only a
// small total speedup, because the link-bound ingest dwarfs the map
// phase (Conclusion 4: the benefit depends on the relative phase times).
//
// Runs a scaled real execution by default; -model prints the paper-scale
// model result (30 GB, 125 MB/s link, ~7 s speedup).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"supmr"
	"supmr/internal/cliutil"
	"supmr/internal/perfmodel"
)

func main() {
	var (
		sizeStr  = flag.String("size", "12m", "scaled input size (k/m/g suffixes)")
		nodes    = flag.Int("nodes", 32, "HDFS datanodes")
		linkStr  = flag.String("link", "4m", "scaled shared link bandwidth, bytes/sec")
		chunkStr = flag.String("chunk", "2m", "SupMR ingest chunk size")
		model    = flag.Bool("model", true, "print the paper-scale model result")
		trace    = flag.Bool("trace", true, "print utilization traces")
	)
	flag.Parse()
	size := mustSize(*sizeStr)
	link := float64(mustSize(*linkStr))
	chunkSz := mustSize(*chunkStr)

	if *model {
		base, sup, saved := perfmodel.ModelFig7()
		fmt.Println("=== Fig 7 at paper scale (model): 30GB word count, 32-node HDFS, 1Gbit link ===")
		fmt.Printf("copy-then-compute total: %.1fs    pipelined total: %.1fs    saved: %.1fs\n\n",
			base.Times.Total.Seconds(), sup.Times.Total.Seconds(), saved)
	}

	if err := run(size, *nodes, link, chunkSz, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "hdfscase:", err)
		os.Exit(1)
	}
}

func mustSize(s string) int64 {
	v, err := cliutil.ParseSize(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdfscase:", err)
		os.Exit(2)
	}
	return v
}

func run(size int64, nodes int, linkBW float64, chunkSz int64, trace bool) error {
	fmt.Printf("=== Fig 7 scaled real run: %d B over %d datanodes, link %.1f MB/s ===\n",
		size, nodes, linkBW/1e6)

	setup := func() (supmr.Clock, *supmr.HDFSFile, error) {
		clock := supmr.NewClock()
		cluster, err := supmr.NewHDFS(supmr.HDFSConfig{
			Nodes:     nodes,
			BlockSize: 1 << 20,
			DiskBW:    64 << 20,
			LinkBW:    linkBW,
			Latency:   200 * time.Microsecond,
		}, clock)
		if err != nil {
			return nil, nil, err
		}
		f, err := cluster.Create("input.txt", size, supmr.TextFill(7))
		if err != nil {
			return nil, nil, err
		}
		return clock, f, nil
	}

	// Baseline: copy everything from HDFS to local storage, then run the
	// traditional runtime over the (now memory-resident) local copy.
	clock, hf, err := setup()
	if err != nil {
		return err
	}
	copyStart := clock.Now()
	local, err := hf.CopyToLocal(supmr.NewFastDevice(clock), nil)
	if err != nil {
		return err
	}
	copyTime := clock.Now() - copyStart
	repBase, err := supmr.RunFile[string, int64](supmr.WordCountJob(), local,
		supmr.WordCountContainer(64), supmr.Config{Runtime: supmr.RuntimeTraditional, Clock: clock,
			TraceContexts: traceCtx(trace)}) // 100ms trace buckets, the default
	if err != nil {
		return err
	}
	baseTotal := copyTime + repBase.Times.Total
	fmt.Printf("copy-then-compute: copy=%.2fs compute=%.2fs total=%.2fs\n",
		copyTime.Seconds(), repBase.Times.Total.Seconds(), baseTotal.Seconds())

	// SupMR: ingest chunks straight from HDFS, pipelined with map waves.
	clock2, hf2, err := setup()
	if err != nil {
		return err
	}
	repSup, err := supmr.RunFile[string, int64](supmr.WordCountJob(), hf2,
		supmr.WordCountContainer(64), supmr.Config{Runtime: supmr.RuntimeSupMR,
			ChunkBytes: chunkSz, Clock: clock2,
			TraceContexts: traceCtx(trace)}) // 100ms trace buckets, the default
	if err != nil {
		return err
	}
	fmt.Printf("SupMR pipelined:   %s\n", repSup.Times.String())
	fmt.Printf("saved: %.2fs (high ingest utilization, small total gain — map ≪ link-bound ingest)\n\n",
		baseTotal.Seconds()-repSup.Times.Total.Seconds())

	if trace && repSup.Trace != nil {
		fmt.Println("SupMR pipelined utilization:")
		fmt.Print(repSup.Trace.ASCII(12))
	}
	return nil
}

func traceCtx(on bool) int {
	if on {
		return 4
	}
	return 0
}

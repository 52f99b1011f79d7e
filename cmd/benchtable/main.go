// Command benchtable regenerates the paper's Table II twice:
//
//  1. At paper scale through the calibrated performance model
//     (internal/perfmodel): 155 GB word count and 60 GB sort on the
//     32-context, 384 MB/s testbed.
//  2. As real executions of this runtime on scaled-down inputs over the
//     simulated storage. The tool first measures this machine's actual
//     map throughput per application, then sets the simulated disk
//     bandwidth so the paper's read:map time ratio is reproduced
//     exactly — the quantity that determines every speedup shape.
//
// The shapes to check (§VI): SupMR beats the traditional runtime on
// both apps; small chunks beat large for word count; the sort gain comes
// from the merge column; read+map of SupMR word count ≈ the baseline's
// raw read time (map fully hidden).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"supmr"
	"supmr/internal/cliutil"
	"supmr/internal/metrics"
	"supmr/internal/perfmodel"
	"supmr/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtable:", err)
		os.Exit(1)
	}
}

// run is the whole command behind main, so the smoke test can drive it
// in-process and read what it prints.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchtable", flag.ExitOnError)
	var (
		app      = fs.String("app", "all", "wordcount | sort | all")
		wcSize   = fs.String("wc-size", "24m", "scaled word count input bytes (k/m/g suffixes)")
		sortSize = fs.String("sort-size", "32m", "scaled sort input bytes (k/m/g suffixes)")
		workers  = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		model    = fs.Bool("model", true, "print the paper-scale model table")
		real     = fs.Bool("real", true, "run the scaled real executions")
	)
	fs.Parse(args)
	doWC, doSort := *app == "wordcount" || *app == "all", *app == "sort" || *app == "all"
	if !doWC && !doSort {
		return fmt.Errorf("unknown -app %q (want wordcount, sort or all)", *app)
	}
	wcBytes, err := cliutil.ParseSize(*wcSize)
	if err != nil {
		return err
	}
	sortBytes, err := cliutil.ParseSize(*sortSize)
	if err != nil {
		return err
	}
	if *model {
		fmt.Fprintln(out, "=== Table II at paper scale (calibrated performance model) ===")
		fmt.Fprint(out, perfmodel.FormatComparison(perfmodel.ModelTable2()))
		fmt.Fprintln(out)
	}
	if !*real {
		return nil
	}
	if doWC {
		if err := wordCountTable(out, wcBytes, *workers); err != nil {
			return err
		}
	}
	if doSort {
		return sortTable(out, sortBytes, *workers)
	}
	return nil
}

// measureMapRate times the app's map phase on an in-memory sample to
// learn this machine's map throughput (bytes/sec).
func measureMapRate(run func(data []byte) error, gen func(size int64) []byte) (float64, error) {
	const sample = 2 << 20
	data := gen(sample)
	start := time.Now()
	if err := run(data); err != nil {
		return 0, err
	}
	el := time.Since(start)
	if el <= 0 {
		el = time.Millisecond
	}
	return float64(sample) / el.Seconds(), nil
}

func wordCountTable(w io.Writer, size int64, workers int) error {
	gen := func(n int64) []byte {
		buf := make([]byte, n)
		workload.TextGen{Seed: 7}.Fill()(0, buf)
		return buf
	}
	mapRate, err := measureMapRate(func(data []byte) error {
		_, err := supmr.RunBytes[string, int64](supmr.WordCountJob(), data,
			supmr.WordCountContainer(64), supmr.Config{Runtime: supmr.RuntimeTraditional, Workers: workers})
		return err
	}, gen)
	if err != nil {
		return err
	}
	// Paper: read 403.90 s vs map 67.41 s -> read is 5.99x slower.
	bw := mapRate * (67.41 / 403.90)
	fmt.Fprintf(w, "=== Table II, word count (scaled): input=%d B, sim disk=%.1f MB/s (map rate %.1f MB/s) ===\n",
		size, bw/1e6, mapRate/1e6)

	// Chunk sizes at the paper's fractions of the input: 1/155 and 50/155.
	rows := []struct {
		label string
		chunk int64
		rt    supmr.Runtime
	}{
		{"none", 0, supmr.RuntimeTraditional},
		{"1/155", size / 155, supmr.RuntimeSupMR},
		{"50/155", size * 50 / 155, supmr.RuntimeSupMR},
	}
	var out []metrics.Table2Row
	for _, r := range rows {
		clock := supmr.NewClock()
		dev, err := supmr.NewDisk("sim", bw, 0, clock)
		if err != nil {
			return err
		}
		f, err := supmr.TextFile("wc", size, 7, dev)
		if err != nil {
			return err
		}
		rep, err := supmr.RunFile[string, int64](supmr.WordCountJob(), f,
			supmr.WordCountContainer(64), supmr.Config{
				Runtime: r.rt, Workers: workers, ChunkBytes: r.chunk, Clock: clock,
			})
		if err != nil {
			return err
		}
		out = append(out, metrics.Table2Row{Label: r.label, Times: rep.Times, Fused: r.rt == supmr.RuntimeSupMR})
	}
	fmt.Fprint(w, metrics.FormatTable2("word count: mitigate ingest bottleneck", out))
	fmt.Fprintf(w, "speedup (total, none vs 1/155): %.2fx\n\n",
		metrics.Speedup(out[0].Times.Total, out[1].Times.Total))
	return nil
}

func sortTable(w io.Writer, size int64, workers int) error {
	records := size / workload.TeraRecordSize
	size = records * workload.TeraRecordSize
	// Calibrate against the merge phase: for sort the paper's read and
	// merge phases are nearly equal (182.78 s vs 191.23 s), and the merge
	// is where SupMR's gain lives. Measure this machine's pairwise merge
	// time on the actual record count, then set the simulated disk so
	// read:merge matches the paper.
	data := make([]byte, size)
	workload.TeraGen{Seed: 7}.Fill()(0, data)
	m := supmr.MergePairwise
	cal, err := supmr.RunBytes[string, uint64](supmr.SortJob(), data,
		supmr.SortContainer(), supmr.Config{Runtime: supmr.RuntimeTraditional, Workers: workers, Splits: 64,
			Boundary: supmr.CRLFRecords, Merge: &m})
	if err != nil {
		return err
	}
	mergeTime := cal.Times.Get(metrics.PhaseMerge)
	if mergeTime <= 0 {
		mergeTime = time.Millisecond
	}
	readTarget := time.Duration(float64(mergeTime) * (182.78 / 191.23))
	bw := float64(size) / readTarget.Seconds()
	fmt.Fprintf(w, "=== Table II, sort (scaled): input=%d B (%d records), sim disk=%.1f MB/s (merge cal %.0f ms) ===\n",
		size, records, bw/1e6, mergeTime.Seconds()*1000)

	rows := []struct {
		label string
		chunk int64
		rt    supmr.Runtime
		merge supmr.MergeAlgo
	}{
		{"none", 0, supmr.RuntimeTraditional, supmr.MergePairwise},
		{"1/60", size / 60, supmr.RuntimeSupMR, supmr.MergePWay},
	}
	var out []metrics.Table2Row
	for _, r := range rows {
		clock := supmr.NewClock()
		dev, err := supmr.NewDisk("sim", bw, 0, clock)
		if err != nil {
			return err
		}
		f, err := supmr.TeraFile("sort", records, 7, dev)
		if err != nil {
			return err
		}
		m := r.merge
		rep, err := supmr.RunFile[string, uint64](supmr.SortJob(), f,
			supmr.SortContainer(), supmr.Config{
				Runtime: r.rt, Workers: workers, Splits: 64, ChunkBytes: r.chunk,
				Boundary: supmr.CRLFRecords, Merge: &m, Clock: clock,
			})
		if err != nil {
			return err
		}
		out = append(out, metrics.Table2Row{Label: r.label, Times: rep.Times, Fused: r.rt == supmr.RuntimeSupMR, Merged: m == supmr.MergePWay})
	}
	fmt.Fprint(w, metrics.FormatTable2("sort: mitigate merge bottleneck", out))
	fmt.Fprintf(w, "speedup (total): %.2fx   speedup (merge): %.2fx\n\n",
		metrics.Speedup(out[0].Times.Total, out[1].Times.Total),
		metrics.Speedup(out[0].Times.Get(metrics.PhaseMerge), out[1].Times.Get(metrics.PhaseMerge)))
	return nil
}

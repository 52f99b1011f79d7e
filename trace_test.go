package supmr

import (
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"supmr/internal/storage"
	"supmr/internal/workload"
)

// TestTraceRootedAtJobStart: a job's trace covers the job, wherever its
// clock stood when it began — a clock reused across jobs, an engine's
// long-lived clock, or the storage clock the docs say to pass. Here the
// clock has already run for an hour; the trace must still show the
// job's IO wait, and every marker must land on the chart.
func TestTraceRootedAtJobStart(t *testing.T) {
	clk := storage.NewFakeClock()
	clk.Advance(time.Hour)
	dev, err := NewDisk("d", 4<<20, 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TextFile("c", 256<<10, 5, dev)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunFile[string, int64](WordCountJob(), f, WordCountContainer(8), Config{
		Runtime: RuntimeSupMR, ChunkBytes: 32 << 10, Workers: 2, Clock: clk,
		TraceContexts: 3, TraceBucket: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Trace
	if tr == nil || tr.Start < time.Hour {
		t.Fatalf("trace %+v not rooted at the job's start on its clock", tr)
	}
	if tr.MeanTotal() <= 0 {
		t.Errorf("trace of a job starting an hour into its clock shows %.1f%% utilization", tr.MeanTotal())
	}
	if len(rep.Markers) == 0 || rep.Markers[0].At < tr.Start {
		t.Fatalf("markers %v not on the job clock after the trace start %v", rep.Markers, tr.Start)
	}
	// Every marker is inside the trace, so the legend lists them all at
	// offsets within the charted duration (printed to 0.1 s).
	legend := regexp.MustCompile(`=[a-z+:]+@([0-9.]+)s`).FindAllStringSubmatch(tr.AnnotatedASCII(8, rep.Markers), -1)
	if len(legend) == 0 {
		t.Fatal("no marker landed on the ruler")
	}
	for _, m := range legend {
		if at, _ := strconv.ParseFloat(m[1], 64); at < 0 || at > tr.Duration().Seconds()+0.05 {
			t.Errorf("marker at %vs outside the %v chart", at, tr.Duration())
		}
	}
}

// TestEngineTracesArePerJob: two concurrent submissions on one engine
// each get a trace of their own work — its integrated user time matches
// that job's compute busy time, not the pair's.
func TestEngineTracesArePerJob(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 2})
	defer eng.Close()
	const contexts, bucket = 4, 5 * time.Millisecond
	cfg := Config{Runtime: RuntimeSupMR, ChunkBytes: 128 << 10, Engine: eng, TraceContexts: contexts, TraceBucket: bucket}

	text := genText(t, 1<<20, 41)
	recs := make([]byte, 80_000*workload.TeraRecordSize)
	workload.TeraGen{Seed: 9}.Fill()(0, recs)
	sortCfg := cfg
	sortCfg.Boundary = CRLFRecords

	var (
		wg    sync.WaitGroup
		stats [2]Stats
		trs   [2]*UtilTrace
		errs  [2]error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		rep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), cfg)
		if errs[0] = err; err == nil {
			stats[0], trs[0] = rep.Stats, rep.Trace
		}
	}()
	go func() {
		defer wg.Done()
		rep, err := RunBytes[string, uint64](SortJob(), recs, SortContainer(), sortCfg)
		if errs[1] = err; err == nil {
			stats[1], trs[1] = rep.Stats, rep.Trace
		}
	}()
	wg.Wait()

	busy := func(s Stats) (d time.Duration) {
		for phase, ts := range s.Tasks {
			if phase != "ingest" {
				d += ts.Busy
			}
		}
		return d
	}
	for i, name := range []string{"wordcount", "sort"} {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		tr := trs[i]
		if tr == nil || tr.MeanTotal() <= 0 {
			t.Fatalf("%s: engine run traced %+v", name, tr)
		}
		var userSec float64
		for _, s := range tr.Samples {
			userSec += s.User / 100 * contexts * bucket.Seconds()
		}
		own, other := busy(stats[i]).Seconds(), busy(stats[1-i]).Seconds()
		if userSec < 0.9*own || userSec > 1.1*own {
			t.Errorf("%s: trace integrates %.4f user context-seconds, own compute busy %.4f s (the other job's %.4f s)",
				name, userSec, own, other)
		}
	}
}

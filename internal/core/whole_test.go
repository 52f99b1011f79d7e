package core

// Whole-input cases: Run over a chunk.NewWholeInput stream is the
// traditional baseline (Table II's "none" row), one chunk and one map
// wave.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"supmr/internal/chunk"
	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/metrics"
	"supmr/internal/storage"
)

// wholeStream delivers data as one chunk, read through 4 KiB inner
// chunks.
func wholeStream(t *testing.T, data []byte) chunk.Stream {
	t.Helper()
	return chunk.NewWholeInput(textStream(t, data, 4<<10))
}

func TestRunWordCount(t *testing.T) {
	text := genText(t, 32<<10)
	wc := wcApp{}
	res, err := Run[string, int64](wc, wholeStream(t, text), wc.NewContainer(16),
		Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref := refCounts(text)
	if len(res.Pairs) != len(ref) {
		t.Fatalf("got %d words, want %d", len(res.Pairs), len(ref))
	}
	for _, p := range res.Pairs {
		if ref[p.Key] != p.Val {
			t.Errorf("count[%q] = %d, want %d", p.Key, p.Val, ref[p.Key])
		}
	}
	if !kv.IsSortedPairs(res.Pairs, wc.Less) {
		t.Error("output not sorted")
	}
	if res.Stats.MapWaves != 1 || res.Stats.BytesIngested != int64(len(text)) {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestRunRecordsPhaseTimes(t *testing.T) {
	text := genText(t, 16<<10)
	wc := wcApp{}
	res, err := Run[string, int64](wc, wholeStream(t, text), wc.NewContainer(8),
		Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Times.Total <= 0 {
		t.Error("total time not recorded")
	}
	for _, p := range []metrics.Phase{metrics.PhaseRead, metrics.PhaseMap, metrics.PhaseReduce, metrics.PhaseMerge} {
		if res.Times.Get(p) <= 0 {
			t.Errorf("phase %v not recorded", p)
		}
	}
	if res.Times.Get(metrics.PhaseReadMap) != 0 {
		t.Error("a whole-input run should not record a fused read+map phase")
	}
}

// TestIngestMarksIOWait: the whole-input read is a task on the IO lane,
// which the utilization trace shows as IO wait while the device serves
// it — the sequential ingest phase of Fig. 1's first 180 seconds.
func TestIngestMarksIOWait(t *testing.T) {
	clock := storage.NewFakeClock()
	data := genText(t, 8<<10)
	d, err := storage.NewDisk(storage.DiskConfig{Name: "d", Bandwidth: 8 << 10}, clock)
	if err != nil {
		t.Fatal(err)
	}
	f, err := storage.NewFile("in", int64(len(data)), 0, func(off int64, p []byte) { copy(p, data[off:]) }, d)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := chunk.NewInterFile(f, int64(len(data))+1, chunk.NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPool(nil, exec.Config{Workers: 1, Now: clock.Now})
	defer pool.Close()
	wc := wcApp{}
	res, err := Run[string, int64](wc, chunk.NewWholeInput(inter), wc.NewContainer(4),
		Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BytesIngested != int64(len(data)) {
		t.Fatalf("ingested %d bytes, want %d", res.Stats.BytesIngested, len(data))
	}
	tr := metrics.BuildTrace(pool.Record().Spans(exec.Mark{}), 2, 100*time.Millisecond, 0, clock.Now())
	var iow float64
	for _, s := range tr.Samples {
		iow += s.IOWait
	}
	if iow <= 0 {
		t.Error("ingest did not register IO wait")
	}
}

// TestWholeInputFansOutOverIOLanes: a whole-input stream reads through
// the fetcher like any other InterFile, so at four IO lanes its one read
// is split over all four, and the lanes' bytes sum to the input.
func TestWholeInputFansOutOverIOLanes(t *testing.T) {
	text := genText(t, 32<<10)
	wc := wcApp{}
	res, err := Run[string, int64](wc, wholeStream(t, text), wc.NewContainer(8),
		Options{Workers: 2, IOLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MapWaves != 1 {
		t.Errorf("%d map waves, want the one whole-input chunk", res.Stats.MapWaves)
	}
	var sum int64
	for _, b := range res.Stats.IngestLaneBytes {
		sum += b
	}
	if len(res.Stats.IngestLaneBytes) != 4 || sum != int64(len(text)) {
		t.Errorf("IngestLaneBytes = %v, want four lanes summing to %d", res.Stats.IngestLaneBytes, len(text))
	}
}

// failStream errors after one chunk.
type failStream struct{ served bool }

func (f *failStream) TotalBytes() int64 { return 10 }
func (f *failStream) Next() (*chunk.Chunk, error) {
	if f.served {
		return nil, errors.New("device exploded")
	}
	f.served = true
	return &chunk.Chunk{Data: []byte("x y z\n")}, nil
}

func TestRunPropagatesIngestError(t *testing.T) {
	wc := wcApp{}
	_, err := Run[string, int64](wc, chunk.NewWholeInput(&failStream{}), wc.NewContainer(4),
		Options{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "device exploded") {
		t.Errorf("err = %v, want ingest failure", err)
	}
}

// panicApp panics while mapping a split containing the trigger word.
type panicApp struct{ wcApp }

func (panicApp) Map(split []byte, emit kv.Emitter[string, int64]) {
	if strings.Contains(string(split), "boom") {
		panic("mapper exploded")
	}
	wcApp{}.Map(split, emit)
}

func TestRunSurvivesMapPanic(t *testing.T) {
	// A panicking map task must become a job error naming the split, not
	// kill the process.
	text := append(genText(t, 8<<10), []byte("boom\n")...)
	_, err := Run[string, int64](panicApp{}, wholeStream(t, text), wcApp{}.NewContainer(8),
		Options{Workers: 2})
	if err == nil {
		t.Fatal("panicking map task did not fail the job")
	}
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *exec.PanicError", err)
	}
	if pe.Phase != "map" || pe.Task < 0 {
		t.Errorf("panic error = %+v, want map phase with task index", pe)
	}
	if !strings.Contains(err.Error(), "mapper exploded") {
		t.Errorf("err %q does not name the panic value", err)
	}
}

func TestRunObservesCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := exec.NewPool(ctx, exec.Config{Workers: 2})
	defer pool.Close()
	text := genText(t, 16<<10)
	wc := wcApp{}
	_, err := Run[string, int64](wc, wholeStream(t, text), wc.NewContainer(8),
		Options{Pool: pool})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunRecordsTaskStats(t *testing.T) {
	text := genText(t, 16<<10)
	wc := wcApp{}
	res, err := Run[string, int64](wc, wholeStream(t, text), wc.NewContainer(8),
		Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"ingest", "map", "reduce", "sort"} {
		if res.Stats.Tasks[phase].Tasks == 0 {
			t.Errorf("no %s tasks recorded: %+v", phase, res.Stats.Tasks)
		}
	}
}

package core

import (
	"testing"

	"supmr/internal/exec"
	"supmr/internal/metrics"
)

// TestRunReadsItsOwnWindow: two runs on one pool each report their own
// work. The second run's task counts equal the first's, not their sum,
// its ingest lane bytes add up to its own input, and its times cover
// one run.
func TestRunReadsItsOwnWindow(t *testing.T) {
	pool := exec.NewPool(nil, exec.Config{Workers: 2, IOWorkers: 2})
	defer pool.Close()
	const size = 64 << 10
	text := genText(t, size)
	wc := wcApp{}
	var res [2]*Result[string, int64]
	for i := range res {
		r, err := Run[string, int64](wc, textStream(t, text, 16<<10), wc.NewContainer(8),
			Options{Pool: pool, IOLanes: 2})
		if err != nil {
			t.Fatal(err)
		}
		res[i] = r
	}
	for _, phase := range []string{"ingest", "map", "reduce", "merge"} {
		first, second := res[0].Stats.Tasks[phase].Tasks, res[1].Stats.Tasks[phase].Tasks
		if first == 0 || second != first {
			t.Errorf("%s tasks: first run %d, second %d; want equal and nonzero", phase, first, second)
		}
	}
	for i, r := range res {
		var lanes int64
		for _, b := range r.Stats.IngestLaneBytes {
			lanes += b
		}
		if lanes != size || r.Stats.BytesIngested != size {
			t.Errorf("run %d: lanes carried %d bytes, ingested %d; want %d each", i, lanes, r.Stats.BytesIngested, size)
		}
		if r.Times.Get(metrics.PhaseReadMap) <= 0 || r.Times.Total < r.Times.Get(metrics.PhaseReadMap) {
			t.Errorf("run %d: times %v", i, r.Times)
		}
	}
}

package exec

import (
	"testing"
	"time"

	"supmr/internal/metrics"
)

// fakeNow builds a controllable now() function.
type fakeNow struct{ t time.Duration }

func (f *fakeNow) now() time.Duration { return f.t }

func TestRecordPhases(t *testing.T) {
	fn := &fakeNow{}
	rec := NewRecord(1, fn.now)
	from := rec.Mark()

	fn.t = 1 * time.Second
	rec.StartPhase(metrics.PhaseRead)
	fn.t = 3 * time.Second
	rec.EndPhase(metrics.PhaseRead)

	// Accumulation across repeated start/end (SupMR rounds).
	rec.StartPhase(metrics.PhaseReadMap)
	fn.t = 4 * time.Second
	rec.EndPhase(metrics.PhaseReadMap)
	rec.StartPhase(metrics.PhaseReadMap)
	fn.t = 6 * time.Second
	rec.EndPhase(metrics.PhaseReadMap)

	times := rec.Times(from)
	if got := times.Get(metrics.PhaseRead); got != 2*time.Second {
		t.Errorf("read = %v, want 2s", got)
	}
	if got := times.Get(metrics.PhaseReadMap); got != 3*time.Second {
		t.Errorf("read+map = %v, want 3s", got)
	}
	if times.Total != 6*time.Second {
		t.Errorf("total = %v, want 6s", times.Total)
	}
}

func TestRecordEndWithoutStart(t *testing.T) {
	fn := &fakeNow{}
	rec := NewRecord(1, fn.now)
	from := rec.Mark()
	rec.EndPhase(metrics.PhaseMap) // must not panic or record anything
	if got := rec.Times(from).Get(metrics.PhaseMap); got != 0 {
		t.Errorf("unmatched EndPhase recorded %v", got)
	}
}

func TestRecordMarkers(t *testing.T) {
	fn := &fakeNow{}
	rec := NewRecord(1, fn.now)
	from := rec.Mark()
	fn.t = time.Second
	rec.StartPhase(metrics.PhaseRead)
	fn.t = 3 * time.Second
	rec.EndPhase(metrics.PhaseRead)
	ms := rec.Markers(from)
	if len(ms) != 2 {
		t.Fatalf("got %d markers, want 2", len(ms))
	}
	if ms[0].Label != "read:start" || ms[0].At != time.Second {
		t.Errorf("marker 0 = %+v", ms[0])
	}
	if ms[1].Label != "read:end" || ms[1].At != 3*time.Second {
		t.Errorf("marker 1 = %+v", ms[1])
	}
}

// TestRecordWindow: a reader sees only what was logged after its mark,
// even when a frozen clock stamps everything at one instant — task
// calls, lane bytes, spans, boundaries and events alike. A phase opened
// before the mark does not count toward the window when it closes.
func TestRecordWindow(t *testing.T) {
	clk := &fakeNow{t: time.Hour}
	p := NewPool(nil, Config{Workers: 2, IOWorkers: 2, Now: clk.now})
	defer p.Close()
	rec := p.Record()
	work := func() {
		if _, err := p.ForEach("map", metrics.StateUser, 4, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := p.GoIOSized("ingest", metrics.StateIOWait, 100, func() error { return nil }).Wait(); err != nil {
			t.Fatal(err)
		}
		rec.StartPhase(metrics.PhaseReduce)
		rec.Event("ingest stall")
		rec.EndPhase(metrics.PhaseReduce)
	}
	rec.StartPhase(metrics.PhaseMerge)
	work()
	from := rec.Mark()
	rec.EndPhase(metrics.PhaseMerge)
	work()

	if st := rec.TaskStats(from); st["map"].Tasks != 4 || st["ingest"].Tasks != 1 {
		t.Errorf("window task stats = %+v, want 4 map and 1 ingest task", st)
	}
	var lanes int64
	for _, b := range rec.LaneBytes(from, "ingest") {
		lanes += b
	}
	if lanes != 100 {
		t.Errorf("window lane bytes = %d, want 100", lanes)
	}
	var labels []string
	for _, m := range rec.Markers(from) {
		labels = append(labels, m.Label)
	}
	if got, want := len(labels), 3; got != want || labels[0] != "reduce:start" || labels[1] != "ingest stall" || labels[2] != "reduce:end" {
		t.Errorf("window markers = %q, want reduce:start, ingest stall, reduce:end", labels)
	}
	if all := rec.Markers(Mark{}); len(all) != 8 {
		t.Errorf("whole record holds %d markers, want 8", len(all))
	}
	if times := rec.Times(from); times.Total != 0 || times.Get(metrics.PhaseMerge) != 0 {
		t.Errorf("window times = %v", times)
	}
}

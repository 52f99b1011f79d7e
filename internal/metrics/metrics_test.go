package metrics

import (
	"strings"
	"testing"
	"time"
)

// fakeNow builds a controllable now() function.
type fakeNow struct{ t time.Duration }

func (f *fakeNow) now() time.Duration { return f.t }

func TestTimerPhases(t *testing.T) {
	fn := &fakeNow{}
	tm := NewTimer(fn.now)

	fn.t = 1 * time.Second
	tm.StartPhase(PhaseRead)
	fn.t = 3 * time.Second
	tm.EndPhase(PhaseRead)

	// Accumulation across repeated start/end (SupMR rounds).
	tm.StartPhase(PhaseReadMap)
	fn.t = 4 * time.Second
	tm.EndPhase(PhaseReadMap)
	tm.StartPhase(PhaseReadMap)
	fn.t = 6 * time.Second
	tm.EndPhase(PhaseReadMap)

	times := tm.Finish()
	if got := times.Get(PhaseRead); got != 2*time.Second {
		t.Errorf("read = %v, want 2s", got)
	}
	if got := times.Get(PhaseReadMap); got != 3*time.Second {
		t.Errorf("read+map = %v, want 3s", got)
	}
	if times.Total != 6*time.Second {
		t.Errorf("total = %v, want 6s", times.Total)
	}
}

func TestTimerEndWithoutStart(t *testing.T) {
	fn := &fakeNow{}
	tm := NewTimer(fn.now)
	tm.EndPhase(PhaseMap) // must not panic or record anything
	if got := tm.Finish().Get(PhaseMap); got != 0 {
		t.Errorf("unmatched EndPhase recorded %v", got)
	}
}

func TestPhaseString(t *testing.T) {
	names := map[Phase]string{
		PhaseSetup:   "setup",
		PhaseRead:    "read",
		PhaseMap:     "map",
		PhaseReadMap: "read+map",
		PhaseReduce:  "reduce",
		PhaseMerge:   "merge",
		PhaseCleanup: "cleanup",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
	if s := Phase(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown phase string %q", s)
	}
}

func TestPhaseTimesString(t *testing.T) {
	var pt PhaseTimes
	pt.Set(PhaseRead, 1500*time.Millisecond)
	pt.Total = 2 * time.Second
	s := pt.String()
	if !strings.Contains(s, "total=2s") || !strings.Contains(s, "read=1.5s") {
		t.Errorf("unexpected format: %q", s)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(2*time.Second, time.Second); got != 2 {
		t.Errorf("Speedup = %v, want 2", got)
	}
	if got := Speedup(time.Second, 0); got != 0 {
		t.Errorf("Speedup with zero denominator = %v, want 0", got)
	}
}

func TestUtilRecorderSingleWorker(t *testing.T) {
	fn := &fakeNow{}
	rec := NewUtilRecorder(2, fn.now)
	id := rec.Register()

	rec.SetStateAt(id, StateUser, 0)
	rec.SetStateAt(id, StateIdle, time.Second)
	tr := rec.Build(time.Second, 2*time.Second)
	if len(tr.Samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(tr.Samples))
	}
	// 1 busy worker of 2 contexts for the first second = 50%.
	if got := tr.Samples[0].User; got < 49.9 || got > 50.1 {
		t.Errorf("bucket 0 user = %v%%, want 50%%", got)
	}
	if got := tr.Samples[1].User; got != 0 {
		t.Errorf("bucket 1 user = %v%%, want 0", got)
	}
}

func TestUtilRecorderStacksStates(t *testing.T) {
	fn := &fakeNow{}
	rec := NewUtilRecorder(4, fn.now)
	w1, w2, w3 := rec.Register(), rec.Register(), rec.Register()
	rec.SetStateAt(w1, StateUser, 0)
	rec.SetStateAt(w2, StateSys, 0)
	rec.SetStateAt(w3, StateIOWait, 0)
	tr := rec.Build(time.Second, time.Second)
	s := tr.Samples[0]
	if s.User != 25 || s.Sys != 25 || s.IOWait != 25 {
		t.Errorf("stacked sample = %+v, want 25/25/25", s)
	}
	if s.Total() != 75 {
		t.Errorf("total = %v, want 75", s.Total())
	}
}

func TestUtilRecorderIntervalSplitAcrossBuckets(t *testing.T) {
	fn := &fakeNow{}
	rec := NewUtilRecorder(1, fn.now)
	id := rec.Register()
	// Busy from 0.5s to 1.5s spans two 1s buckets at 50% each.
	rec.SetStateAt(id, StateUser, 500*time.Millisecond)
	rec.SetStateAt(id, StateIdle, 1500*time.Millisecond)
	tr := rec.Build(time.Second, 2*time.Second)
	if got := tr.Samples[0].User; got < 49.9 || got > 50.1 {
		t.Errorf("bucket 0 = %v%%, want 50%%", got)
	}
	if got := tr.Samples[1].User; got < 49.9 || got > 50.1 {
		t.Errorf("bucket 1 = %v%%, want 50%%", got)
	}
}

func TestUtilRecorderOpenIntervalRunsToEnd(t *testing.T) {
	fn := &fakeNow{}
	rec := NewUtilRecorder(1, fn.now)
	id := rec.Register()
	rec.SetStateAt(id, StateIOWait, 0)
	// No closing event: state persists to the end cap.
	tr := rec.Build(time.Second, 3*time.Second)
	for i, s := range tr.Samples {
		if s.IOWait < 99.9 {
			t.Errorf("bucket %d iowait = %v%%, want 100%%", i, s.IOWait)
		}
	}
}

func TestTraceStats(t *testing.T) {
	tr := &Trace{Bucket: time.Second, Samples: []Sample{
		{User: 100}, {User: 0, IOWait: 50},
	}}
	if got := tr.MeanUser(); got != 50 {
		t.Errorf("MeanUser = %v, want 50", got)
	}
	if got := tr.MeanTotal(); got != 75 {
		t.Errorf("MeanTotal = %v, want 75", got)
	}
	if tr.Duration() != 2*time.Second {
		t.Errorf("Duration = %v, want 2s", tr.Duration())
	}
	empty := &Trace{Bucket: time.Second}
	if empty.MeanUser() != 0 || empty.MeanTotal() != 0 {
		t.Error("empty trace means should be 0")
	}
}

func TestTraceASCII(t *testing.T) {
	tr := &Trace{Bucket: time.Second, Samples: []Sample{
		{User: 100}, {IOWait: 100}, {Sys: 50},
	}}
	art := tr.ASCII(10)
	if !strings.Contains(art, "u") || !strings.Contains(art, "w") || !strings.Contains(art, "s") {
		t.Errorf("ASCII missing state glyphs:\n%s", art)
	}
	if !strings.Contains(art, "legend") {
		t.Error("ASCII missing legend")
	}
	if got := (&Trace{}).ASCII(5); !strings.Contains(got, "empty") {
		t.Errorf("empty trace ASCII = %q", got)
	}
}

func TestTraceCSV(t *testing.T) {
	tr := &Trace{Bucket: time.Second, Samples: []Sample{{T: 0, User: 12.5}}}
	csv := tr.CSV()
	if !strings.HasPrefix(csv, "t_seconds,user_pct,sys_pct,iowait_pct\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
	if !strings.Contains(csv, "0.000,12.50,0.00,0.00") {
		t.Errorf("CSV row wrong: %q", csv)
	}
}

func TestFormatTable2(t *testing.T) {
	var base, sup PhaseTimes
	base.Set(PhaseRead, 10*time.Second)
	base.Set(PhaseMap, 2*time.Second)
	base.Total = 12 * time.Second
	sup.Set(PhaseReadMap, 10*time.Second)
	sup.Total = 10 * time.Second
	out := FormatTable2("demo", []Table2Row{
		{Label: "none", Times: base},
		{Label: "1GB", Times: sup, Fused: true},
	})
	if !strings.Contains(out, "none") || !strings.Contains(out, "(fused)") {
		t.Errorf("table format wrong:\n%s", out)
	}
}

func TestSortedPhases(t *testing.T) {
	var pt PhaseTimes
	pt.Set(PhaseMerge, time.Second)
	pt.Set(PhaseRead, time.Second)
	ps := SortedPhases(pt)
	if len(ps) != 2 || ps[0] != PhaseRead || ps[1] != PhaseMerge {
		t.Errorf("SortedPhases = %v", ps)
	}
}

func TestTimerMarkers(t *testing.T) {
	fn := &fakeNow{}
	var log MarkerLog
	tm := NewTimer(fn.now).WithMarkers(&log)
	fn.t = time.Second
	tm.StartPhase(PhaseRead)
	fn.t = 3 * time.Second
	tm.EndPhase(PhaseRead)
	ms := log.Markers()
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

func TestAnnotatedASCII(t *testing.T) {
	tr := &Trace{Bucket: time.Second, Samples: []Sample{
		{User: 50}, {User: 50}, {User: 100}, {User: 10},
	}}
	out := tr.AnnotatedASCII(6, []Marker{
		{At: 0, Label: "read:start"},
		{At: 2 * time.Second, Label: "merge:start"},
		{At: 99 * time.Second, Label: "offscreen"}, // dropped
	})
	if !strings.Contains(out, "markers:") {
		t.Fatalf("no marker ruler:\n%s", out)
	}
	if !strings.Contains(out, "read:start@0.0s") || !strings.Contains(out, "merge:start@2.0s") {
		t.Errorf("marker legend wrong:\n%s", out)
	}
	if strings.Contains(out, "offscreen") {
		t.Error("off-screen marker rendered")
	}
	// No markers: falls back to plain rendering.
	plain := tr.AnnotatedASCII(6, nil)
	if strings.Contains(plain, "markers:") {
		t.Error("marker ruler rendered with no markers")
	}
}

func TestTimerAllocMetering(t *testing.T) {
	fn := &fakeNow{}
	tm := NewTimer(fn.now).WithAllocs()

	// Large objects: the runtime counts those as they are allocated,
	// small ones only when a P's cached span is swapped out.
	tm.StartPhase(PhaseMap)
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	tm.EndPhase(PhaseMap)
	if len(sink) != 64 {
		t.Fatal("allocation loop elided")
	}

	got := tm.Allocs().Get(PhaseMap)
	if got.Objects < 64 {
		t.Errorf("map-phase objects = %d, want >= 64", got.Objects)
	}
	if got.Bytes < 64*64<<10 {
		t.Errorf("map-phase bytes = %d, want >= %d", got.Bytes, 64*64<<10)
	}
	if other := tm.Allocs().Get(PhaseMerge); other.Objects != 0 || other.Bytes != 0 {
		t.Errorf("merge phase recorded %+v without running", other)
	}

	s := tm.Allocs().String()
	if !strings.Contains(s, "map=") {
		t.Errorf("String() = %q, want a map= entry", s)
	}
	if (PhaseAllocs{}).String() != "" {
		t.Error("zero PhaseAllocs should format empty")
	}
}

func TestTimerAllocsDisabledByDefault(t *testing.T) {
	fn := &fakeNow{}
	tm := NewTimer(fn.now)
	tm.StartPhase(PhaseMap)
	_ = make([]byte, 1<<20)
	tm.EndPhase(PhaseMap)
	if a := tm.Allocs(); a.String() != "" {
		t.Errorf("metering off yet recorded %q", a.String())
	}
}

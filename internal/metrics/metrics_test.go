package metrics

import (
	"strings"
	"testing"
	"time"
)

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

// TestBuildTrace: segments integrate into per-bucket shares of
// contexts*bucket, split across bucket edges, clip to [start, end) and
// clamp to [0, 100] %.
func TestBuildTrace(t *testing.T) {
	sec := time.Second
	cases := []struct {
		name       string
		segs       []Segment
		contexts   int
		start, end time.Duration
		want       []Sample // User/Sys/IOWait per bucket (1 s buckets)
	}{
		// 1 busy context of 2 for the first second = 50 %.
		{"single worker", []Segment{StateUser.Segment(0, sec)}, 2, 0, 2 * sec,
			[]Sample{{User: 50}, {}}},
		{"stacks states", []Segment{StateUser.Segment(0, sec), StateSys.Segment(0, sec), StateIOWait.Segment(0, sec)}, 4, 0, sec,
			[]Sample{{User: 25, Sys: 25, IOWait: 25}}},
		// Busy from 0.5 s to 1.5 s spans two 1 s buckets at 50 % each.
		{"interval split across buckets", []Segment{StateUser.Segment(sec/2, 3*sec/2)}, 1, 0, 2 * sec,
			[]Sample{{User: 50}, {User: 50}}},
		// A segment running past the end is clipped to it.
		{"clipped to end", []Segment{StateIOWait.Segment(0, 10*sec)}, 1, 0, 3 * sec,
			[]Sample{{IOWait: 100}, {IOWait: 100}, {IOWait: 100}}},
		{"empty segments", nil, 4, 0, 0, []Sample{{}}},
		// Zero-length and inverted segments contribute nothing.
		{"degenerate segments", []Segment{{Start: 5, End: 5, User: 3}, {Start: 10, End: 2, User: 1}}, 4, 0, 2 * sec,
			[]Sample{{}, {}}},
		// An overcommitted segment cannot exceed 100 %.
		{"clamped", []Segment{{Start: 0, End: sec, User: 100}}, 4, 0, sec, []Sample{{User: 100}}},
		// Rooted at start: work an hour into the clock lands in bucket 0,
		// and work before start is dropped.
		{"rooted at start", []Segment{StateUser.Segment(0, time.Hour), StateUser.Segment(time.Hour, time.Hour+sec)}, 1, time.Hour, time.Hour + 2*sec,
			[]Sample{{User: 100}, {}}},
		// end <= start runs to the last segment's end.
		{"open end", []Segment{StateUser.Segment(time.Hour+sec, time.Hour+2*sec)}, 1, time.Hour, 0,
			[]Sample{{}, {User: 100}}},
	}
	near := func(a, b float64) bool { return a-b < 0.01 && b-a < 0.01 }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := BuildTrace(c.segs, c.contexts, sec, c.start, c.end)
			if tr.Start != c.start || len(tr.Samples) != len(c.want) {
				t.Fatalf("start %v, %d samples; want %v, %d", tr.Start, len(tr.Samples), c.start, len(c.want))
			}
			for i, w := range c.want {
				g := tr.Samples[i]
				if g.T != time.Duration(i)*sec || !near(g.User, w.User) || !near(g.Sys, w.Sys) || !near(g.IOWait, w.IOWait) {
					t.Errorf("bucket %d = %+v, want %+v", i, g, w)
				}
			}
		})
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

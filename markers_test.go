package supmr

import (
	"strings"
	"sync"
	"testing"
)

// phaseMarkerLabels joins the phase-boundary labels of ms, leaving out
// event markers.
func phaseMarkerLabels(ms []TraceMarker) string {
	var out []string
	for _, m := range ms {
		if strings.HasSuffix(m.Label, ":start") || strings.HasSuffix(m.Label, ":end") {
			out = append(out, m.Label)
		}
	}
	return strings.Join(out, " ")
}

// TestPhaseMarkerOrderPinned pins the sequence of phase-boundary markers
// ("<phase>:start"/"<phase>:end") a traced run reports, for word count
// and sort in every mode that brackets phases differently. Event
// markers ("ingest stall") are left out: whether a round stalls depends
// on timing. The sequences were captured from the per-run phase timer
// the job record replaced, so the record must bracket phases exactly as
// it did.
func TestPhaseMarkerOrderPinned(t *testing.T) {
	text := genText(t, 256<<10, 11)
	tera := teraData(3000, 11)
	modes := []struct {
		name string
		cfg  Config
	}{
		{"whole", Config{}},
		{"chunks", Config{ChunkBytes: 64 << 10}},
		{"memo", Config{ChunkBytes: 64 << 10, Memo: true}},
		{"nodes", Config{ChunkBytes: 64 << 10, Nodes: 2}},
		{"budget", Config{ChunkBytes: 64 << 10, MemoryBudget: 1}},
		{"egress", Config{ChunkBytes: 64 << 10, EgressLanes: 2}},
	}
	// in brackets a suspension of the read+map phase around phase p.
	in := func(p string, n int) string {
		return strings.Repeat(" read+map:end "+p+":start "+p+":end read+map:start", n)
	}
	const (
		// Both apps take the scatter finish: its encode, count and
		// scatter bill to merge, then its bucket sorts to runsort.
		finish = " reduce:start reduce:end merge:start merge:end runsort:start runsort:end"
		// Each node's reduce, the exchange, then each destination's
		// finish, a single node's.
		nodes = "read+map:start read+map:end shuffle:start shuffle:end shuffle:start shuffle:end"
	)
	want := map[string]string{
		"wordcount/whole":  "read:start read:end map:start map:end" + finish,
		"sort/whole":       "read:start read:end map:start map:end" + finish,
		"wordcount/chunks": "read+map:start read+map:end" + finish,
		"sort/chunks":      "read+map:start read+map:end" + finish,
		// Six and four chunks, each a lookup and a publish; then the fold.
		"wordcount/memo":  "read+map:start" + in("memo", 12) + " read+map:end memo:start memo:end" + finish,
		"sort/memo":       "read+map:start" + in("memo", 8) + " read+map:end memo:start memo:end" + finish,
		"wordcount/nodes": nodes + finish + finish,
		"sort/nodes":      nodes + finish + finish,
		// Drains between rounds, the join of the last run's write, and a
		// finish that merges the residue, then streams every run.
		"wordcount/budget": "read+map:start" + in("spill", 3) + " read+map:end spill:start spill:end" + finish + " merge:start merge:end",
		"sort/budget":      "read+map:start" + in("spill", 2) + " read+map:end spill:start spill:end" + finish + " merge:start merge:end",
		"wordcount/egress": "read+map:start read+map:end" + finish + " egress:start egress:end",
		"sort/egress":      "read+map:start read+map:end" + finish + " egress:start egress:end",
	}
	for _, m := range modes {
		cfg := m.cfg
		cfg.Workers, cfg.TraceContexts = 2, 2
		if cfg.MemoryBudget > 0 {
			cfg.MemoryBudget = 8 << 10
		}
		t.Run("wordcount/"+m.name, func(t *testing.T) {
			rep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, w := phaseMarkerLabels(rep.Markers), want["wordcount/"+m.name]; got != w {
				t.Errorf("phase markers\n got %q\nwant %q", got, w)
			}
		})
		cfg.Boundary = CRLFRecords
		if cfg.MemoryBudget > 0 {
			cfg.MemoryBudget = 40 << 10
		}
		t.Run("sort/"+m.name, func(t *testing.T) {
			rep, err := RunBytes[string, uint64](SortJob(), tera, SortContainer(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, w := phaseMarkerLabels(rep.Markers), want["sort/"+m.name]; got != w {
				t.Errorf("phase markers\n got %q\nwant %q", got, w)
			}
		})
	}
}

// TestEnginePhasesPerJob: submissions running side by side on one
// engine each report their own phases, times and tasks — a job's
// record holds its own work only, so repeats of a job report alike
// whatever ran beside them.
func TestEnginePhasesPerJob(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 2})
	defer eng.Close()
	cfg := Config{ChunkBytes: 64 << 10, Engine: eng, TraceContexts: 2}
	text := genText(t, 256<<10, 11)
	sortCfg := cfg
	sortCfg.Boundary = CRLFRecords
	tera := teraData(3000, 11)
	const (
		// Both apps take the scatter finish: merge, then runsort.
		want = "read+map:start read+map:end reduce:start reduce:end merge:start merge:end runsort:start runsort:end"
	)
	type run struct {
		labels string
		times  PhaseTimes
		maps   int
		err    error
	}
	var runs [2][3]run
	var wg sync.WaitGroup
	for j := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range runs[j] {
				var (
					markers []TraceMarker
					times   PhaseTimes
					stats   Stats
					err     error
				)
				if j == 0 {
					var rep *Report[string, int64]
					if rep, err = RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), cfg); err == nil {
						markers, times, stats = rep.Markers, rep.Times, rep.Stats
					}
				} else {
					var rep *Report[string, uint64]
					if rep, err = RunBytes[string, uint64](SortJob(), tera, SortContainer(), sortCfg); err == nil {
						markers, times, stats = rep.Markers, rep.Times, rep.Stats
					}
				}
				runs[j][i] = run{phaseMarkerLabels(markers), times, stats.Tasks["map"].Tasks, err}
			}
		}()
	}
	wg.Wait()
	for j := range runs {
		for i, r := range runs[j] {
			if r.err != nil {
				t.Fatalf("job %d run %d: %v", j, i, r.err)
			}
			if r.labels != want {
				t.Errorf("job %d run %d phase markers\n got %q\nwant %q", j, i, r.labels, want)
			}
			if rm := r.times.Get(PhaseReadMap); rm <= 0 || rm > r.times.Total {
				t.Errorf("job %d run %d: read+map %v of total %v", j, i, rm, r.times.Total)
			}
			if r.maps == 0 || r.maps != runs[j][0].maps {
				t.Errorf("job %d run %d: %d map tasks, first run %d", j, i, r.maps, runs[j][0].maps)
			}
		}
	}
}

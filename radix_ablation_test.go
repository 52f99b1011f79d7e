package supmr

// Ablation coverage for the fixed-key sort path: -radixsort=off
// must be byte-identical to the default fast path for every app with a
// fixed-key codec, exact or a string prefix, under both runtimes, with injected faults, and
// under a spill budget — the gate ci.sh re-runs under the race
// detector.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"supmr/internal/apps"
	"supmr/internal/storage"
	"supmr/internal/workload"
)

// radixRun executes job over data with the radix path on or off and
// returns the rendered output plus the report.
func radixRun[K comparable, V any](t *testing.T, job Job[K, V], mkCont func() Container[K, V],
	data []byte, cfg Config, radixOn bool) (string, *Report[K, V]) {
	t.Helper()
	cfg = applyIngestEnv(cfg)
	cfg.Workers = 4
	if !radixOn {
		off := false
		cfg.RadixSort = &off
	}
	rep, err := RunBytes(job, data, mkCont(), cfg)
	if err != nil {
		t.Fatalf("radix=%v: %v", radixOn, err)
	}
	return renderPairs(rep.Pairs), rep
}

func teraData(records int, seed uint64) []byte {
	data := make([]byte, records*workload.TeraRecordSize)
	workload.TeraGen{Seed: seed}.Fill()(0, data)
	return data
}

func TestRadixAblationDigests(t *testing.T) {
	text := genText(t, 128<<10, 5)
	// 8000 records over 64 key-range partitions gives ~125 pairs per
	// run, comfortably past the radix cutover so the counter assertions
	// are non-vacuous.
	tera := teraData(8000, 5)
	for _, rt := range []Runtime{RuntimeTraditional, RuntimeSupMR} {
		rt := rt
		name := "traditional"
		if rt == RuntimeSupMR {
			name = "supmr"
		}
		cfg := Config{Runtime: rt, ChunkBytes: 16 << 10}

		t.Run(name+"/sort", func(t *testing.T) {
			sortCfg := cfg
			sortCfg.Boundary = CRLFRecords
			sortCfg.ChunkBytes = 20 << 10
			on, onRep := radixRun[string, uint64](t, SortJob(),
				func() Container[string, uint64] { return SortContainer() }, tera, sortCfg, true)
			off, offRep := radixRun[string, uint64](t, SortJob(),
				func() Container[string, uint64] { return SortContainer() }, tera, sortCfg, false)
			if on != off {
				t.Fatalf("sort digests diverge: %d vs %d bytes", len(on), len(off))
			}
			if onRep.Stats.RadixRuns == 0 {
				t.Error("radix-on sort reported no radix-sorted runs")
			}
			if offRep.Stats.RadixRuns != 0 {
				t.Errorf("radix-off sort reported %d radix runs", offRep.Stats.RadixRuns)
			}
		})
		t.Run(name+"/histogram", func(t *testing.T) {
			job := HistogramJob()
			on, _ := radixRun[int, int64](t, job,
				func() Container[int, int64] { return job.NewContainer(8) }, text, cfg, true)
			off, _ := radixRun[int, int64](t, job,
				func() Container[int, int64] { return job.NewContainer(8) }, text, cfg, false)
			if on != off {
				t.Fatal("histogram digests diverge")
			}
		})
		t.Run(name+"/linreg", func(t *testing.T) {
			job := LinearRegressionJob()
			lrCfg := cfg
			lrCfg.Boundary = FixedRecords(2)
			on, _ := radixRun[int, float64](t, job,
				func() Container[int, float64] { return job.NewContainer() }, text, lrCfg, true)
			off, _ := radixRun[int, float64](t, job,
				func() Container[int, float64] { return job.NewContainer() }, text, lrCfg, false)
			if on != off {
				t.Fatal("linreg digests diverge")
			}
		})
		t.Run(name+"/wordcount", func(t *testing.T) {
			// Word count takes the radix path through its strings' 8-byte
			// order prefix, with less ordering the keys that share one.
			on, onRep := radixRun[string, int64](t, WordCountJob(),
				func() Container[string, int64] { return WordCountContainer(16) }, text, cfg, true)
			off, offRep := radixRun[string, int64](t, WordCountJob(),
				func() Container[string, int64] { return WordCountContainer(16) }, text, cfg, false)
			if on != off {
				t.Fatal("wordcount digests diverge")
			}
			if onRep.Stats.RadixRuns == 0 {
				t.Error("radix-on wordcount reported no radix-sorted runs")
			}
			if offRep.Stats.RadixRuns != 0 {
				t.Errorf("radix-off wordcount reported %d radix runs", offRep.Stats.RadixRuns)
			}
		})
		t.Run(name+"/kmeans-control", func(t *testing.T) {
			// No fixed-key codec: the toggle must be a no-op and the
			// counter must stay zero either way.
			kmCfg := cfg
			kmCfg.Boundary = FixedRecords(2)
			pts := clusteredPoints(300)
			on, onRep := radixRun[int, apps.ClusterAccum](t, kmeansJob(),
				func() Container[int, apps.ClusterAccum] { return kmeansJob().NewContainer() }, pts, kmCfg, true)
			off, _ := radixRun[int, apps.ClusterAccum](t, kmeansJob(),
				func() Container[int, apps.ClusterAccum] { return kmeansJob().NewContainer() }, pts, kmCfg, false)
			if on != off {
				t.Fatal("kmeans digests diverge")
			}
			if onRep.Stats.RadixRuns != 0 {
				t.Errorf("kmeans reported %d radix runs without a codec", onRep.Stats.RadixRuns)
			}
		})
	}
}

// TestRadixAblationDrainModes holds the toggle and the counters it feeds
// across every drain step of the pipeline: never (plain), every chunk
// into the memo cache, every chunk into node runs, and both. For sort,
// one chunk holds all 8000 records, so each drain sees ~125 pairs per
// partition — past the radix cutover — and IntermediateN must not
// depend on where the drained pairs went. The string-prefix apps (word
// count, the inverted index, grep) run the same modes over 32 KiB
// chunks, and the traditional preset besides.
func TestRadixAblationDrainModes(t *testing.T) {
	tera := teraData(8000, 5)
	base := Config{Runtime: RuntimeSupMR, Boundary: CRLFRecords, ChunkBytes: 1 << 20}
	type mode struct {
		name  string
		memo  bool
		nodes int
	}
	modes := []mode{{"plain", false, 0}, {"memo", true, 0}, {"nodes", false, 2}, {"memo+nodes", true, 2}}
	var want string
	for _, m := range modes {
		cfg := base
		cfg.Memo, cfg.Nodes = m.memo, m.nodes
		on, onRep := radixRun[string, uint64](t, SortJob(),
			func() Container[string, uint64] { return SortContainer() }, tera, cfg, true)
		off, offRep := radixRun[string, uint64](t, SortJob(),
			func() Container[string, uint64] { return SortContainer() }, tera, cfg, false)
		if want == "" {
			want = on
		}
		if on != want || off != want {
			t.Fatalf("%s: digests diverge from the plain radix-on run", m.name)
		}
		if onRep.Stats.RadixRuns == 0 {
			t.Errorf("%s: radix-on sort reported no radix-sorted runs", m.name)
		}
		if offRep.Stats.RadixRuns != 0 {
			t.Errorf("%s: radix-off sort reported %d radix runs", m.name, offRep.Stats.RadixRuns)
		}
		for _, rep := range []*Report[string, uint64]{onRep, offRep} {
			if rep.Stats.IntermediateN != 8000 {
				t.Errorf("%s: IntermediateN = %d, want 8000", m.name, rep.Stats.IntermediateN)
			}
		}
	}

	text := genText(t, 128<<10, 5)
	// 64 two-letter patterns, so grep's few keys still fill a few runs.
	var patterns []string
	for _, a := range "aeinorst" {
		for _, b := range "aeinorst" {
			patterns = append(patterns, string([]rune{a, b}))
		}
	}
	// Each app returns its rendered output and RadixRuns.
	strApps := map[string]func(*testing.T, Config, bool) (string, int){
		"wordcount": func(t *testing.T, c Config, on bool) (string, int) {
			out, rep := radixRun[string, int64](t, WordCountJob(),
				func() Container[string, int64] { return WordCountContainer(16) }, text, c, on)
			return out, rep.Stats.RadixRuns
		},
		"invindex": func(t *testing.T, c Config, on bool) (string, int) {
			job := InvertedIndexJob()
			out, rep := radixRun[string, []string](t, job,
				func() Container[string, []string] { return job.NewContainer(16) }, text, c, on)
			return out, rep.Stats.RadixRuns
		},
		"grep": func(t *testing.T, c Config, on bool) (string, int) {
			job := GrepJob(patterns...)
			out, rep := radixRun[string, int64](t, job,
				func() Container[string, int64] { return job.NewContainer() }, text, c, on)
			return out, rep.Stats.RadixRuns
		},
	}
	for name, run := range strApps {
		t.Run(name, func(t *testing.T) {
			var want string
			for _, m := range append(modes, mode{name: "traditional"}) {
				cfg := Config{Runtime: RuntimeSupMR, ChunkBytes: 32 << 10, Memo: m.memo, Nodes: m.nodes}
				if m.name == "traditional" {
					cfg = Config{Runtime: RuntimeTraditional}
				}
				if name == "invindex" && (m.memo || m.nodes > 0) {
					continue // posting lists have no codec for memo entries or node frames
				}
				on, onRadix := run(t, cfg, true)
				off, offRadix := run(t, cfg, false)
				if want == "" {
					want = on
				}
				if on != want || off != want {
					t.Fatalf("%s: digests diverge from the plain radix-on run", m.name)
				}
				if name != "grep" && onRadix == 0 {
					t.Errorf("%s: radix-on run reported no radix-sorted runs", m.name)
				}
				if offRadix != 0 {
					t.Errorf("%s: radix-off run reported %d radix runs", m.name, offRadix)
				}
			}
		})
	}
}

// TestRadixAblationFaultedAndBudgeted covers the hard corners: the
// retry path re-reads chunks, and the budget path routes runs through
// the spill drain plus the streaming external merge — radix on/off
// must stay byte-identical through both.
func TestRadixAblationFaultedAndBudgeted(t *testing.T) {
	tera := teraData(8000, 9)
	retry := RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}

	run := func(radixOn bool, faulted bool, budget int64) (string, *Report[string, uint64]) {
		t.Helper()
		clk := storage.NewFakeClock()
		cfg := Config{
			Runtime: RuntimeSupMR, ChunkBytes: 64 << 10,
			Boundary: CRLFRecords, Clock: clk,
		}
		if faulted {
			cfg.Faults = NewFaultInjector(FaultPlan{Seed: 3, ReadErrEvery: 5}, clk)
			cfg.Retry = retry
		}
		if budget > 0 {
			cfg.MemoryBudget = budget
			cfg.SpillDevice = NewFastDevice(clk)
		}
		return radixRun[string, uint64](t, SortJob(),
			func() Container[string, uint64] { return SortContainer() }, tera, cfg, radixOn)
	}

	for _, c := range []struct {
		name    string
		faulted bool
		budget  int64
	}{
		{"faulted", true, 0},
		{"budgeted", false, 256 << 10},
		{"faulted-budgeted", true, 256 << 10},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			on, onRep := run(true, c.faulted, c.budget)
			off, _ := run(false, c.faulted, c.budget)
			if on != off {
				t.Fatalf("%s digests diverge", c.name)
			}
			if c.budget > 0 {
				if onRep.Stats.SpilledRuns == 0 {
					t.Fatal("budgeted run did not spill; the external-merge comparison is vacuous")
				}
				if onRep.Stats.RadixRuns == 0 {
					t.Error("budgeted radix-on run radix-sorted no spill drains")
				}
			}
		})
	}
}

// TestRadixAblationMergeAlgos pins both in-memory merge algorithms to
// the same bytes with the toggle in either position (the scatter finish
// only engages under pway; pairwise keeps the comparison merge but
// shares the radix run sort).
func TestRadixAblationMergeAlgos(t *testing.T) {
	tera := teraData(1500, 13)
	var outs []string
	for _, algo := range []MergeAlgo{MergePairwise, MergePWay} {
		for _, radixOn := range []bool{true, false} {
			m := algo
			cfg := Config{Runtime: RuntimeSupMR, ChunkBytes: 20 << 10, Boundary: CRLFRecords, Merge: &m}
			out, _ := radixRun[string, uint64](t, SortJob(),
				func() Container[string, uint64] { return SortContainer() }, tera, cfg, radixOn)
			outs = append(outs, fmt.Sprintf("%v/%v:", algo, radixOn)+out)
		}
	}
	base := outs[0][len("pairwise/true:"):]
	for _, o := range outs[1:] {
		body := o[len(o)-len(base):]
		if body != base {
			t.Fatalf("merge-algo/radix combination diverges: %s", o[:20])
		}
	}
}

// TestRadixAblationSharedPrefix: every key starts with the same two
// bytes, so the scatter's leading digit is the third and its bucket
// sorts skip the shared prefix. The resident finish and the budgeted
// residue (spilled runs plus an in-memory remainder) must match the
// -radixsort=off path byte for byte on one worker and on four.
func TestRadixAblationSharedPrefix(t *testing.T) {
	tera := teraData(8000, 17)
	for off := 0; off < len(tera); off += workload.TeraRecordSize {
		tera[off], tera[off+1] = 'Q', 'Z'
	}
	for _, budget := range []int64{0, 256 << 10} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("budget=%d/workers=%d", budget, workers), func(t *testing.T) {
				run := func(radixOn bool) (string, *Report[string, uint64]) {
					t.Helper()
					clk := storage.NewFakeClock()
					cfg := applyIngestEnv(Config{Runtime: RuntimeSupMR, ChunkBytes: 64 << 10,
						Boundary: CRLFRecords, Clock: clk, Workers: workers})
					if budget > 0 {
						cfg.MemoryBudget, cfg.SpillDevice = budget, NewFastDevice(clk)
					}
					if !radixOn {
						off := false
						cfg.RadixSort = &off
					}
					rep, err := RunBytes[string, uint64](SortJob(), tera, SortContainer(), cfg)
					if err != nil {
						t.Fatalf("radix=%v: %v", radixOn, err)
					}
					return renderPairs(rep.Pairs), rep
				}
				on, onRep := run(true)
				off, offRep := run(false)
				if on != off {
					t.Fatal("radix on and off diverge")
				}
				if s := onRep.Stats; s.RadixRuns == 0 || s.MergeRounds != 1 || s.OutputPairs != 8000 {
					t.Errorf("radix on: %d radix runs, %d merge rounds, %d pairs; want > 0, 1, 8000",
						s.RadixRuns, s.MergeRounds, s.OutputPairs)
				}
				if offRep.Stats.RadixRuns != 0 {
					t.Errorf("radix off reported %d radix runs", offRep.Stats.RadixRuns)
				}
				if s := onRep.Stats; budget > 0 && (s.SpilledRuns == 0 || s.Runs == s.SpilledRuns) {
					t.Errorf("budgeted run: %d runs, %d spilled; want spilled runs and an in-memory residue", s.Runs, s.SpilledRuns)
				}
			})
		}
	}
}

// prefixText is word-count input whose words are 9–20 bytes and share
// their first 8 with many others: each is one of stems plus a 1–12
// letter tail, so the prefix codec ties on most keys and less orders
// them.
func prefixText(stems []string, words int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b []byte
	for i := 0; i < words; i++ {
		b = append(b, stems[rng.Intn(len(stems))]...)
		for n := 1 + rng.Intn(12); n > 0; n-- {
			b = append(b, 'a'+byte(rng.Intn(4)))
		}
		sep := byte(' ')
		if i%12 == 11 {
			sep = '\n'
		}
		b = append(b, sep)
	}
	return b
}

// TestRadixAblationPrefixTies: word count over keys that share 8-byte
// prefixes matches its -radixsort=off output. With 16 stems the ties
// stay under a worker's share and the scatter finish runs (merge, then
// runsort); with one stem every key ties, the tie guard declines the
// scatter after its encode and scatter (billed to merge), and the
// comparison path finishes (runsort, then merge) — on four workers, so
// that one task never sorts them all.
func TestRadixAblationPrefixTies(t *testing.T) {
	stems := make([]string, 16)
	for i := range stems {
		stems[i] = fmt.Sprintf("prefix%02d", i)
	}
	const (
		scatterFinish  = "reduce:start reduce:end merge:start merge:end runsort:start runsort:end"
		tieGuardFinish = "reduce:start reduce:end merge:start merge:end runsort:start runsort:end merge:start merge:end"
	)
	for _, c := range []struct {
		name   string
		stems  []string
		finish string
	}{
		{"16-stems", stems, scatterFinish},
		{"one-stem", []string{"samestem"}, tieGuardFinish},
	} {
		t.Run(c.name, func(t *testing.T) {
			text := prefixText(c.stems, 40000, 7)
			cfg := Config{ChunkBytes: 64 << 10, TraceContexts: 2}
			on, onRep := radixRun[string, int64](t, WordCountJob(),
				func() Container[string, int64] { return WordCountContainer(16) }, text, cfg, true)
			off, _ := radixRun[string, int64](t, WordCountJob(),
				func() Container[string, int64] { return WordCountContainer(16) }, text, cfg, false)
			if on != off {
				t.Fatal("radix on and off diverge")
			}
			if n := onRep.Stats.OutputPairs; n < 1000 {
				t.Fatalf("%d distinct words; the ties are too few to test", n)
			}
			if got := phaseMarkerLabels(onRep.Markers); !strings.HasSuffix(got, c.finish) {
				t.Errorf("phase markers end\n got %q\nwant %q", got, c.finish)
			}
		})
	}
}

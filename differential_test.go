package supmr

// Randomized differential testing across the two runtimes: for every
// application and every compatible container, the traditional runtime
// and the SupMR pipeline must produce byte-identical output over the
// same randomly generated input. The runtimes share only the app and
// container code, so agreement here pins down the pipeline's
// correctness (chunking, persistent container, p-way merge) against
// the straightforward ingest-everything baseline.
//
// Exclusions, by construction rather than by bug:
//   - kmeans: an iterative driver over many SupMR jobs, not one job.
//   - OpenMP sort: not a kv.App; it has its own comparison tests.
//   - invindex over RunFiles: the app attributes words to chunk file
//     names, and the two runtimes chunk multi-file input differently,
//     so only the single-buffer (RunBytes) case is comparable.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supmr/internal/chunk"
	"supmr/internal/storage"
	"supmr/internal/workload"
)

// renderPairs flattens any output for byte-exact comparison.
func renderPairs[K comparable, V any](pairs []Pair[K, V]) string {
	var b strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&b, "%v=%v\n", p.Key, p.Val)
	}
	return b.String()
}

// diffRun executes the job under both runtimes over data and fails on
// any output difference. mkCont builds a fresh container per run.
func diffRun[K comparable, V any](t *testing.T, job Job[K, V], mkCont func() Container[K, V], data []byte, cfg Config) {
	t.Helper()
	cfg = applyIngestEnv(cfg)
	cfg.Workers = 4
	cfg.Runtime = RuntimeTraditional
	trad, err := RunBytes(job, data, mkCont(), cfg)
	if err != nil {
		t.Fatalf("traditional: %v", err)
	}
	cfg.Runtime = RuntimeSupMR
	sup, err := RunBytes(job, data, mkCont(), cfg)
	if err != nil {
		t.Fatalf("supmr: %v", err)
	}
	if sup.Stats.MapWaves < 2 {
		t.Fatalf("supmr ran %d map waves; the differential run must be multi-chunk", sup.Stats.MapWaves)
	}
	a, b := renderPairs(trad.Pairs), renderPairs(sup.Pairs)
	if a != b {
		t.Fatalf("outputs differ: traditional %d pairs/%d bytes, supmr %d pairs/%d bytes",
			len(trad.Pairs), len(a), len(sup.Pairs), len(b))
	}
	if len(trad.Pairs) == 0 {
		t.Fatal("no output; the comparison is vacuous")
	}
}

func TestDifferentialRuntimes(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		seed := seed
		text := genText(t, 128<<10, seed)
		cfg := Config{ChunkBytes: 16 << 10}

		t.Run(fmt.Sprintf("seed%d/wordcount-flat", seed), func(t *testing.T) {
			diffRun[string, int64](t, WordCountJob(),
				func() Container[string, int64] { return WordCountContainer(16) }, text, cfg)
		})
		t.Run(fmt.Sprintf("seed%d/wordcount-map", seed), func(t *testing.T) {
			diffRun[string, int64](t, WordCountJob(),
				func() Container[string, int64] { return WordCountMapContainer(16) }, text, cfg)
		})
		t.Run(fmt.Sprintf("seed%d/grep-flat", seed), func(t *testing.T) {
			job := GrepJob("ba", "zo", "nowhere-to-be-found")
			diffRun[string, int64](t, job,
				func() Container[string, int64] { return job.NewContainer() }, text, cfg)
		})
		t.Run(fmt.Sprintf("seed%d/grep-map", seed), func(t *testing.T) {
			job := GrepJob("ba", "zo")
			diffRun[string, int64](t, job,
				func() Container[string, int64] { return job.NewMapContainer() }, text, cfg)
		})
		t.Run(fmt.Sprintf("seed%d/histogram", seed), func(t *testing.T) {
			job := HistogramJob()
			diffRun[int, int64](t, job,
				func() Container[int, int64] { return job.NewContainer(8) }, text, cfg)
		})
		t.Run(fmt.Sprintf("seed%d/linreg", seed), func(t *testing.T) {
			job := LinearRegressionJob()
			lrCfg := cfg
			lrCfg.Boundary = FixedRecords(2)
			diffRun[int, float64](t, job,
				func() Container[int, float64] { return job.NewContainer() }, text, lrCfg)
		})
		t.Run(fmt.Sprintf("seed%d/invindex", seed), func(t *testing.T) {
			mk := func() Container[string, []string] { return InvertedIndexJob().NewContainer(16) }
			// Fresh job per run: the app carries per-run chunk attribution
			// state (set_data), so sharing one instance would leak file
			// names across runs.
			diffCfg := applyIngestEnv(cfg)
			diffCfg.Workers = 4
			diffCfg.Runtime = RuntimeTraditional
			trad, err := RunBytes[string, []string](InvertedIndexJob(), text, mk(), diffCfg)
			if err != nil {
				t.Fatalf("traditional: %v", err)
			}
			diffCfg.Runtime = RuntimeSupMR
			sup, err := RunBytes[string, []string](InvertedIndexJob(), text, mk(), diffCfg)
			if err != nil {
				t.Fatalf("supmr: %v", err)
			}
			if a, b := renderPairs(trad.Pairs), renderPairs(sup.Pairs); a != b {
				t.Fatalf("outputs differ: traditional %d pairs, supmr %d pairs", len(trad.Pairs), len(sup.Pairs))
			}
		})
		t.Run(fmt.Sprintf("seed%d/sort", seed), func(t *testing.T) {
			const records = 1200
			tera := make([]byte, records*100)
			workload.TeraGen{Seed: uint64(seed)}.Fill()(0, tera)
			job := SortJob()
			sortCfg := cfg
			sortCfg.Boundary = CRLFRecords
			sortCfg.ChunkBytes = 20 << 10
			diffRun[string, uint64](t, job,
				func() Container[string, uint64] { return SortContainer() }, tera, sortCfg)
		})
	}
}

// diffMultiNode runs the job single-node under the SupMR runtime, then
// across the full multi-node matrix — cluster size × in-node combiner ×
// radix ablation — and fails unless every cell's output is
// byte-identical to the single-node run. wantShuffle additionally
// demands that multi-node cells moved frames over the wire, so the
// matrix can't pass vacuously by never exercising the exchange.
func diffMultiNode[K comparable, V any](t *testing.T, job Job[K, V], mkCont func() Container[K, V], data []byte, cfg Config, wantShuffle bool) {
	t.Helper()
	cfg = applyIngestEnv(cfg)
	cfg.Workers = 4
	cfg.Runtime = RuntimeSupMR
	base, err := RunBytes(job, data, mkCont(), cfg)
	if err != nil {
		t.Fatalf("single-node baseline: %v", err)
	}
	if len(base.Pairs) == 0 {
		t.Fatal("no output; the comparison is vacuous")
	}
	want := renderPairs(base.Pairs)
	off := false
	for _, nodes := range []int{1, 2, 4} {
		for _, comb := range []bool{true, false} {
			for _, radix := range []bool{true, false} {
				label := fmt.Sprintf("nodes=%d combiner=%v radix=%v", nodes, comb, radix)
				c := cfg
				c.Nodes = nodes
				if !comb {
					c.InNodeCombiner = &off
				}
				if !radix {
					c.RadixSort = &off
				}
				rep, err := RunBytes(job, data, mkCont(), c)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := renderPairs(rep.Pairs); got != want {
					t.Fatalf("%s: output differs from single-node: %d pairs vs %d", label, len(rep.Pairs), len(base.Pairs))
				}
				if wantShuffle && nodes > 1 && rep.Stats.ShuffleFrames == 0 {
					t.Fatalf("%s: no frames crossed the wire; the multi-node run degenerated", label)
				}
				if nodes == 1 && rep.Stats.ShuffleBytes != 0 {
					t.Fatalf("%s: a one-node cluster moved %d wire bytes", label, rep.Stats.ShuffleBytes)
				}
			}
		}
	}
}

// TestDifferentialMultiNode is the scale-out differential suite: every
// codec-compatible application must produce byte-identical output on
// simulated clusters of 1, 2 and 4 nodes, with the in-node combiner on
// and off and the radix sort path on and off, compared against the
// standing single-node pipeline. Exclusions by construction: kmeans
// (iterative driver) and invindex ([]string values have no wire codec)
// — both are rejected, which TestMultiNodeRejections pins down.
func TestDifferentialMultiNode(t *testing.T) {
	text := genText(t, 128<<10, 29)
	cfg := Config{ChunkBytes: 16 << 10}

	t.Run("wordcount-flat", func(t *testing.T) {
		diffMultiNode[string, int64](t, WordCountJob(),
			func() Container[string, int64] { return WordCountContainer(16) }, text, cfg, true)
	})
	t.Run("wordcount-map", func(t *testing.T) {
		diffMultiNode[string, int64](t, WordCountJob(),
			func() Container[string, int64] { return WordCountMapContainer(16) }, text, cfg, true)
	})
	t.Run("grep", func(t *testing.T) {
		job := GrepJob("ba", "zo", "nowhere-to-be-found")
		// Only a couple of live keys, so whether any lands remote is up
		// to the hash — identity is the claim here, not wire traffic.
		diffMultiNode[string, int64](t, job,
			func() Container[string, int64] { return job.NewContainer() }, text, cfg, false)
	})
	t.Run("histogram", func(t *testing.T) {
		job := HistogramJob()
		diffMultiNode[int, int64](t, job,
			func() Container[int, int64] { return job.NewContainer(8) }, text, cfg, true)
	})
	t.Run("linreg", func(t *testing.T) {
		job := LinearRegressionJob()
		lrCfg := cfg
		lrCfg.Boundary = FixedRecords(2)
		diffMultiNode[int, float64](t, job,
			func() Container[int, float64] { return job.NewContainer() }, text, lrCfg, false)
	})
	t.Run("sort", func(t *testing.T) {
		const records = 1200
		tera := make([]byte, records*100)
		workload.TeraGen{Seed: 31}.Fill()(0, tera)
		job := SortJob()
		sortCfg := cfg
		sortCfg.Boundary = CRLFRecords
		sortCfg.ChunkBytes = 20 << 10
		diffMultiNode[string, uint64](t, job,
			func() Container[string, uint64] { return SortContainer() }, tera, sortCfg, true)
	})
}

// TestInNodeCombinerHalvesWireBytes gates the in-node combiner's claim
// (Lee, Jun, Kim): word count over 4 nodes frames >= 2x fewer wire bytes
// than its -innode-combiner=off ablation (2.17x; a byte count, so exact).
func TestInNodeCombinerHalvesWireBytes(t *testing.T) {
	text := genText(t, 8<<20, 11)
	wire := func(combiner bool) int64 {
		cfg := Config{Runtime: RuntimeSupMR, ChunkBytes: 256 << 10, Nodes: 4, InNodeCombiner: &combiner}
		rep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(64), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats.ShuffleBytes
	}
	on, off := wire(true), wire(false)
	if on <= 0 || float64(off)/float64(on) < 2 {
		t.Fatalf("combiner on %d B vs off %d B on the wire: want a >= 2x cut", on, off)
	}
}

// TestMultiNodeSkewedPartition: the exchange cuts every run at the same
// splitters, so every occurrence of a key lands on one node, and a
// pathologically skewed key distribution — here >90% of all tokens are
// one word — lands that word's whole count on a single node. The
// cluster must still produce byte-identical output, with the hot key
// counted once and the wire genuinely exercised.
func TestMultiNodeSkewedPartition(t *testing.T) {
	// ~95% "zzzhotkey" tokens, 5% unique cold keys.
	var b strings.Builder
	for i := 0; i < 20000; i++ {
		if i%20 == 0 {
			fmt.Fprintf(&b, "cold%05d ", i)
		} else {
			b.WriteString("zzzhotkey ")
		}
		if i%12 == 11 {
			b.WriteByte('\n')
		}
	}
	text := []byte(b.String())

	cfg := applyIngestEnv(Config{Runtime: RuntimeSupMR, Workers: 4, ChunkBytes: 16 << 10})
	base, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := renderPairs(base.Pairs)

	off := false
	for _, comb := range []bool{true, false} {
		c := cfg
		c.Nodes = 4
		if !comb {
			c.InNodeCombiner = &off
		}
		rep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), c)
		if err != nil {
			t.Fatalf("combiner=%v: %v", comb, err)
		}
		if got := renderPairs(rep.Pairs); got != want {
			t.Fatalf("combiner=%v: skewed multi-node output differs from single-node", comb)
		}
		if rep.Stats.ShuffleBytes == 0 || rep.Stats.ShuffleFrames == 0 {
			t.Fatalf("combiner=%v: nothing crossed the wire (%d bytes, %d frames); the skew test is vacuous",
				comb, rep.Stats.ShuffleBytes, rep.Stats.ShuffleFrames)
		}
		var hot int64
		for _, p := range rep.Pairs {
			if p.Key == "zzzhotkey" {
				hot = p.Val
			}
		}
		if hot != 19000 {
			t.Fatalf("combiner=%v: hot key counted %d times, want 19000", comb, hot)
		}
	}
}

// TestMultiNodeRejections pins what multi-node mode refuses by value
// type; the Config combinations it refuses are cells of
// TestConfigKnobTable.
func TestMultiNodeRejections(t *testing.T) {
	text := genText(t, 16<<10, 43)
	base := Config{Workers: 2, ChunkBytes: 4 << 10, Nodes: 2}
	if _, err := RunBytes[string, []string](InvertedIndexJob(), text, InvertedIndexJob().NewContainer(8), base); err == nil {
		t.Fatal("invindex ([]string values, no wire codec) accepted on a cluster")
	}
}

// multiNodeCompositions runs job on clusters of 1 and 3 nodes composed
// with every other mode of the one pipeline — a memo store cold then
// warm, two concurrent submissions to a shared engine, the striped
// ingest ring, and injected faults with retries — and fails unless every
// run is byte-identical to the plain single-node solo run, with frames
// on the wire whenever there is more than one node.
func multiNodeCompositions[K comparable, V any](t *testing.T, job Job[K, V], mkCont func() Container[K, V], data []byte, cfg Config) {
	cfg.Runtime = RuntimeSupMR
	cfg.Workers = 4
	base, err := RunBytes(job, data, mkCont(), cfg)
	if err != nil {
		t.Fatalf("single-node baseline: %v", err)
	}
	want := renderPairs(base.Pairs)
	if want == "" {
		t.Fatal("no output; the comparison is vacuous")
	}

	// Each variant returns the reports of the runs it made; the last one
	// is the run the variant's own assertion (if any) applies to.
	variants := []struct {
		name  string
		runs  func(c Config) ([]*Report[K, V], error)
		check func(t *testing.T, last *Report[K, V])
	}{
		{name: "plain", runs: func(c Config) ([]*Report[K, V], error) {
			rep, err := RunBytes(job, data, mkCont(), c)
			return []*Report[K, V]{rep}, err
		}},
		{name: "memo-cold-warm", runs: func(c Config) ([]*Report[K, V], error) {
			store, err := NewMemoStore(MemoConfig{})
			if err != nil {
				return nil, err
			}
			defer store.Close()
			c.Memo, c.MemoStore = true, store
			cold, err := RunBytes(job, data, mkCont(), c)
			if err != nil {
				return nil, err
			}
			warm, err := RunBytes(job, data, mkCont(), c)
			return []*Report[K, V]{cold, warm}, err
		}, check: func(t *testing.T, warm *Report[K, V]) {
			if warm.Stats.MemoHits == 0 || warm.Stats.MapWaves != 0 {
				t.Errorf("warm run: %d memo hits, %d map waves; want every chunk replayed",
					warm.Stats.MemoHits, warm.Stats.MapWaves)
			}
		}},
		{name: "engine-concurrent", runs: func(c Config) ([]*Report[K, V], error) {
			eng := NewEngine(EngineConfig{Workers: 4, IOLanes: 2})
			defer eng.Close()
			c.Engine = eng
			reps := make([]*Report[K, V], 2)
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for i := range reps {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					reps[i], errs[i] = RunBytes(job, data, mkCont(), c)
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
			return reps, nil
		}},
		{name: "lanes4-depth3", runs: func(c Config) ([]*Report[K, V], error) {
			c.IOLanes, c.PrefetchDepth = 4, 3
			rep, err := RunBytes(job, data, mkCont(), c)
			return []*Report[K, V]{rep}, err
		}},
		{name: "faulted-retry", runs: func(c Config) ([]*Report[K, V], error) {
			clk := storage.NewFakeClock()
			c.Clock = clk
			c.Faults = NewFaultInjector(FaultPlan{Seed: 3, ReadErrEvery: 5, WriteErrEvery: 3}, clk)
			c.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}
			rep, err := RunBytes(job, data, mkCont(), c)
			return []*Report[K, V]{rep}, err
		}, check: func(t *testing.T, rep *Report[K, V]) {
			if f := rep.Stats.Faults; f.Injected == 0 || f.Retried == 0 {
				t.Errorf("fault plan never fired or was never retried: %s", f.String())
			}
		}},
	}
	for _, nodes := range []int{1, 3} {
		for _, v := range variants {
			t.Run(fmt.Sprintf("nodes%d/%s", nodes, v.name), func(t *testing.T) {
				c := cfg
				c.Nodes = nodes
				reps, err := v.runs(c)
				if err != nil {
					t.Fatal(err)
				}
				for i, rep := range reps {
					if got := renderPairs(rep.Pairs); got != want {
						t.Fatalf("run %d: output differs from the single-node solo run: %d pairs vs %d", i, len(rep.Pairs), len(base.Pairs))
					}
					if nodes > 1 && rep.Stats.ShuffleFrames == 0 {
						t.Fatalf("run %d: no frames crossed the wire; the multi-node run degenerated", i)
					}
				}
				if v.check != nil {
					v.check(t, reps[len(reps)-1])
				}
			})
		}
	}
}

// TestMultiNodeCompositions: Nodes is the one pipeline over one
// container per node, so it composes with Memo, Engine, the prefetch
// ring and the fault seams instead of excluding them.
func TestMultiNodeCompositions(t *testing.T) {
	t.Run("wordcount", func(t *testing.T) {
		multiNodeCompositions[string, int64](t, WordCountJob(),
			func() Container[string, int64] { return WordCountContainer(16) },
			genText(t, 96<<10, 47), Config{ChunkBytes: 16 << 10})
	})
	t.Run("sort", func(t *testing.T) {
		multiNodeCompositions[string, uint64](t, SortJob(),
			func() Container[string, uint64] { return SortContainer() },
			teraData(1200, 53), Config{ChunkBytes: 20 << 10, Boundary: CRLFRecords})
	})
}

// trackedStream counts Next calls and records every chunk the
// pipeline's pump pulled. It is no chunk.InterFile, so the pipeline
// reads it one chunk ahead on an IO lane; its inner stream reads through
// a pooled fetcher of its own, so a released chunk has no Data.
type trackedStream struct {
	Stream
	nexts int
	seen  []*Chunk
}

func track(inner Stream) *trackedStream {
	inner.(chunk.FetcherAware).SetFetcher(chunk.NewFetcher(1, nil))
	return &trackedStream{Stream: inner}
}

func (s *trackedStream) Next() (*Chunk, error) {
	s.nexts++
	c, err := s.Stream.Next()
	if c != nil {
		s.seen = append(s.seen, c)
	}
	return c, err
}

// panicAfter is a word count whose map callback panics once it has been
// called more than limit times — mid-stream, with chunk reads still in
// flight.
type panicAfter struct {
	Job[string, int64]
	calls *atomic.Int64
	limit int64
}

func (p panicAfter) Map(split []byte, emit Emitter[string, int64]) {
	if p.calls.Add(1) > p.limit {
		panic("mapper exploded mid-stream")
	}
	p.Job.Map(split, emit)
}

// TestMultiNodeMapPanicReleasesChunks: a map panic mid-stream on a
// multi-node run fails the job with every chunk buffer the stream took
// — mapped, handed over, or under a read still in flight — released
// back to the freelist, and no goroutine left behind. The job is an
// engine submission, whose freelist the test can see.
func TestMultiNodeMapPanicReleasesChunks(t *testing.T) {
	text := genText(t, 256<<10, 59)
	baseGoroutines := runtime.NumGoroutine()
	eng := NewEngine(EngineConfig{Workers: 2})
	cfg := Config{Runtime: RuntimeSupMR, Workers: 2, Splits: 4, ChunkBytes: 8 << 10, Nodes: 3, PrefetchDepth: 4, Engine: eng}
	job := panicAfter{Job: WordCountJob(), calls: new(atomic.Int64), limit: 3 * 4} // three waves succeed
	_, err := RunFile[string, int64](job, MemoryFile("in", text, cfg.clock()), WordCountContainer(8), cfg)
	if err == nil || !strings.Contains(err.Error(), "mapper exploded mid-stream") {
		t.Fatalf("err = %v, want the map panic", err)
	}
	// Four chunks mapped, and at depth 4 the reads run past them.
	gets, reuses := eng.frees.Stats()
	if gets < 5 {
		t.Fatalf("only %d chunk buffers were taken before the panic; the reads were not ahead of the mappers", gets)
	}
	if parked := eng.frees.Parked(); int64(parked) != gets-reuses {
		t.Errorf("%d chunk buffers parked, %d allocated: a buffer was never released", parked, gets-reuses)
	}
	eng.Close()
	checkNoGoroutineLeak(t, baseGoroutines)
}

// TestDifferentialSortHashContainer covers sort's second compatible
// container (hash-partitioned) against the key-range default under the
// SupMR runtime: the container choice must not change the output.
func TestDifferentialSortHashContainer(t *testing.T) {
	const records = 800
	tera := make([]byte, records*100)
	workload.TeraGen{Seed: 23}.Fill()(0, tera)
	job := SortJob()
	cfg := applyIngestEnv(Config{Runtime: RuntimeSupMR, Workers: 4, ChunkBytes: 20 << 10, Boundary: CRLFRecords})
	keyrange, err := RunBytes[string, uint64](job, tera, SortContainer(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := RunBytes[string, uint64](job, tera, job.NewHashContainer(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderPairs(keyrange.Pairs), renderPairs(hashed.Pairs); a != b {
		t.Fatalf("containers disagree: keyrange %d pairs, hash %d pairs", len(keyrange.Pairs), len(hashed.Pairs))
	}
}

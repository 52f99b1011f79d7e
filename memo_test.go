package supmr

// Memo-path integration tests: content-addressed incremental recompute
// must be invisible in the output. Every memoized run — cold, warm,
// incremental after an append, under injected cache faults, solo or
// multiplexed on an engine — produces byte-identical output to a plain
// run of the same configuration; only the hit/miss counters and the
// time spent differ.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"supmr/internal/storage"
)

// memoCfg is the standard memoized word-count configuration over an
// in-memory file on clk.
func memoCfg(clk Clock) Config {
	return Config{
		Runtime:    RuntimeSupMR,
		Workers:    4,
		ChunkBytes: 16 << 10,
		Clock:      clk,
		Memo:       true,
	}
}

// runMemoWC runs a word count over text with cfg, returning the
// rendered output for byte-exact comparison.
func runMemoWC(t *testing.T, text []byte, cfg Config) (*Report[string, int64], string) {
	t.Helper()
	f := storage.BytesFile("in", text, storage.NewNullDevice(cfg.Clock))
	rep, err := RunFile[string, int64](WordCountJob(), f, WordCountContainer(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep, renderWC(rep.Pairs)
}

func TestMemoColdRunMatchesPlainRun(t *testing.T) {
	text := genText(t, 128<<10, 21)
	want := refWordCount(text)

	clk := storage.NewFakeClock()
	rep, _ := runMemoWC(t, text, memoCfg(clk))
	checkWordCounts(t, rep.Pairs, want)
	if rep.Stats.MemoHits != 0 {
		t.Errorf("cold run hit the cache %d times", rep.Stats.MemoHits)
	}
	if rep.Stats.MemoMisses == 0 {
		t.Error("cold run published nothing")
	}
	if rep.Stats.MemoMisses != rep.Stats.MapWaves {
		t.Errorf("misses %d != map waves %d: every missed chunk should be mapped",
			rep.Stats.MemoMisses, rep.Stats.MapWaves)
	}
}

// TestMemoWarmRunReplaysEverything pins the pure re-run: identical
// content against a shared store maps nothing and replays everything.
func TestMemoWarmRunReplaysEverything(t *testing.T) {
	text := genText(t, 128<<10, 22)
	clk := storage.NewFakeClock()
	store, err := NewMemoStore(MemoConfig{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := memoCfg(clk)
	cfg.MemoStore = store

	cold, coldOut := runMemoWC(t, text, cfg)
	warm, warmOut := runMemoWC(t, text, cfg)
	if warmOut != coldOut {
		t.Fatal("warm run output differs from cold run")
	}
	if warm.Stats.MemoMisses != 0 {
		t.Errorf("warm run missed %d chunks over identical content", warm.Stats.MemoMisses)
	}
	if warm.Stats.MemoHits != cold.Stats.MemoMisses {
		t.Errorf("warm hits %d != cold misses %d", warm.Stats.MemoHits, cold.Stats.MemoMisses)
	}
	if warm.Stats.MapWaves != 0 {
		t.Errorf("warm run still ran %d map waves", warm.Stats.MapWaves)
	}
	if warm.Stats.MemoBytesSaved != int64(len(text)) {
		t.Errorf("bytes saved %d, want the whole input %d", warm.Stats.MemoBytesSaved, len(text))
	}
	if st := store.Stats(); st.Hits != int64(warm.Stats.MemoHits) {
		t.Errorf("store counted %d hits, run counted %d", st.Hits, warm.Stats.MemoHits)
	}
}

// TestMemoIncrementalAppend is the headline property: append ~2% to the
// input and the re-run replays almost every chunk from the cache while
// staying byte-identical to a from-scratch run over the grown input.
func TestMemoIncrementalAppend(t *testing.T) {
	base := genText(t, 256<<10, 23)
	grown := append(append([]byte{}, base...), genText(t, 5<<10, 24)...)

	clk := storage.NewFakeClock()
	store, err := NewMemoStore(MemoConfig{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := memoCfg(clk)
	cfg.MemoStore = store

	cold, _ := runMemoWC(t, base, cfg)
	incr, incrOut := runMemoWC(t, grown, cfg)

	// Reference: plain (memo-off) run over the grown input.
	plainCfg := memoCfg(storage.NewFakeClock())
	plainCfg.Memo = false
	_, wantOut := runMemoWC(t, grown, plainCfg)
	if incrOut != wantOut {
		t.Fatal("incremental run output differs from a from-scratch run over the grown input")
	}
	if incr.Stats.MemoHits < cold.Stats.MemoMisses-1 {
		t.Errorf("append shifted chunk boundaries: only %d of %d cached chunks replayed",
			incr.Stats.MemoHits, cold.Stats.MemoMisses)
	}
	if incr.Stats.MemoMisses == 0 {
		t.Error("the appended tail should miss")
	}
	if incr.Stats.MemoMisses > 3 {
		t.Errorf("append of one tail chunk caused %d misses", incr.Stats.MemoMisses)
	}
}

// TestMemoOffOnDigestsAgreeAcrossApps diffs memo-on against memo-off
// for a second app shape (unique-key sort over CRLF records) to pin
// that the per-chunk drain plus chunk-order merge reassembles exactly
// what the plain pipeline produces.
func TestMemoOffOnDigestsAgreeAcrossApps(t *testing.T) {
	run := func(memo bool) []Pair[string, uint64] {
		clk := storage.NewFakeClock()
		f, err := TeraFile("sortin", 3000, 5, NewFastDevice(clk))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Runtime:    RuntimeSupMR,
			Workers:    4,
			ChunkBytes: 16 << 10,
			Boundary:   CRLFRecords,
			Clock:      clk,
			Memo:       memo,
		}
		rep, err := RunFile[string, uint64](SortJob(), f, SortContainer(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Pairs
	}
	on, off := run(true), run(false)
	if len(on) != len(off) {
		t.Fatalf("pair counts differ: memo-on %d, memo-off %d", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("pair %d differs: memo-on %v, memo-off %v", i, on[i], off[i])
		}
	}
}

// TestMemoChaosFaultsNeverCorruptOutput injects faults into the memo
// store itself — torn entry writes, failed reads — across several seeds
// and plans. Cache faults must degrade to misses: every run's output
// stays byte-identical to the clean run, with the store's error
// counters (not the job) absorbing the damage.
func TestMemoChaosFaultsNeverCorruptOutput(t *testing.T) {
	text := genText(t, 128<<10, 25)
	clean := refWordCount(text)

	for _, seed := range []int64{1, 7, 42} {
		for planName, plan := range chaosPlans(seed) {
			if plan.Permanent {
				// Permanent only promotes injected errors to non-retryable;
				// memo faults are swallowed as misses either way, so the
				// distinction is covered by the transient plans.
				plan.Permanent = false
			}
			t.Run(planName, func(t *testing.T) {
				clk := storage.NewFakeClock()
				inj := NewFaultInjector(plan, clk)
				store, err := NewMemoStore(MemoConfig{Clock: clk, Faults: inj})
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				cfg := memoCfg(clk)
				cfg.MemoStore = store

				// Cold publish (writes may tear), then two re-runs (reads may
				// fail, torn entries detected and dropped): all must match.
				for pass := 0; pass < 3; pass++ {
					rep, _ := runMemoWC(t, text, cfg)
					checkWordCounts(t, rep.Pairs, clean)
					if pass > 0 && rep.Stats.MemoHits == 0 && store.Stats().Stored == 0 {
						// Every publish failed under this plan — legal, but then
						// every chunk must have been mapped.
						if rep.Stats.MemoMisses != rep.Stats.MapWaves {
							t.Fatalf("pass %d: misses %d != waves %d with an empty store",
								pass, rep.Stats.MemoMisses, rep.Stats.MapWaves)
						}
					}
				}
				st := store.Stats()
				if st.Torn > 0 || st.ReadErrors > 0 || st.WriteErrors > 0 {
					t.Logf("seed %d %s: absorbed torn=%d readErrs=%d writeErrs=%d",
						seed, planName, st.Torn, st.ReadErrors, st.WriteErrors)
				}
			})
		}
	}
}

// TestMemoEngineSharedAcrossSubmissions pins the daemon use case: one
// tenant's cold submission warms the store for the next tenant's
// identical submission on the same engine.
func TestMemoEngineSharedAcrossSubmissions(t *testing.T) {
	text := genText(t, 128<<10, 26)
	clk := storage.NewFakeClock()
	store, err := NewMemoStore(MemoConfig{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineConfig{Workers: 4, Clock: clk, Memo: store})
	defer store.Close()
	defer eng.Close()

	cfg := memoCfg(clk)
	cfg.Engine = eng
	cfg.Tenant = "alice"
	cold, coldOut := runMemoWC(t, text, cfg)
	cfg.Tenant = "bob"
	warm, warmOut := runMemoWC(t, text, cfg)

	if warmOut != coldOut {
		t.Fatal("engine-shared memo changed the output across submissions")
	}
	if warm.Stats.MemoHits != cold.Stats.MemoMisses {
		t.Errorf("second submission hit %d of %d published chunks",
			warm.Stats.MemoHits, cold.Stats.MemoMisses)
	}
	es := eng.Stats()
	if es.Memo == nil {
		t.Fatal("engine stats lack the memo snapshot")
	}
	if es.Memo.Hits == 0 {
		t.Error("engine memo snapshot shows no hits")
	}
}

// TestMemoKeySpacesIsolateApps pins that two jobs with different key
// spaces sharing one store never replay each other's entries even over
// identical content.
func TestMemoKeySpacesIsolateApps(t *testing.T) {
	text := genText(t, 64<<10, 27)
	clk := storage.NewFakeClock()
	store, err := NewMemoStore(MemoConfig{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	cfg := memoCfg(clk)
	cfg.MemoStore = store
	cfg.MemoKeySpace = "wc-a"
	runMemoWC(t, text, cfg)

	cfg.MemoKeySpace = "wc-b"
	rep, _ := runMemoWC(t, text, cfg)
	if rep.Stats.MemoHits != 0 {
		t.Errorf("key space b replayed %d entries published under key space a", rep.Stats.MemoHits)
	}
}

// TestMemoConfigValidation: what memo alone refuses. Its refusals in
// combination with other knobs are cells of TestConfigKnobTable.
func TestMemoConfigValidation(t *testing.T) {
	text := genText(t, 8<<10, 28)
	cases := []struct {
		name string
		mod  func(*Config)
		want string
	}{
		{"no-chunk-bytes", func(c *Config) { c.ChunkBytes = 0 }, "ChunkBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := memoCfg(storage.NewFakeClock())
			tc.mod(&cfg)
			f := storage.BytesFile("in", text, storage.NewNullDevice(cfg.Clock))
			_, err := RunFile[string, int64](WordCountJob(), f, WordCountContainer(8), cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}

	t.Run("multi-file", func(t *testing.T) {
		cfg := memoCfg(storage.NewFakeClock())
		files, err := TextFiles("mf", 3, 8<<10, 1, NewFastDevice(cfg.Clock))
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunFiles[string, int64](WordCountJob(), files, WordCountContainer(8), cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Knob != "Memo" || ce.With != "a multi-file input" {
			t.Fatalf("want Memo refused with a multi-file input, got %v", err)
		}
	})
}

// TestEngineRejectsNegativeWeight pins the library half of the weight
// validation: a negative fair-share weight is a caller error on the
// submission path, not something to silently clamp.
func TestEngineRejectsNegativeWeight(t *testing.T) {
	clk := storage.NewFakeClock()
	eng := NewEngine(EngineConfig{Workers: 2, Clock: clk})
	defer eng.Close()
	cfg := Config{Runtime: RuntimeSupMR, ChunkBytes: 8 << 10, Clock: clk, Engine: eng, Weight: -2}
	_, err := RunBytes[string, int64](WordCountJob(), genText(t, 8<<10, 29), WordCountContainer(8), cfg)
	if err == nil || !strings.Contains(err.Error(), "Weight") {
		t.Fatalf("want a weight validation error, got %v", err)
	}
	if es := eng.Stats(); es.Failed != 0 {
		t.Errorf("rejected weight counted as a failed submission: %+v", es)
	}
}

// TestMemoDeviceChargesTime pins that memo IO is charged on the job
// clock: a store on a slow device makes warm lookups cost simulated
// time (replay still beats re-mapping only because map work dominates
// real runs; here we just assert the charge exists).
func TestMemoDeviceChargesTime(t *testing.T) {
	text := genText(t, 64<<10, 31)
	clk := storage.NewFakeClock()
	slow, err := NewDisk("memodev", 1<<20, 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewMemoStore(MemoConfig{Device: slow})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := memoCfg(clk)
	cfg.MemoStore = store

	runMemoWC(t, text, cfg) // cold: publishes charge writes
	before := clk.Now()
	rep, _ := runMemoWC(t, text, cfg) // warm: lookups charge reads
	if rep.Stats.MemoHits == 0 {
		t.Fatal("warm run did not hit")
	}
	if charged := clk.Now() - before; charged < 10*time.Millisecond {
		t.Errorf("warm run over a 1MB/s memo device charged only %v of simulated time", charged)
	}
}

package supmr

// The memoized pipeline — fold each chunk's output (cache hits still
// encoded) into its node's container behind the next lookup, finish
// resident — must be invisible: every app and every cache state
// produces the memo-off output, with the hit/miss counters the cache
// state implies.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"supmr/internal/container"
	"supmr/internal/memo"
	"supmr/internal/spill"
	"supmr/internal/storage"
)

// memoFoldMatrix runs job over data memo-off (the reference), then
// against one shared store: cold (all miss), warm (all hit), warm over
// edit(data) — same length, a few bytes changed mid-input, so the
// content-defined chunks around the edit miss between runs of hits —
// and warm again on 1- and 3-node clusters. Single-node runs also
// report the memo-off Stats.IntermediateN.
func memoFoldMatrix[K comparable, V any](t *testing.T, job Job[K, V], mkCont func() Container[K, V],
	data []byte, edit func([]byte), cfg Config) {
	t.Helper()
	cfg.Runtime, cfg.Workers = RuntimeSupMR, 4
	run := func(c Config, in []byte) *Report[K, V] {
		t.Helper()
		rep, err := RunBytes(job, in, mkCont(), c)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	edited := append([]byte(nil), data...)
	edit(edited)
	off, offEdited := run(cfg, data), run(cfg, edited)
	want, wantEdited := renderPairs(off.Pairs), renderPairs(offEdited.Pairs)
	if len(off.Pairs) == 0 || want == wantEdited {
		t.Fatalf("vacuous matrix: %d output pairs, edit changed the output: %v", len(off.Pairs), want != wantEdited)
	}

	clk := storage.NewFakeClock()
	store, err := NewMemoStore(MemoConfig{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	mcfg := cfg
	mcfg.Clock, mcfg.Memo, mcfg.MemoStore, mcfg.MemoKeySpace = clk, true, store, "fold-matrix"

	// wantN < 0 skips the IntermediateN comparison.
	check := func(name string, rep *Report[K, V], want string, wantN, hits, misses int) {
		t.Helper()
		if got := renderPairs(rep.Pairs); got != want {
			t.Fatalf("%s: output differs from the memo-off run (%d pairs vs %d bytes wanted)", name, len(rep.Pairs), len(want))
		}
		s := rep.Stats
		if s.MemoHits != hits || s.MemoMisses != misses || s.MapWaves != misses {
			t.Errorf("%s: hits=%d misses=%d waves=%d, want hits=%d misses=waves=%d", name, s.MemoHits, s.MemoMisses, s.MapWaves, hits, misses)
		}
		if wantN >= 0 && s.IntermediateN != wantN {
			t.Errorf("%s: IntermediateN = %d, memo-off reports %d", name, s.IntermediateN, wantN)
		}
	}

	cold := run(mcfg, data)
	chunks := cold.Stats.MemoMisses
	if chunks < 5 {
		t.Fatalf("only %d chunks; the matrix needs a middle to edit", chunks)
	}
	check("cold", cold, want, off.Stats.IntermediateN, 0, chunks)
	check("warm", run(mcfg, data), want, off.Stats.IntermediateN, chunks, 0)

	mixed := run(mcfg, edited)
	hits, misses := mixed.Stats.MemoHits, mixed.Stats.MemoMisses
	if misses < 1 || misses > 3 || hits < chunks-3 {
		t.Fatalf("mid-input edit: %d hits, %d misses over %d cached chunks; want 1-3 misses between runs of hits", hits, misses, chunks)
	}
	check("edited", mixed, wantEdited, offEdited.Stats.IntermediateN, hits, misses)

	// A cluster counts the exchanged runs, not container entries.
	for _, nodes := range []int{1, 3} {
		ncfg := mcfg
		ncfg.Nodes = nodes
		check(fmt.Sprintf("warm/nodes%d", nodes), run(ncfg, data), want, -1, chunks, 0)
	}

	// The edit on a 3-node cluster over a store of its own that has seen
	// only data: the edited chunks miss and map while the folds of their
	// neighbours' hits are in flight into other nodes' containers.
	store3, err := NewMemoStore(MemoConfig{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	ncfg := mcfg
	ncfg.Nodes, ncfg.MemoStore = 3, store3
	check("cold/nodes3", run(ncfg, data), want, -1, 0, chunks)
	check("edited/nodes3", run(ncfg, edited), wantEdited, -1, hits, misses)
}

func TestMemoFoldMatrix(t *testing.T) {
	text := genText(t, 192<<10, 61)
	// Overwrite a few words mid-input with lines no generator emits.
	editText := func(b []byte) { copy(b[len(b)/2:], "\nzzfoldzz bazooka\nbazooka\nbazooka\n") }
	cfg := Config{ChunkBytes: 12 << 10}

	t.Run("wordcount", func(t *testing.T) {
		memoFoldMatrix[string, int64](t, WordCountJob(),
			func() Container[string, int64] { return WordCountContainer(16) }, text, editText, cfg)
	})
	t.Run("wordcount-map", func(t *testing.T) {
		memoFoldMatrix[string, int64](t, WordCountJob(),
			func() Container[string, int64] { return WordCountMapContainer(16) }, text, editText, cfg)
	})
	t.Run("grep", func(t *testing.T) {
		job := GrepJob("ba", "zo")
		memoFoldMatrix[string, int64](t, job,
			func() Container[string, int64] { return job.NewContainer() }, text, editText, cfg)
	})
	t.Run("histogram", func(t *testing.T) {
		job := HistogramJob()
		memoFoldMatrix[int, int64](t, job,
			func() Container[int, int64] { return job.NewContainer(8) }, text, editText, cfg)
	})
	t.Run("sort", func(t *testing.T) {
		// Rewrite one record's key in place: still unique, still a record.
		editTera := func(b []byte) { copy(b[(len(b)/200)*100:], "~~folded~~") }
		scfg := Config{ChunkBytes: 12 << 10, Boundary: CRLFRecords}
		memoFoldMatrix[string, uint64](t, SortJob(),
			func() Container[string, uint64] { return SortContainer() }, teraData(2000, 67), editTera, scfg)
	})
}

// tearingBacking silently persists only a prefix of every other
// entry's payload: the write reports success and only the digest check
// at the next read can tell.
type tearingBacking struct{}

func (tearingBacking) NewRun(id int) (spill.RunData, error) {
	inner, err := spill.MemBacking{}.NewRun(id)
	return tearingRun{RunData: inner, tear: id%2 == 1}, err
}

type tearingRun struct {
	spill.RunData
	tear bool
}

func (r tearingRun) WriteAt(p []byte, off int64) (int, error) {
	if r.tear && len(p) > 8 {
		q := make([]byte, len(p)) // zeros past the prefix
		copy(q, p[:8])
		p = q
	}
	return r.RunData.WriteAt(p, off)
}

// TestMemoFaultedWarmRunRecomputes: read faults on the memo device,
// failed publishes and silently torn entries all turn warm hits into
// misses — each recomputed, never a job error, never a wrong byte — and
// the same plan gives the same counters on a fresh store.
func TestMemoFaultedWarmRunRecomputes(t *testing.T) {
	text := genText(t, 128<<10, 71)
	want := refWordCount(text)
	type counters struct {
		hits, misses int
		store        MemoStats
	}
	injected := func(plan FaultPlan) func(Clock) *MemoStore {
		return func(clk Clock) *MemoStore {
			store, err := NewMemoStore(MemoConfig{Clock: clk, Faults: NewFaultInjector(plan, clk)})
			if err != nil {
				t.Fatal(err)
			}
			return store
		}
	}
	cases := []struct {
		name    string
		mkStore func(Clock) *MemoStore
		damage  func(MemoStats) int64
	}{
		{"read-faults", injected(FaultPlan{Seed: 9, ReadErrEvery: 3}), func(s MemoStats) int64 { return s.ReadErrors }},
		{"failed-publishes", injected(FaultPlan{Seed: 9, WriteErrProb: 0.4}), func(s MemoStats) int64 { return s.WriteErrors }},
		{"silent-tears", func(clk Clock) *MemoStore {
			st, err := memo.NewStore(memo.Config{Device: storage.NewNullDevice(clk), Backing: tearingBacking{}})
			if err != nil {
				t.Fatal(err)
			}
			return &MemoStore{store: st}
		}, func(s MemoStats) int64 { return s.Torn }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runOnce := func() counters {
				clk := storage.NewFakeClock()
				store := tc.mkStore(clk)
				defer store.Close()
				cfg := memoCfg(clk)
				cfg.MemoStore = store
				runMemoWC(t, text, cfg) // cold: publishes, some lost or torn
				warm, _ := runMemoWC(t, text, cfg)
				checkWordCounts(t, warm.Pairs, want)
				if warm.Stats.MemoMisses != warm.Stats.MapWaves {
					t.Fatalf("misses %d != map waves %d: a failed lookup must recompute", warm.Stats.MemoMisses, warm.Stats.MapWaves)
				}
				return counters{warm.Stats.MemoHits, warm.Stats.MemoMisses, store.Stats()}
			}
			a, b := runOnce(), runOnce()
			if a != b {
				t.Fatalf("same faults, different counters:\n%+v\n%+v", a, b)
			}
			if a.hits == 0 || a.misses == 0 || tc.damage(a.store) == 0 {
				t.Fatalf("vacuous: warm hits=%d misses=%d store=%+v", a.hits, a.misses, a.store)
			}
		})
	}
}

// TestMemoMapPanicWithParkedPayloads: a warm run whose edited tail
// chunks miss has dozens of encoded payloads parked when the first
// mapped chunk panics; the job fails with that panic, every chunk
// buffer goes back to the freelist and no goroutine is left behind.
func TestMemoMapPanicWithParkedPayloads(t *testing.T) {
	text := genText(t, 256<<10, 73)
	clk := storage.NewFakeClock()
	store, err := NewMemoStore(MemoConfig{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := Config{Runtime: RuntimeSupMR, Workers: 2, Splits: 4, ChunkBytes: 8 << 10, PrefetchDepth: 4,
		Clock: clk, Memo: true, MemoStore: store}
	if _, err := RunFile[string, int64](WordCountJob(), MemoryFile("in", text, clk), WordCountContainer(8), cfg); err != nil {
		t.Fatal(err)
	}

	// New content three quarters in: the chunks before it hit and park,
	// the first chunk at the edit maps — and panics.
	edited := append([]byte(nil), text...)
	for i := len(edited) * 3 / 4; i < len(edited)*3/4+40<<10; i += 11 {
		edited[i] = 'q'
	}
	baseGoroutines := runtime.NumGoroutine()
	inner, err := StreamFile(MemoryFile("in", edited, clk), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := track(inner)
	job := panicAfter{Job: WordCountJob(), calls: new(atomic.Int64), limit: 0}
	_, err = Run[string, int64](job, stream, WordCountContainer(8), cfg)
	if err == nil || !strings.Contains(err.Error(), "mapper exploded mid-stream") {
		t.Fatalf("err = %v, want the map panic", err)
	}
	if hits := store.Stats().Hits; hits < 10 {
		t.Fatalf("only %d payloads were parked before the panic", hits)
	}
	for i, c := range stream.seen {
		if c.Data != nil {
			t.Errorf("chunk read #%d was never released (%d bytes still held)", i, len(c.Data))
		}
	}
	checkNoGoroutineLeak(t, baseGoroutines)
}

// foldBomb is a container whose run Locals — the memo fold's — call act
// at the limit-th record they are handed.
type foldBomb struct {
	Container[string, int64]
	records *atomic.Int64
	limit   int64
	act     func()
}

func (b foldBomb) NewRunLocal() container.Local[string, int64] {
	return bombLocal{b.Container.NewRunLocal(), b}
}

type bombLocal struct {
	container.Local[string, int64]
	b foldBomb
}

func (l bombLocal) Emit(k string, v int64) {
	if l.b.records.Add(1) == l.b.limit {
		l.b.act()
	}
	l.Local.Emit(k, v)
}

// TestMemoFoldFailsMidRun: a fold that panics, or whose job is cancelled
// under it, while later chunks are still being looked up fails the job
// with that panic or cancellation; every chunk buffer goes back and no
// goroutine — the fold's helper included — is left behind.
func TestMemoFoldFailsMidRun(t *testing.T) {
	text := genText(t, 256<<10, 79)
	edited := append([]byte(nil), text...)
	copy(edited[len(edited)/2:], "\nzzfoldzz bazooka\nbazooka\n")
	for _, tc := range []struct {
		name string
		act  func(cancel context.CancelFunc)
		want func(error) bool
	}{
		{"panic", func(context.CancelFunc) { panic("fold exploded mid-run") },
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "fold exploded mid-run") }},
		{"cancel", func(cancel context.CancelFunc) { cancel() },
			func(err error) bool { return errors.Is(err, context.Canceled) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := storage.NewFakeClock()
			store, err := NewMemoStore(MemoConfig{Clock: clk})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			cfg := Config{Runtime: RuntimeSupMR, Workers: 2, Splits: 4, ChunkBytes: 8 << 10, PrefetchDepth: 2,
				Clock: clk, Memo: true, MemoStore: store}
			cold, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(8), cfg)
			if err != nil {
				t.Fatal(err)
			}
			chunks := cold.Stats.MemoMisses

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg.Context = ctx
			baseGoroutines := runtime.NumGoroutine()
			inner, err := StreamFile(MemoryFile("in", edited, clk), cfg)
			if err != nil {
				t.Fatal(err)
			}
			stream := track(inner)
			// A few chunks' worth of records in: the fold of an early hit.
			bomb := foldBomb{WordCountContainer(8), new(atomic.Int64), 3000, func() { tc.act(cancel) }}
			_, err = Run[string, int64](WordCountJob(), stream, bomb, cfg)
			if !tc.want(err) {
				t.Fatalf("err = %v, want the fold's %s", err, tc.name)
			}
			if hits := store.Stats().Hits; hits == 0 || hits >= int64(chunks) {
				t.Fatalf("%d of %d chunks hit before the failure; want it mid-run", hits, chunks)
			}
			for i, c := range stream.seen {
				if c.Data != nil {
					t.Errorf("chunk read #%d was never released (%d bytes still held)", i, len(c.Data))
				}
			}
			checkNoGoroutineLeak(t, baseGoroutines)
		})
	}
}

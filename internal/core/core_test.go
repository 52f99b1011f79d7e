package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/egress"
	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/memo"
	"supmr/internal/metrics"
	"supmr/internal/shuffle"
	"supmr/internal/storage"
	"supmr/internal/workload"
)

// wcApp is a local word count application (the apps package imports
// this package for its iterative driver, so tests define their own).
type wcApp struct{}

func (wcApp) Map(split []byte, emit kv.Emitter[string, int64]) {
	workload.Tokenize(split, func(w []byte) { emit.Emit(string(w), 1) })
}

func (wcApp) Reduce(_ string, vs []int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}

func (wcApp) Combine(a, b int64) int64 { return a + b }
func (wcApp) Less(a, b string) bool    { return a < b }

func (w wcApp) NewContainer(shards int) container.Container[string, int64] {
	return container.NewHash[string, int64](shards, container.StringHasher, w.Combine)
}

func textStream(t *testing.T, data []byte, chunkSize int64) chunk.Stream {
	t.Helper()
	f := storage.BytesFile("in", data, storage.NewNullDevice(storage.NewFakeClock()))
	s, err := chunk.NewInterFile(f, chunkSize, chunk.NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func genText(t *testing.T, n int64) []byte {
	t.Helper()
	buf := make([]byte, n)
	workload.TextGen{Seed: 33}.Fill()(0, buf)
	return buf
}

func refCounts(text []byte) map[string]int64 {
	ref := make(map[string]int64)
	for _, w := range strings.Fields(string(text)) {
		ref[w]++
	}
	return ref
}

func TestPipelineMatchesReference(t *testing.T) {
	text := genText(t, 64<<10)
	wc := wcApp{}
	res, err := Run[string, int64](wc, textStream(t, text, 5<<10), wc.NewContainer(16),
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
			t.Fatalf("count[%q] = %d, want %d", p.Key, p.Val, ref[p.Key])
		}
	}
	if res.Stats.MapWaves < 10 {
		t.Errorf("map waves = %d, want >= 10 for 5 KiB chunks over 64 KiB", res.Stats.MapWaves)
	}
}

func TestPipelineRecordsFusedPhase(t *testing.T) {
	text := genText(t, 16<<10)
	wc := wcApp{}
	res, err := Run[string, int64](wc, textStream(t, text, 4<<10), wc.NewContainer(8),
		Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Times.Get(metrics.PhaseReadMap) <= 0 {
		t.Error("fused read+map phase not recorded")
	}
	if res.Times.Get(metrics.PhaseRead) != 0 || res.Times.Get(metrics.PhaseMap) != 0 {
		t.Error("pipeline should not record separate read/map phases")
	}
}

func TestPipelineEmptyInput(t *testing.T) {
	wc := wcApp{}
	res, err := Run[string, int64](wc, textStream(t, []byte{}, 1024), wc.NewContainer(4),
		Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 || res.Stats.MapWaves != 0 {
		t.Errorf("empty input produced %d pairs, %d waves", len(res.Pairs), res.Stats.MapWaves)
	}
}

func TestPipelineSingleChunk(t *testing.T) {
	text := genText(t, 8<<10)
	wc := wcApp{}
	res, err := Run[string, int64](wc, textStream(t, text, 1<<20), wc.NewContainer(8),
		Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MapWaves != 1 {
		t.Errorf("single-chunk input ran %d waves", res.Stats.MapWaves)
	}
	if len(res.Pairs) != len(refCounts(text)) {
		t.Error("single-chunk results wrong")
	}
	// The one chunk is the whole input: nothing to overlap.
	if res.Times.Get(metrics.PhaseRead) <= 0 || res.Times.Get(metrics.PhaseMap) <= 0 || res.Times.Get(metrics.PhaseReadMap) != 0 {
		t.Errorf("read %v, map %v, read+map %v: want separate read and map phases",
			res.Times.Get(metrics.PhaseRead), res.Times.Get(metrics.PhaseMap), res.Times.Get(metrics.PhaseReadMap))
	}
}

func TestResetEachRoundLosesEarlierChunks(t *testing.T) {
	text := genText(t, 64<<10)
	wc := wcApp{}
	good, err := Run[string, int64](wc, textStream(t, text, 5<<10), wc.NewContainer(16),
		Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Run[string, int64](wc, textStream(t, text, 5<<10), wc.NewContainer(16),
		Options{Workers: 2, ResetEachRound: true})
	if err != nil {
		t.Fatal(err)
	}
	var goodTotal, badTotal int64
	for _, p := range good.Pairs {
		goodTotal += p.Val
	}
	for _, p := range bad.Pairs {
		badTotal += p.Val
	}
	if badTotal >= goodTotal {
		t.Errorf("reset-each-round kept %d occurrences, persistent kept %d — ablation should lose data",
			badTotal, goodTotal)
	}
}

// chunkSpy records set_data callbacks.
type chunkSpy struct {
	wcApp
	chunks []int
	sizes  []int64
}

func (s *chunkSpy) SetData(c *chunk.Chunk) {
	s.chunks = append(s.chunks, c.Index)
	s.sizes = append(s.sizes, c.Size())
}

func TestSetDataCallback(t *testing.T) {
	text := genText(t, 32<<10)
	spy := &chunkSpy{}
	res, err := Run[string, int64](spy, textStream(t, text, 8<<10), spy.NewContainer(8),
		Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(spy.chunks) != res.Stats.MapWaves {
		t.Errorf("SetData called %d times for %d waves", len(spy.chunks), res.Stats.MapWaves)
	}
	for i, idx := range spy.chunks {
		if idx != i {
			t.Errorf("SetData chunk order: got %v", spy.chunks)
			break
		}
	}
	var sum int64
	for _, s := range spy.sizes {
		sum += s
	}
	if sum != int64(len(text)) {
		t.Errorf("chunk sizes sum to %d, want %d", sum, len(text))
	}
}

// errStream fails on the k-th Next call.
type errStream struct {
	inner  chunk.Stream
	failAt int
	calls  int
}

func (e *errStream) TotalBytes() int64 { return e.inner.TotalBytes() }
func (e *errStream) Next() (*chunk.Chunk, error) {
	e.calls++
	if e.calls == e.failAt {
		return nil, errors.New("mid-stream ingest failure")
	}
	return e.inner.Next()
}

// countStream counts the Next calls a stream has served.
type countStream struct {
	inner chunk.Stream
	nexts atomic.Int32
}

func (s *countStream) TotalBytes() int64 { return s.inner.TotalBytes() }
func (s *countStream) Next() (*chunk.Chunk, error) {
	s.nexts.Add(1)
	return s.inner.Next()
}

// TestForeignStreamReadsOneChunkAhead: a stream that is no InterFile
// has no reads to put in flight, and the pump hands chunks over
// unbuffered, so at any depth it is read one chunk ahead: with the
// mappers parked on chunk 0, exactly one more chunk has been read.
func TestForeignStreamReadsOneChunkAhead(t *testing.T) {
	text := genText(t, 64<<10)
	for _, depth := range []int{1, 4} {
		s := &countStream{inner: textStream(t, text, 4<<10)}
		app := parkedApp{gate: make(chan struct{})}
		done := make(chan error, 1)
		go func() {
			_, err := Run[string, int64](app, s, wcApp{}.NewContainer(8),
				Options{Workers: 2, PrefetchDepth: depth})
			done <- err
		}()
		// Wait for the pump to settle behind the parked mappers.
		nexts, since := int32(-1), time.Now()
		for time.Since(since) < 100*time.Millisecond {
			if n := s.nexts.Load(); n != nexts {
				nexts, since = n, time.Now()
			}
			time.Sleep(time.Millisecond)
		}
		close(app.gate)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if nexts != 2 {
			t.Errorf("depth %d: %d chunks read with the mappers on chunk 0, want 2", depth, nexts)
		}
	}
}

func TestPipelinePropagatesErrors(t *testing.T) {
	text := genText(t, 32<<10)
	wc := wcApp{}
	for _, failAt := range []int{1, 2, 3} {
		s := &errStream{inner: textStream(t, text, 4<<10), failAt: failAt}
		_, err := Run[string, int64](wc, s, wc.NewContainer(8),
			Options{Workers: 2})
		if err == nil || !strings.Contains(err.Error(), "mid-stream ingest failure") {
			t.Errorf("failAt=%d: err = %v", failAt, err)
		}
	}
}

func TestPipelineOverlapsIngestWithMap(t *testing.T) {
	// With a throttled device, the pipelined read+map should take about
	// the raw read time — NOT read + map serialized. Use a slow "map"
	// via a compute-heavy app to make the distinction visible.
	if testing.Short() {
		t.Skip("timing test")
	}
	clock := storage.NewRealClock()
	const size = 512 << 10
	data := genText(t, size)
	d, err := storage.NewDisk(storage.DiskConfig{Name: "slow", Bandwidth: 2 << 20}, clock)
	if err != nil {
		t.Fatal(err)
	}
	f, err := storage.NewFile("in", size, 0, func(off int64, p []byte) { copy(p, data[off:]) }, d)
	if err != nil {
		t.Fatal(err)
	}
	s, err := chunk.NewInterFile(f, 32<<10, chunk.NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	wc := wcApp{}
	res, err := Run[string, int64](wc, s, wc.NewContainer(16),
		Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rawRead := time.Duration(float64(size) / float64(2<<20) * float64(time.Second))
	fused := res.Times.Get(metrics.PhaseReadMap)
	// Allow 40% slack for scheduling noise; the point is it is not
	// read+map serialized (which would be ~rawRead + mapTime).
	if fused > rawRead*14/10 {
		t.Errorf("fused read+map %v far exceeds raw read %v — pipeline not overlapping", fused, rawRead)
	}
}

// cancelApp cancels the job from inside its first map task and records
// how many map waves started.
type cancelApp struct {
	wcApp
	cancel context.CancelFunc
	waves  atomic.Int32
	fired  atomic.Bool
}

func (a *cancelApp) SetData(*chunk.Chunk) { a.waves.Add(1) }

func (a *cancelApp) Map(split []byte, emit kv.Emitter[string, int64]) {
	if a.fired.CompareAndSwap(false, true) {
		a.cancel()
	}
	time.Sleep(5 * time.Millisecond) // let the cancellation land mid-wave
	a.wcApp.Map(split, emit)
}

func TestPipelineCancelledMidMapWave(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pool := exec.NewPool(ctx, exec.Config{Workers: 2})
	defer pool.Close()
	text := genText(t, 64<<10)
	app := &cancelApp{cancel: cancel}
	_, err := Run[string, int64](app, textStream(t, text, 4<<10), wcApp{}.NewContainer(8),
		Options{Pool: pool})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 16 chunks were queued; a prompt cancellation stops within one round
	// of the wave that observed it.
	if w := app.waves.Load(); w > 2 {
		t.Errorf("ran %d map waves after cancellation, want <= 2", w)
	}
}

// panicCoreApp panics in every map task.
type panicCoreApp struct{ wcApp }

func (panicCoreApp) Map([]byte, kv.Emitter[string, int64]) { panic("mapper exploded") }

func TestPipelineSurvivesMapPanic(t *testing.T) {
	// A panicking map task under the SupMR runtime becomes a job error
	// naming the phase and split — it must not kill the process or hang
	// the prefetch.
	text := genText(t, 32<<10)
	_, err := Run[string, int64](panicCoreApp{}, textStream(t, text, 4<<10), wcApp{}.NewContainer(8),
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
		t.Errorf("err %q does not carry the panic value", err)
	}
}

// inflightStream counts Next calls currently executing, so tests can
// assert the pipeline joined — not abandoned — its prefetch read.
type inflightStream struct {
	inner    chunk.Stream
	failAt   int
	calls    atomic.Int32
	inflight atomic.Int32
}

func (s *inflightStream) TotalBytes() int64 { return s.inner.TotalBytes() }
func (s *inflightStream) Next() (*chunk.Chunk, error) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	time.Sleep(2 * time.Millisecond) // a read that takes real time
	if int(s.calls.Add(1)) == s.failAt {
		return nil, errors.New("mid-stream ingest failure")
	}
	return s.inner.Next()
}

func TestIngestErrorJoinsPrefetchWithoutLeaks(t *testing.T) {
	// Regression for the abandoned-prefetch bug: a mid-stream ingest
	// error must surface promptly AND the in-flight prefetch goroutine
	// must be joined before Run returns, leaking nothing.
	text := genText(t, 64<<10)
	wc := wcApp{}
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		s := &inflightStream{inner: textStream(t, text, 4<<10), failAt: 3}
		start := time.Now()
		_, err := Run[string, int64](wc, s, wc.NewContainer(8),
			Options{Workers: 2})
		if err == nil || !strings.Contains(err.Error(), "mid-stream ingest failure") {
			t.Fatalf("err = %v, want mid-stream ingest failure", err)
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("ingest error did not surface promptly")
		}
		if n := s.inflight.Load(); n != 0 {
			t.Fatalf("%d stream reads still in flight after Run returned", n)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Errorf("goroutines grew from %d to %d across failed jobs — prefetch leaked", base, n)
	}
}

// recTuner records the round observations fed into the feedback loop.
type recTuner struct {
	ingests []time.Duration
	maps    []time.Duration
}

func (r *recTuner) Next(_ int64, ingest, mapT time.Duration) int64 {
	r.ingests = append(r.ingests, ingest)
	r.maps = append(r.maps, mapT)
	return 0 // keep the chunk size
}

func TestTunerObservesJobClock(t *testing.T) {
	// Regression for the wallClock() bug: round timings fed to the tuner
	// must come from the job clock (here a virtual FakeClock driving a
	// simulated disk), not the process real-time epoch. On the fake
	// timeline each 8 KiB ingest at 1 MiB/s costs ~7.8ms; on the real
	// clock these reads complete in microseconds.
	clock := storage.NewFakeClock()
	const size = 64 << 10
	data := genText(t, size)
	d, err := storage.NewDisk(storage.DiskConfig{Name: "sim", Bandwidth: 1 << 20}, clock)
	if err != nil {
		t.Fatal(err)
	}
	f, err := storage.NewFile("in", size, 0, func(off int64, p []byte) { copy(p, data[off:]) }, d)
	if err != nil {
		t.Fatal(err)
	}
	s, err := chunk.NewInterFile(f, 8<<10, chunk.NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPool(nil, exec.Config{Workers: 2, Now: clock.Now})
	defer pool.Close()
	tun := &recTuner{}
	wc := wcApp{}
	if _, err := Run[string, int64](wc, s, wc.NewContainer(8),
		Options{Pool: pool, Tuner: tun}); err != nil {
		t.Fatal(err)
	}
	if len(tun.ingests) == 0 {
		t.Fatal("tuner never fed")
	}
	var total time.Duration
	for _, dur := range tun.ingests {
		total += dur
	}
	// 7 observed rounds x ~7.8ms virtual each; real-clock timings would
	// sum to well under a millisecond.
	if total < 10*time.Millisecond {
		t.Errorf("tuner ingest durations sum to %v — not read off the virtual job clock", total)
	}
}

// TestSpansPerWaveAcrossRounds: a multi-round job draws every phase from
// its one pool, and the pool records a bounded span population — at most
// one user span per worker per compute call and one IO-wait span per
// ingest task — rather than one per map task.
func TestSpansPerWaveAcrossRounds(t *testing.T) {
	pool := exec.NewPool(nil, exec.Config{Workers: 3})
	defer pool.Close()
	text := genText(t, 64<<10)
	wc := wcApp{}
	res, err := Run[string, int64](wc, textStream(t, text, 4<<10), wc.NewContainer(8),
		Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MapWaves < 10 {
		t.Fatalf("want a multi-round job, got %d waves", res.Stats.MapWaves)
	}
	var user, io int
	for _, s := range pool.Record().Spans(exec.Mark{}) {
		if s.User == 1 {
			user++
		} else if s.IOWait == 1 {
			io++
		}
	}
	// Map waves, then reduce, run-sort and the merge rounds: one
	// ForEach each.
	calls := res.Stats.MapWaves + 2 + res.Stats.MergeRounds
	if maps := res.Stats.Tasks["map"].Tasks; user == 0 || user > 3*calls || user >= maps {
		t.Errorf("%d user spans for %d compute calls and %d map tasks, want 1..%d", user, calls, maps, 3*calls)
	}
	if n := res.Stats.Tasks["ingest"].Tasks; io == 0 || io > n {
		t.Errorf("%d IO-wait spans for %d ingest tasks", io, n)
	}
}

// oscTuner swings the chunk size hard every round — worst case for a
// resize landing while the pump holds reads in flight.
type oscTuner struct{ round int }

func (o *oscTuner) Next(int64, time.Duration, time.Duration) int64 {
	o.round++
	if o.round%2 == 0 {
		return 4 << 10
	}
	return 24 << 10
}

func TestTunerResizeWithPrefetchRing(t *testing.T) {
	// An aggressive tuner combined with deep read-ahead and
	// multi-lane reads: SetChunkSize is applied by the pump before it
	// issues a read, so a resize can only affect not-yet-issued chunks —
	// never tear one mid-flight — and the job's output must match a
	// defaults run exactly.
	text := genText(t, 96<<10)
	wc := wcApp{}
	ref, err := Run[string, int64](wc, textStream(t, text, 8<<10), wc.NewContainer(16),
		Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPool(nil, exec.Config{Workers: 2, IOWorkers: 2})
	defer pool.Close()
	got, err := Run[string, int64](wc, textStream(t, text, 8<<10), wc.NewContainer(16),
		Options{
			Pool:          pool,
			Tuner:         &oscTuner{},
			PrefetchDepth: 3,
			IOLanes:       2,
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Pairs) != len(ref.Pairs) {
		t.Fatalf("tuned ring run produced %d pairs, reference %d", len(got.Pairs), len(ref.Pairs))
	}
	for i, p := range got.Pairs {
		if r := ref.Pairs[i]; p.Key != r.Key || p.Val != r.Val {
			t.Fatalf("pair %d: got %q=%d, want %q=%d", i, p.Key, p.Val, r.Key, r.Val)
		}
	}
	if got.Stats.MapWaves < 4 {
		t.Fatalf("only %d map waves; the resize sweep needs a multi-round job", got.Stats.MapWaves)
	}
}

func TestPrefetchRingCountsHitsAndStalls(t *testing.T) {
	// On an instant device every chunk after the first is buffered by
	// the time the map wave ends: all joins are prefetch hits, none
	// stall.
	text := genText(t, 64<<10)
	wc := wcApp{}
	res, err := Run[string, int64](wc, textStream(t, text, 8<<10), wc.NewContainer(16),
		Options{Workers: 2, PrefetchDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MapWaves < 2 {
		t.Fatal("need a multi-chunk run")
	}
	if res.Stats.PrefetchHits+1 < res.Stats.MapWaves &&
		res.Stats.PrefetchHits == 0 {
		t.Errorf("prefetch reported %d hits over %d waves on an instant device",
			res.Stats.PrefetchHits, res.Stats.MapWaves)
	}
}

// TestBudgetRefusedWithMemoOrNodes: a memoized run's parked output and
// a node's container have no spill path, so Run refuses a memory budget
// beside them, before the first read, instead of running unbounded.
func TestBudgetRefusedWithMemoOrNodes(t *testing.T) {
	store, err := memo.NewStore(memo.Config{Device: storage.NewNullDevice(storage.NewFakeClock())})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	wc := wcApp{}
	for name, opts := range map[string]Options{
		"memo":  {MemoryBudget: 1 << 10, MemoStore: store},
		"nodes": {MemoryBudget: 1 << 10, Topology: shuffle.Topology{Nodes: 2}},
	} {
		s := &failStream{}
		_, err := Run[string, int64](wc, s, wc.NewContainer(4), opts)
		if err == nil || !strings.Contains(err.Error(), "MemoryBudget") || s.served {
			t.Errorf("%s: err %v, input read %v; want a refusal before any read", name, err, s.served)
		}
	}
}

// TestMemoMalformedEntryRecomputes plants a digest-valid entry whose
// record count is wrong under one chunk's key: the run must treat it as
// a miss, recompute and republish that chunk, and the next run replays
// every chunk from the cache into the same output.
func TestMemoMalformedEntryRecomputes(t *testing.T) {
	text := genText(t, 32<<10)
	wc := wcApp{}
	store, err := memo.NewStore(memo.Config{Device: storage.NewNullDevice(storage.NewFakeClock())})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cache, err := memo.NewCache[string, int64](store, "wc")
	if err != nil {
		t.Fatal(err)
	}
	var keys []memo.Key
	for s := textStream(t, text, 4<<10); ; {
		c, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, cache.Key(sha256.Sum256(c.Data)))
		c.Release()
	}
	// One well-framed record ("the" -> 8 value bytes) announced as two.
	bad := append([]byte{3, 't', 'h', 'e', 8}, make([]byte, 8)...)
	if err := store.Put(keys[2], bad, 2); err != nil {
		t.Fatal(err)
	}

	run := func() *Result[string, int64] {
		t.Helper()
		res, err := Run[string, int64](wc, textStream(t, text, 4<<10), wc.NewContainer(8),
			Options{Workers: 4, MemoStore: store, MemoSpace: "wc"})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := refCounts(text)
	checkRef := func(res *Result[string, int64]) {
		t.Helper()
		if len(res.Pairs) != len(ref) || res.Stats.IntermediateN != len(ref) {
			t.Fatalf("%d pairs, IntermediateN %d, want %d distinct words", len(res.Pairs), res.Stats.IntermediateN, len(ref))
		}
		for _, p := range res.Pairs {
			if ref[p.Key] != p.Val {
				t.Fatalf("count[%q] = %d, want %d", p.Key, p.Val, ref[p.Key])
			}
		}
	}
	first := run()
	checkRef(first)
	if first.Stats.MemoHits != 0 || first.Stats.MemoMisses != len(keys) {
		t.Errorf("hits=%d misses=%d, want the planted entry rejected and all %d chunks mapped", first.Stats.MemoHits, first.Stats.MemoMisses, len(keys))
	}
	if st := store.Stats(); st.ReadErrors != 1 || st.Hits != 0 {
		t.Errorf("store stats = %+v, want the malformed entry counted as one read error and no hit", st)
	}
	second := run()
	checkRef(second)
	if second.Stats.MemoHits != len(keys) || second.Stats.MapWaves != 0 {
		t.Errorf("second run: hits=%d waves=%d, want %d hits and nothing mapped", second.Stats.MemoHits, second.Stats.MapWaves, len(keys))
	}
}

// TestMemoFoldBehindLookups: on a memo device that charges time, a warm
// run folds each hit while the next chunk is looked up, so the job's
// record shows the first fold task (the first compute span: a warm run
// maps nothing) starting before the last lookup (the last IO span: the
// input device is free) ends. A fold left for the end of ingest would
// start only then. The device sleeps on the wall clock, which the pool
// stamps spans with, so compute spans have a length.
func TestMemoFoldBehindLookups(t *testing.T) {
	text := genText(t, 32<<10)
	wc := wcApp{}
	clk := storage.NewRealClock()
	disk, err := storage.NewDisk(storage.DiskConfig{Name: "memo", Bandwidth: 1 << 20}, clk)
	if err != nil {
		t.Fatal(err)
	}
	store, err := memo.NewStore(memo.Config{Device: disk})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pool := exec.NewPool(nil, exec.Config{Workers: 2, Now: clk.Now})
	defer pool.Close()
	run := func() *Result[string, int64] {
		t.Helper()
		res, err := Run[string, int64](wc, textStream(t, text, 4<<10), wc.NewContainer(8),
			Options{Pool: pool, MemoStore: store, MemoSpace: "wc"})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run() // cold: publishes every chunk
	from := pool.Record().Mark()
	warm := run()
	if warm.Stats.MemoHits < 3 || warm.Stats.MapWaves != 0 {
		t.Fatalf("warm run: %d hits, %d map waves; want every chunk of several a hit", warm.Stats.MemoHits, warm.Stats.MapWaves)
	}
	firstFold, lastLookup := time.Duration(-1), time.Duration(-1)
	for _, sp := range pool.Record().Spans(from) {
		switch {
		case sp.User > 0 && (firstFold < 0 || sp.Start < firstFold):
			firstFold = sp.Start
		case sp.IOWait > 0:
			lastLookup = max(lastLookup, sp.End)
		}
	}
	if firstFold < 0 || lastLookup <= 0 || firstFold >= lastLookup {
		t.Errorf("first fold task starts at %v, last lookup ends at %v: the folds did not run behind the lookups", firstFold, lastLookup)
	}
}

// TestOwnPoolWidenedForEgress: with no Pool, Run builds one whose IO
// lanes cover the wider of ingest and egress, so four egress lanes write
// on four lanes even when ingest reads on one.
func TestOwnPoolWidenedForEgress(t *testing.T) {
	text := genText(t, 64<<10)
	wc := wcApp{}
	res, err := Run[string, int64](wc, textStream(t, text, 8<<10), wc.NewContainer(8),
		Options{Workers: 2, IOLanes: 1, Egress: &egress.Config{Lanes: 4, ExtentBytes: 2 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, b := range res.Stats.EgressLaneBytes {
		sum += b
	}
	if len(res.Stats.EgressLaneBytes) != 4 || sum != res.Stats.EgressBytes {
		t.Fatalf("egress lane bytes %v over %d egressed bytes, want 4 lanes carrying them all", res.Stats.EgressLaneBytes, res.Stats.EgressBytes)
	}
}

package supmr

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§VI), plus ablation benches for the design decisions
// DESIGN.md calls out. Table/figure benches execute the real runtimes on
// scaled inputs over the simulated storage; the perfmodel benches
// regenerate the paper-scale numbers. Expected shapes:
//
//	Table II word count: SupMR(chunked) < baseline; small chunks <= large.
//	Table II sort:       p-way merge < pairwise merge; totals follow.
//	Fig 7:               pipelined HDFS ingest <= copy-then-compute.
//	Ablations:           persistent container, chunk-size sweep,
//	                     container choice, merge crossover.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"supmr/internal/core"
	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/perfmodel"
	"supmr/internal/sortalgo"
	"supmr/internal/storage"
	"supmr/internal/workload"
)

// benchWordCount runs one word count configuration per iteration.
func benchWordCount(b *testing.B, rt Runtime, size, chunkBytes int64, bw float64) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := NewClock()
		dev, err := NewDisk("sim", bw, 0, clock)
		if err != nil {
			b.Fatal(err)
		}
		f, err := TextFile("wc", size, 7, dev)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := RunFile[string, int64](WordCountJob(), f, WordCountContainer(64),
			Config{Runtime: rt, ChunkBytes: chunkBytes, Clock: clock})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Pairs) == 0 {
			b.Fatal("no output")
		}
		b.ReportMetric(rep.Times.Total.Seconds(), "job-s")
	}
	b.SetBytes(size)
}

// Table II word count rows (E-T2-WC). Input and bandwidth are scaled so
// read:map ≈ the paper's 6:1.
const (
	wcBenchSize = 2 << 20
	wcBenchBW   = 8 << 20
)

func BenchmarkTable2WordCountNone(b *testing.B) {
	benchWordCount(b, RuntimeTraditional, wcBenchSize, 0, wcBenchBW)
}

func BenchmarkTable2WordCountChunkSmall(b *testing.B) {
	benchWordCount(b, RuntimeSupMR, wcBenchSize, wcBenchSize/32, wcBenchBW)
}

func BenchmarkTable2WordCountChunkLarge(b *testing.B) {
	benchWordCount(b, RuntimeSupMR, wcBenchSize, wcBenchSize/3, wcBenchBW)
}

// benchSort runs one sort configuration per iteration.
func benchSort(b *testing.B, rt Runtime, records, chunkBytes int64, merge MergeAlgo, bw float64) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := NewClock()
		dev, err := NewDisk("sim", bw, 0, clock)
		if err != nil {
			b.Fatal(err)
		}
		f, err := TeraFile("sort", records, 7, dev)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := RunFile[string, uint64](SortJob(), f, SortContainer(),
			Config{Runtime: rt, ChunkBytes: chunkBytes, Boundary: CRLFRecords,
				Merge: &merge, Splits: 64, Clock: clock})
		if err != nil {
			b.Fatal(err)
		}
		if int64(len(rep.Pairs)) != records {
			b.Fatalf("sorted %d of %d records", len(rep.Pairs), records)
		}
		b.ReportMetric(rep.Times.Get(PhaseMerge).Seconds(), "merge-s")
	}
	b.SetBytes(records * workload.TeraRecordSize)
}

// Table II sort rows (E-T2-SORT).
const (
	sortBenchRecords = 40_000
	sortBenchBW      = 64 << 20
)

func BenchmarkTable2SortNone(b *testing.B) {
	benchSort(b, RuntimeTraditional, sortBenchRecords, 0, MergePairwise, sortBenchBW)
}

func BenchmarkTable2SortChunked(b *testing.B) {
	benchSort(b, RuntimeSupMR, sortBenchRecords, sortBenchRecords*100/10, MergePWay, sortBenchBW)
}

// Fig. 1 (E-F1): baseline sort with live utilization recording.
func BenchmarkFig1BaselineSortTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := NewClock()
		dev, err := NewDisk("sim", 32<<20, 0, clock)
		if err != nil {
			b.Fatal(err)
		}
		f, err := TeraFile("sort", 30_000, 7, dev)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := RunFile[string, uint64](SortJob(), f, SortContainer(),
			Config{Runtime: RuntimeTraditional, Boundary: CRLFRecords,
				Splits: 64, Clock: clock,
				TraceContexts: 4, TraceBucket: 20 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Trace == nil || len(rep.Trace.Samples) == 0 {
			b.Fatal("no trace")
		}
	}
}

// Fig. 3 (E-F3): the OpenMP-analog sort (sequential ingest + parse,
// parallel sort) against the MapReduce baseline.
func BenchmarkFig3OpenMPSort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := NewClock()
		dev, err := NewDisk("sim", 32<<20, 0, clock)
		if err != nil {
			b.Fatal(err)
		}
		f, err := TeraFile("sort", 30_000, 7, dev)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := OpenMPSortFile(f, 4, clock)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Pairs) != 30_000 {
			b.Fatalf("sorted %d records", len(rep.Pairs))
		}
	}
}

// Fig. 5 (E-F5): the word count chunk-size utilization sweep.
func BenchmarkFig5WordCountTraces(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		rt    Runtime
		chunk int64
	}{
		{"NoChunks", RuntimeTraditional, 0},
		{"SmallChunks", RuntimeSupMR, wcBenchSize / 32},
		{"LargeChunks", RuntimeSupMR, wcBenchSize / 3},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clock := NewClock()
				dev, err := NewDisk("sim", wcBenchBW, 0, clock)
				if err != nil {
					b.Fatal(err)
				}
				f, err := TextFile("wc", wcBenchSize, 7, dev)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := RunFile[string, int64](WordCountJob(), f, WordCountContainer(64),
					Config{Runtime: cfg.rt, ChunkBytes: cfg.chunk, Clock: clock,
						TraceContexts: 4, TraceBucket: 20 * time.Millisecond})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Trace.MeanTotal(), "util-%")
			}
		})
	}
}

// Fig. 6 (E-F6): SupMR sort with the p-way merge, traced.
func BenchmarkFig6SupMRSortTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := NewClock()
		dev, err := NewDisk("sim", 32<<20, 0, clock)
		if err != nil {
			b.Fatal(err)
		}
		f, err := TeraFile("sort", 30_000, 7, dev)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := RunFile[string, uint64](SortJob(), f, SortContainer(),
			Config{Runtime: RuntimeSupMR, ChunkBytes: 500_000, Boundary: CRLFRecords,
				Splits: 64, Clock: clock,
				TraceContexts: 4, TraceBucket: 20 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Stats.MergeRounds != 1 {
			b.Fatalf("p-way merge ran %d rounds, want 1", rep.Stats.MergeRounds)
		}
	}
}

// Fig. 7 (E-F7): HDFS case study — copy-then-compute vs pipelined.
func BenchmarkFig7HDFSCase(b *testing.B) {
	for _, mode := range []string{"CopyThenCompute", "Pipelined"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clock := NewClock()
				cluster, err := NewHDFS(HDFSConfig{
					Nodes: 32, BlockSize: 1 << 20, DiskBW: 64 << 20,
					LinkBW: 8 << 20, Latency: 200 * time.Microsecond,
				}, clock)
				if err != nil {
					b.Fatal(err)
				}
				hf, err := cluster.Create("in.txt", 4<<20, TextFill(7))
				if err != nil {
					b.Fatal(err)
				}
				if mode == "CopyThenCompute" {
					local, err := hf.CopyToLocal(NewFastDevice(clock), nil)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := RunFile[string, int64](WordCountJob(), local,
						WordCountContainer(64),
						Config{Runtime: RuntimeTraditional, Clock: clock}); err != nil {
						b.Fatal(err)
					}
				} else {
					if _, err := RunFile[string, int64](WordCountJob(), hf,
						WordCountContainer(64),
						Config{Runtime: RuntimeSupMR, ChunkBytes: 1 << 20, Clock: clock}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// Paper-scale model benches: Table II and all figures in microseconds.
func BenchmarkModelTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := perfmodel.ModelTable2()
		if len(rows) != 5 {
			b.Fatal("expected 5 Table II rows")
		}
	}
}

func BenchmarkModelFigures(b *testing.B) {
	m := perfmodel.Testbed()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := perfmodel.Baseline(perfmodel.Sort(), m, int64(perfmodel.SortInputBytes))
		tr := j.Trace(m, 2*time.Second)
		if len(tr.Samples) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// AblationMerge: pairwise vs p-way across run counts — the crossover
// (few runs: pairwise competitive; many runs: p-way avoids rescans).
func BenchmarkAblationMerge(b *testing.B) {
	for _, runs := range []int{4, 32, 256} {
		for _, algo := range []sortalgo.MergeAlgo{sortalgo.MergePairwise, sortalgo.MergePWay} {
			b.Run(fmt.Sprintf("%s/runs=%d", algo, runs), func(b *testing.B) {
				const total = 200_000
				less := kv.Less[uint64](func(a, c uint64) bool { return a < c })
				base := makeRuns(total, runs)
				ex := exec.NewLocal(4)
				defer ex.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					rs := make([][]kv.Pair[uint64, uint64], len(base))
					for j := range base {
						rs[j] = append([]kv.Pair[uint64, uint64](nil), base[j]...)
					}
					b.StartTimer()
					out, err := sortalgo.MergeWith(algo, rs, less, nil, ex)
					if err != nil || len(out) != total {
						b.Fatalf("merged %d of %d (%v)", len(out), total, err)
					}
				}
			})
		}
	}
}

// makeRuns builds sorted runs of deterministic pseudo-random keys.
func makeRuns(total, runs int) [][]kv.Pair[uint64, uint64] {
	per := total / runs
	out := make([][]kv.Pair[uint64, uint64], runs)
	x := uint64(12345)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for r := range out {
		n := per
		if r == runs-1 {
			n = total - per*(runs-1)
		}
		run := make([]kv.Pair[uint64, uint64], n)
		for i := range run {
			run[i] = kv.Pair[uint64, uint64]{Key: next(), Val: uint64(i)}
		}
		kv.SortPairs(run, func(a, c uint64) bool { return a < c })
		out[r] = run
	}
	return out
}

// ExecutorSpawnVsPool: the tentpole's spawn-overhead claim, measured.
// A many-round SupMR wordcount drives one map wave per ingest chunk;
// the old path created (and tore down) a fresh set of worker goroutines
// every wave, the persistent pool pays worker startup once per job.
func BenchmarkExecutorSpawnVsPool(b *testing.B) {
	const size = 1 << 20
	const chunkSz = 8 << 10 // 128 waves per job
	text := make([]byte, size)
	workload.TextGen{Seed: 7}.Fill()(0, text)
	var chunks [][]byte
	for off := 0; off < len(text); off += chunkSz {
		end := off + chunkSz
		if end > len(text) {
			end = len(text)
		}
		chunks = append(chunks, text[off:end])
	}
	job := WordCountJob()
	run := func(b *testing.B, persistent bool) {
		b.ReportAllocs()
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			cont := WordCountContainer(64)
			pool := exec.NewLocal(4)
			for j, c := range chunks {
				if j > 0 && !persistent {
					// Spawn per wave: every wave gets, and tears down, its own pool.
					pool.Close()
					pool = exec.NewLocal(4)
				}
				if _, err := core.MapWave[string, int64](job, c, cont, core.Options{Splits: 8, Pool: pool}); err != nil {
					b.Fatal(err)
				}
			}
			pool.Close()
		}
	}
	b.Run("SpawnPerWave", func(b *testing.B) { run(b, false) })
	b.Run("PersistentPool", func(b *testing.B) { run(b, true) })
}

// MapHotPath: the zero-allocation map path claim, measured. Each
// iteration is one steady-state map wave over 1 MiB of text against a
// persistent container (a warmup wave interns the vocabulary and warms
// the pooled locals first — the SupMR ingest-round shape, §III-C). The
// flat combiner (bytes fast path, arena-interned keys, pooled locals)
// should report orders of magnitude fewer allocs/op than the map-backed
// combiner and higher MB/s; TestMapHotPathAllocs gates the flat figure.
const mapHotPathSize = 1 << 20

// mapHotPathWave is the set-up the benchmark and its gate share: it
// returns one warmed-up steady-state wave over cont.
func mapHotPathWave(tb testing.TB, cont Container[string, int64]) func() {
	text := make([]byte, mapHotPathSize)
	workload.TextGen{Seed: 7}.Fill()(0, text)
	pool := exec.NewLocal(4)
	tb.Cleanup(pool.Close)
	opts := core.Options{Splits: 16, Pool: pool}
	wave := func() {
		if _, err := core.MapWave[string, int64](WordCountJob(), text, cont, opts); err != nil {
			tb.Fatal(err)
		}
	}
	wave() // warmup: intern the vocabulary, warm pooled locals
	return wave
}

func BenchmarkMapHotPath(b *testing.B) {
	run := func(b *testing.B, cont Container[string, int64]) {
		wave := mapHotPathWave(b, cont)
		b.ReportAllocs()
		b.SetBytes(mapHotPathSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wave()
		}
		if cont.Len() == 0 {
			b.Fatal("empty container")
		}
	}
	b.Run("FlatCombiner", func(b *testing.B) { run(b, WordCountContainer(64)) })
	b.Run("MapCombiner", func(b *testing.B) { run(b, WordCountMapContainer(64)) })
}

// TestMapHotPathAllocs gates the claim: ~20 allocs a wave measured,
// ~200k for the map-backed combiner. The bound leaves headroom for GC
// and scheduler noise and still catches any per-key allocation. Bytes
// are bounded too (~1.5 KiB a wave measured): a few large per-split
// allocations, such as a scan batch escaping once per split, stay far
// under the object bound but not under 64 KiB.
func TestMapHotPathAllocs(t *testing.T) {
	wave := mapHotPathWave(t, WordCountContainer(64))
	if allocs := testing.AllocsPerRun(5, wave); allocs > 2000 {
		t.Fatalf("flat combiner map wave allocates %.0f objs/op (limit 2000)", allocs)
	}
	const waves = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < waves; i++ {
		wave()
	}
	runtime.ReadMemStats(&after)
	if perWave := (after.TotalAlloc - before.TotalAlloc) / waves; perWave > 64<<10 {
		t.Fatalf("flat combiner map wave allocates %d bytes/op (limit 64 KiB)", perWave)
	}
}

// AblationChunkSize: the fine-vs-coarse granularity trade-off of
// Conclusion 2 at fixed input size and bandwidth.
func BenchmarkAblationChunkSize(b *testing.B) {
	const size = 2 << 20
	for _, chunk := range []int64{size / 64, size / 16, size / 4, size} {
		b.Run(fmt.Sprintf("chunk=%dKiB", chunk/1024), func(b *testing.B) {
			benchWordCount(b, RuntimeSupMR, size, chunk, 8<<20)
		})
	}
}

// AblationContainerChoice: sort on the unlocked key-range container vs
// the (wrong-for-sort) hash container, per §V-B.
func BenchmarkAblationContainerChoice(b *testing.B) {
	const records = 40_000
	data := make([]byte, records*workload.TeraRecordSize)
	workload.TeraGen{Seed: 7}.Fill()(0, data)
	run := func(b *testing.B, cont Container[string, uint64]) {
		rep, err := RunBytes[string, uint64](SortJob(), data, cont,
			Config{Boundary: CRLFRecords, Splits: 64})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Pairs) != records {
			b.Fatalf("sorted %d of %d", len(rep.Pairs), records)
		}
	}
	b.Run("KeyRange", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, SortContainer())
		}
	})
	b.Run("Hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, SortJob().NewHashContainer(64))
		}
	})
}

// AblationPersistentContainer: the §III-C requirement. Re-initializing
// per round is (a) wrong — output shrinks — and this bench quantifies
// the bookkeeping cost of keeping it persistent instead.
func BenchmarkAblationPersistentContainer(b *testing.B) {
	text := make([]byte, 1<<20)
	workload.TextGen{Seed: 7}.Fill()(0, text)
	for _, reset := range []bool{false, true} {
		name := "Persistent"
		if reset {
			name = "ResetEachRound"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := RunBytes[string, int64](WordCountJob(), text,
					WordCountContainer(64),
					Config{Runtime: RuntimeSupMR, ChunkBytes: 64 << 10, ResetEachRound: reset})
				if err != nil {
					b.Fatal(err)
				}
				var total int64
				for _, p := range rep.Pairs {
					total += p.Val
				}
				b.ReportMetric(float64(total), "occurrences")
			}
		})
	}
}

// AblationAdaptiveChunks: the §VIII future-work feedback loop vs fixed
// chunk sizes — adaptive starts badly sized and must converge.
func BenchmarkAblationAdaptiveChunks(b *testing.B) {
	const size = 2 << 20
	run := func(b *testing.B, adaptive bool, chunk int64) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clock := NewClock()
			dev, err := NewDisk("sim", 16<<20, 0, clock)
			if err != nil {
				b.Fatal(err)
			}
			f, err := TextFile("wc", size, 7, dev)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := RunFile[string, int64](WordCountJob(), f, WordCountContainer(64),
				Config{Runtime: RuntimeSupMR, ChunkBytes: chunk,
					AdaptiveChunks: adaptive, Clock: clock})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(rep.Stats.MapWaves), "waves")
		}
	}
	b.Run("FixedTiny", func(b *testing.B) { run(b, false, 32<<10) })
	b.Run("AdaptiveFromTiny", func(b *testing.B) { run(b, true, 32<<10) })
	b.Run("FixedTuned", func(b *testing.B) { run(b, false, size/16) })
}

// AblationHybridChunking: intra-file vs hybrid chunking over a skewed
// file-size distribution (many small files plus one large one): the
// file-count cut at 4 files per chunk against the byte cut at 128 KiB.
func BenchmarkAblationHybridChunking(b *testing.B) {
	mkFiles := func(clock Clock) []Input {
		dev := NewFastDevice(clock)
		files, err := TextFiles("doc", 16, 32<<10, 1, dev)
		if err != nil {
			b.Fatal(err)
		}
		big, err := TextFile("big", 1<<20, 9, dev)
		if err != nil {
			b.Fatal(err)
		}
		return append(files, big)
	}
	for _, mode := range []struct {
		name string
		cut  Config
	}{{"IntraFile", Config{FilesPerChunk: 4}}, {"Hybrid", Config{ChunkBytes: 128 << 10}}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := mode.cut
				cfg.Clock = NewClock()
				rep, err := RunFiles[string, int64](WordCountJob(), mkFiles(cfg.Clock), WordCountContainer(64), cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Stats.MapWaves), "waves")
			}
		})
	}
}

// AblationSpill: the memory-budget sweep for the out-of-core path. A
// calibration map wave measures the job's resident intermediate size,
// then the job runs unbudgeted, at 2x that size (fits, never spills)
// and at 0.5x (must spill roughly half the rounds' state). The spill
// machinery should be free when the budget fits, and the 0.5x row
// quantifies what the extra device writes plus the external merge cost.
func BenchmarkAblationSpill(b *testing.B) {
	const size = 2 << 20
	text := make([]byte, size)
	workload.TextGen{Seed: 7}.Fill()(0, text)
	cont := WordCountContainer(64)
	pool := exec.NewLocal(4)
	_, err := core.MapWave[string, int64](WordCountJob(), text, cont, core.Options{Pool: pool})
	pool.Close()
	if err != nil {
		b.Fatal(err)
	}
	inter := cont.SizeBytes()
	for _, cfg := range []struct {
		name   string
		budget int64
	}{
		{"Unbudgeted", 0},
		{"Budget2x", 2 * inter},
		{"BudgetHalf", inter / 2},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				rep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(64),
					Config{Runtime: RuntimeSupMR, ChunkBytes: 64 << 10,
						MemoryBudget: cfg.budget})
				if err != nil {
					b.Fatal(err)
				}
				if cfg.budget >= inter && rep.Stats.SpilledRuns != 0 {
					b.Fatalf("budget %d >= intermediate %d yet spilled %d runs",
						cfg.budget, inter, rep.Stats.SpilledRuns)
				}
				b.ReportMetric(float64(rep.Stats.SpilledRuns), "spill-runs")
				b.ReportMetric(float64(rep.Stats.SpilledBytes), "spill-B")
				b.ReportMetric(float64(rep.Stats.MergeRounds), "merge-rounds")
			}
		})
	}
}

// IngestLanes: the striped multi-lane ingest sweep. Each member of a
// 3-disk RAID-0 caps a single request at a third of its bandwidth
// (StreamBandwidth — one stream cannot saturate a spindle), so a serial
// whole-chunk read leaves the array ~3x underdriven. Splitting every
// chunk into segments issued across k IO lanes keeps multiple requests
// in flight per member and recovers the aggregate rate; the virtual
// ReadMap seconds (FakeClock — device time only, map compute is free)
// measure exactly that. TestIngestLanesGate holds Lanes4 at >= 1.5x the
// Lanes1 throughput and bounds its allocs/op: the prefetch pump recycles
// chunk buffers through the freelist, so steady-state ingest allocates
// O(depth) buffers, not O(chunks). The app is deliberately trivial —
// one emission per map split — so allocs/op measures the ingest
// machinery, not the application.
type ingestNop struct{}

func (ingestNop) Map(split []byte, emit kv.Emitter[string, int64]) {
	emit.Emit("bytes", int64(len(split)))
}
func (ingestNop) Reduce(key string, vals []int64) int64 {
	var t int64
	for _, v := range vals {
		t += v
	}
	return t
}
func (ingestNop) Less(a, b string) bool    { return a < b }
func (ingestNop) Combine(a, b int64) int64 { return a + b }

const ingestLanesSize = 4 << 20

// ingestLanesRun is the set-up the benchmark and its gate share: one
// ingestNop job over a fresh stream-capped 3-disk RAID-0 on a virtual
// clock, returning the virtual ReadMap time.
func ingestLanesRun(tb testing.TB, lanes, depth int) time.Duration {
	const memberBW = 128 << 20
	clk := storage.NewFakeClock()
	members := make([]*storage.Disk, 3)
	for j := range members {
		d, err := storage.NewDisk(storage.DiskConfig{
			Name:            fmt.Sprintf("m%d", j),
			Bandwidth:       memberBW,
			StreamBandwidth: memberBW / 3,
		}, clk)
		if err != nil {
			tb.Fatal(err)
		}
		members[j] = d
	}
	raid, err := storage.NewRAID0(members, 64<<10)
	if err != nil {
		tb.Fatal(err)
	}
	// Zero-allocation fill (64-byte 'a' records): the text generator
	// allocates per word, which would drown the ingest machinery's
	// allocation figure the gate bounds.
	f, err := storage.NewFile("in", ingestLanesSize, 0, func(off int64, p []byte) {
		for i := range p {
			if (off+int64(i))%64 == 63 {
				p[i] = '\n'
			} else {
				p[i] = 'a'
			}
		}
	}, raid)
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := RunFile[string, int64](ingestNop{}, f, WordCountContainer(4),
		Config{Runtime: RuntimeSupMR, ChunkBytes: 512 << 10, Clock: clk,
			IOLanes: lanes, PrefetchDepth: depth})
	if err != nil {
		tb.Fatal(err)
	}
	var total int64
	for _, p := range rep.Pairs {
		total += p.Val
	}
	if total != ingestLanesSize {
		tb.Fatalf("mapped %d of %d bytes", total, ingestLanesSize)
	}
	return rep.Times.Get(PhaseReadMap)
}

func BenchmarkIngestLanes(b *testing.B) {
	run := func(b *testing.B, lanes, depth int) {
		b.ReportAllocs()
		b.SetBytes(ingestLanesSize)
		for i := 0; i < b.N; i++ {
			b.ReportMetric(ingestLanesRun(b, lanes, depth).Seconds(), "sim-ingest-s")
		}
	}
	b.Run("Lanes1", func(b *testing.B) { run(b, 1, 1) })
	b.Run("Lanes2", func(b *testing.B) { run(b, 2, 3) })
	b.Run("Lanes4", func(b *testing.B) { run(b, 4, 3) })
}

// TestIngestLanesGate gates the striping claim on the virtual clock:
// 4 IO lanes ingest >= 1.5x as fast as one (1.80x) in bounded allocs (~600).
func TestIngestLanesGate(t *testing.T) {
	serial, wide := ingestLanesRun(t, 1, 1), ingestLanesRun(t, 4, 3)
	if wide <= 0 || float64(serial)/float64(wide) < 1.5 {
		t.Fatalf("4-lane ingest %v vs serial %v: want >= 1.5x", wide, serial)
	}
	if allocs := testing.AllocsPerRun(5, func() { ingestLanesRun(t, 4, 3) }); allocs > 2000 {
		t.Fatalf("4-lane ingest allocates %.0f objs/op (limit 2000)", allocs)
	}
}

// TestLaneRequestsGate gates the request shape on the virtual clock. A
// lane's share of a read goes out as requests of at most 128 KiB, all
// issued before any is waited, so every member disk has a queue to
// serve at its full bandwidth instead of one request at its stream rate.
// FakeClock has no event queue — a sleeping lane can move time past a
// read the pump has yet to issue — so a run only ever loses virtual
// time to goroutine scheduling, and the gate takes the best of ten.
// With one request per lane share, two lanes at depth 2 read 22.1 ms in
// a typical run and never better than 20.1 ms in a hundred; with split
// requests the best run must be at least 20 % under 22.1 ms (it reads
// about 15 ms).
// Four lanes at depth 3, whose shares of 128 KiB plus the carry
// headroom split in two, may not be slower than their former 18.07 ms,
// and the serial single-lane read, one request per read as before,
// stays at exactly 35.16 ms.
func TestLaneRequestsGate(t *testing.T) {
	best := func(lanes, depth int) time.Duration {
		b := ingestLanesRun(t, lanes, depth)
		for i := 1; i < 10; i++ {
			b = min(b, ingestLanesRun(t, lanes, depth))
		}
		return b
	}
	if got, bound := best(2, 2), 22100*time.Microsecond*8/10; got > bound {
		t.Errorf("2 lanes, depth 2: best %v, want <= %v (20 %% under 22.1 ms)", got, bound)
	}
	if got, bound := best(4, 3), 18070*time.Microsecond; got > bound {
		t.Errorf("4 lanes, depth 3: best %v, want <= %v", got, bound)
	}
	if got, want := ingestLanesRun(t, 1, 1), 35156248*time.Nanosecond; got != want {
		t.Errorf("1 lane, depth 1: %v, want exactly %v", got, want)
	}
}

// AblationEnergy: the §VI-C utilization/energy trade-off — small chunks
// raise mean utilization (and power) while cutting wall-clock time.
func BenchmarkAblationEnergy(b *testing.B) {
	const size = 2 << 20
	for _, cfg := range []struct {
		name  string
		chunk int64
	}{
		{"SmallChunks", size / 32},
		{"LargeChunks", size / 2},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clock := NewClock()
				dev, err := NewDisk("sim", 8<<20, 0, clock)
				if err != nil {
					b.Fatal(err)
				}
				f, err := TextFile("wc", size, 7, dev)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := RunFile[string, int64](WordCountJob(), f, WordCountContainer(64),
					Config{Runtime: RuntimeSupMR, ChunkBytes: cfg.chunk, Clock: clock,
						TraceContexts: 4, TraceBucket: 20 * time.Millisecond})
				if err != nil {
					b.Fatal(err)
				}
				e := Energy(rep.Trace, 4)
				b.ReportMetric(e.AvgWatts, "avg-W")
				b.ReportMetric(e.Joules, "J")
			}
		})
	}
}

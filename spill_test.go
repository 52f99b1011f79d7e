package supmr

import (
	"fmt"
	"reflect"
	"testing"

	"supmr/internal/kv"
	"supmr/internal/storage"
	"supmr/internal/workload"
)

// Spill integration tests: the memory-budgeted out-of-core path through
// the public facade. The invariant under test everywhere is that
// spilling is purely a memory/scheduling concern — budgeted output is
// identical to unbudgeted output.

// TestWordCountBudgetedMatchesUnbudgeted runs word count with a memory
// budget far below the intermediate set and checks the output is
// byte-identical to the unbudgeted run: spilling partial combiner state
// and re-reducing it across runs in the external merge must be
// invisible in the result.
func TestWordCountBudgetedMatchesUnbudgeted(t *testing.T) {
	text := genText(t, 128<<10, 11)
	run := func(budget int64) *Report[string, int64] {
		t.Helper()
		rep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), Config{
			Runtime:      RuntimeSupMR,
			Workers:      4,
			ChunkBytes:   16 << 10,
			MemoryBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	base := run(0)
	budgeted := run(8 << 10) // far below the intermediate set

	if budgeted.Stats.SpilledRuns < 1 {
		t.Fatalf("budgeted run spilled %d runs, want >= 1", budgeted.Stats.SpilledRuns)
	}
	if budgeted.Stats.SpilledBytes <= 0 {
		t.Error("budgeted run recorded no spilled bytes")
	}
	if budgeted.Stats.MergeRounds != 1 {
		t.Errorf("budgeted merge took %d rounds, want 1 (external merge is still single-round)", budgeted.Stats.MergeRounds)
	}
	if base.Stats.SpilledRuns != 0 {
		t.Errorf("unbudgeted run spilled %d runs", base.Stats.SpilledRuns)
	}
	if !reflect.DeepEqual(base.Pairs, budgeted.Pairs) {
		t.Fatalf("budgeted output differs from unbudgeted: %d vs %d pairs", len(budgeted.Pairs), len(base.Pairs))
	}
	// The series tracks cumulative bytes and ends at the total.
	if n := len(budgeted.SpillBytes); n != budgeted.Stats.SpilledRuns {
		t.Errorf("spill series has %d points, want one per run (%d)", n, budgeted.Stats.SpilledRuns)
	} else if last := budgeted.SpillBytes[n-1].V; last != budgeted.Stats.SpilledBytes {
		t.Errorf("spill series ends at %d, want %d", last, budgeted.Stats.SpilledBytes)
	}
}

// TestSortBudgetedMatchesUnbudgeted is the unique-key analog: sorted
// runs stream back through the loser tree with every group a singleton,
// so output must match the in-memory path record for record.
func TestSortBudgetedMatchesUnbudgeted(t *testing.T) {
	const records = 5000
	data := make([]byte, records*workload.TeraRecordSize)
	workload.TeraGen{Seed: 7}.Fill()(0, data)

	run := func(budget int64) *Report[string, uint64] {
		t.Helper()
		rep, err := RunBytes[string, uint64](SortJob(), data, SortContainer(), Config{
			Runtime:      RuntimeSupMR,
			Workers:      4,
			ChunkBytes:   64 << 10,
			Boundary:     CRLFRecords,
			MemoryBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	base := run(0)
	budgeted := run(32 << 10)

	if budgeted.Stats.SpilledRuns < 1 {
		t.Fatalf("budgeted sort spilled %d runs, want >= 1", budgeted.Stats.SpilledRuns)
	}
	if budgeted.Stats.MergeRounds != 1 {
		t.Errorf("budgeted sort merge took %d rounds, want 1", budgeted.Stats.MergeRounds)
	}
	less := kv.Less[string](func(a, b string) bool { return a < b })
	if !kv.IsSortedPairs(budgeted.Pairs, less) {
		t.Error("budgeted sort output not sorted")
	}
	if !reflect.DeepEqual(base.Pairs, budgeted.Pairs) {
		t.Fatalf("budgeted sort output differs from unbudgeted: %d vs %d pairs", len(budgeted.Pairs), len(base.Pairs))
	}
}

// TestSpillChargesDeviceAndIOLane points the spill at a simulated disk
// and checks the writes are bandwidth-accounted on it, executed under
// the "spill" task label (the IO lane shows them as IO-wait), and
// timed in the spill phase.
func TestSpillChargesDeviceAndIOLane(t *testing.T) {
	text := genText(t, 128<<10, 13)
	clk := storage.NewFakeClock()
	ingest := storage.NewNullDevice(clk)
	spillDisk, err := storage.NewDisk(storage.DiskConfig{Name: "spill", Bandwidth: 4 << 20}, clk)
	if err != nil {
		t.Fatal(err)
	}
	f := storage.BytesFile("in", text, ingest)
	rep, err := RunFile[string, int64](WordCountJob(), f, WordCountContainer(16), Config{
		Runtime:      RuntimeSupMR,
		Workers:      4,
		ChunkBytes:   16 << 10,
		Clock:        clk,
		MemoryBudget: 8 << 10,
		SpillDevice:  spillDisk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.SpilledRuns < 1 {
		t.Fatalf("spilled %d runs, want >= 1", rep.Stats.SpilledRuns)
	}
	ds := spillDisk.Stats()
	if ds.BytesWritten != rep.Stats.SpilledBytes {
		t.Errorf("device BytesWritten = %d, want spilled bytes %d", ds.BytesWritten, rep.Stats.SpilledBytes)
	}
	// The external merge reads every spilled byte back.
	if ds.BytesRead != rep.Stats.SpilledBytes {
		t.Errorf("device BytesRead = %d, want spilled bytes %d (merge streams every run)", ds.BytesRead, rep.Stats.SpilledBytes)
	}
	spillTasks, ok := rep.Stats.Tasks["spill"]
	if !ok || spillTasks.Tasks == 0 {
		t.Fatalf("no tasks recorded under the spill label: %+v", rep.Stats.Tasks)
	}
	if spillTasks.Busy <= 0 {
		t.Error("spill tasks recorded no busy time")
	}
	// Each run write sleeps on the simulated device, so the series
	// timestamps show simulated time passing as spill bytes accumulate.
	if n := len(rep.SpillBytes); n == 0 {
		t.Error("no spill series points")
	} else if rep.SpillBytes[n-1].T <= 0 {
		t.Errorf("spill series recorded no simulated time: %v", rep.SpillBytes[n-1].T)
	}
}

// TestBudgetConfigValidation covers the facade-level budget rules.
func TestBudgetConfigValidation(t *testing.T) {
	text := genText(t, 8<<10, 1)
	// Budget with the fixed-footprint array container is refused.
	job := HistogramJob()
	data := make([]byte, 8<<10)
	if _, err := RunBytes[int, int64](job, data, job.NewContainer(4), Config{
		Runtime: RuntimeSupMR, ChunkBytes: 2 << 10, MemoryBudget: 1 << 10,
	}); err == nil {
		t.Error("MemoryBudget with the array container accepted")
	}
	// A budget larger than the job's intermediate set never spills and
	// still produces correct output.
	rep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(4), Config{
		Runtime: RuntimeSupMR, ChunkBytes: 2 << 10, MemoryBudget: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.SpilledRuns != 0 {
		t.Errorf("oversized budget still spilled %d runs", rep.Stats.SpilledRuns)
	}
	checkWordCounts(t, rep.Pairs, refWordCount(text))
}

// TestBudgetedDigestIdenticalAcrossWorkers is the differential gate for
// the out-of-core finish: the grouped drain cuts the partitions by the
// worker count and the external merge reads ahead on the IO lanes, so a
// budgeted sort and a budgeted word count must render byte-identically
// to the unbudgeted run at every worker count, with the radix path on
// and off.
func TestBudgetedDigestIdenticalAcrossWorkers(t *testing.T) {
	text := genText(t, 160<<10, 17)
	tera := teraData(6000, 17)
	off := false
	for _, workers := range []int{1, 2, 3, 4} {
		for _, radix := range []*bool{nil, &off} {
			name := fmt.Sprintf("workers%d/radix=%v", workers, radix == nil)
			t.Run("sort/"+name, func(t *testing.T) {
				cfg := Config{Runtime: RuntimeSupMR, Workers: workers, ChunkBytes: 48 << 10, Boundary: CRLFRecords, RadixSort: radix}
				base, err := RunBytes[string, uint64](SortJob(), tera, SortContainer(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.MemoryBudget = 40 << 10
				got, err := RunBytes[string, uint64](SortJob(), tera, SortContainer(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Stats.SpilledRuns < 2 {
					t.Fatalf("spilled %d runs, want several", got.Stats.SpilledRuns)
				}
				if renderPairs(got.Pairs) != renderPairs(base.Pairs) {
					t.Fatalf("budgeted sort differs from unbudgeted: %d vs %d pairs", len(got.Pairs), len(base.Pairs))
				}
				if (got.Stats.RadixRuns > 0) != (radix == nil) {
					t.Errorf("RadixRuns = %d with radix on=%v", got.Stats.RadixRuns, radix == nil)
				}
			})
			t.Run("wordcount/"+name, func(t *testing.T) {
				cfg := Config{Runtime: RuntimeSupMR, Workers: workers, ChunkBytes: 16 << 10, RadixSort: radix}
				base, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.MemoryBudget = 8 << 10
				got, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Stats.SpilledRuns < 2 {
					t.Fatalf("spilled %d runs, want several", got.Stats.SpilledRuns)
				}
				if renderPairs(got.Pairs) != renderPairs(base.Pairs) {
					t.Fatalf("budgeted word count differs from unbudgeted: %d vs %d pairs", len(got.Pairs), len(base.Pairs))
				}
			})
		}
	}
}

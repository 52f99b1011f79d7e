package supmr

// The traditional runtime (Table II's "none" row) is the n = 1 case of
// the ingest chunk pipeline: one whole-input chunk, one map wave, then
// reduce and the pairwise merge. Every speedup ratio divides by it, so
// its report is pinned here to the values the separate baseline loop
// (mapreduce.Run, deleted in PR 25) produced on these inputs.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"supmr/internal/kv"
	"supmr/internal/metrics"
	"supmr/internal/storage"
)

// tradPin is what a traditional run must report: the output digest and
// the structural counters that do not depend on timing.
type tradPin struct {
	Digest                                                                     string
	BytesIngested                                                              int64
	MapWaves, Splits, IntermediateN, Runs, MergeRounds, RadixRuns, OutputPairs int
}

type tradOut struct {
	pin       tradPin
	faults    metrics.FaultStats
	times     metrics.PhaseTimes
	laneBytes []int64
}

func tradOutOf[K comparable, V any](t *testing.T, rep *Report[K, V], err error) tradOut {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	kv.WriteText(h, rep.Pairs)
	s := rep.Stats
	return tradOut{
		pin: tradPin{hex.EncodeToString(h.Sum(nil)), s.BytesIngested,
			s.MapWaves, s.Splits, s.IntermediateN, s.Runs, s.MergeRounds, s.RadixRuns, s.OutputPairs},
		faults:    s.Faults,
		times:     rep.Times,
		laneBytes: s.IngestLaneBytes,
	}
}

// tradApps are the pinned workloads, each a closure over fixed-seed
// input. ChunkBytes is set so the runtime, not the config, is what makes
// the ingest whole-input.
func tradApps(t *testing.T) map[string]func(Config) tradOut {
	t.Helper()
	text, tera := genText(t, 128<<10, 83), teraData(8000, 89)
	docs := make([][]byte, 4)
	for i := range docs {
		docs[i] = genText(t, 16<<10, int64(90+i))
	}
	return map[string]func(Config) tradOut{
		"wordcount": func(c Config) tradOut {
			c.ChunkBytes = 16 << 10
			rep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), c)
			return tradOutOf(t, rep, err)
		},
		"sort": func(c Config) tradOut {
			c.ChunkBytes, c.Boundary = 20<<10, CRLFRecords
			rep, err := RunBytes[string, uint64](SortJob(), tera, SortContainer(), c)
			return tradOutOf(t, rep, err)
		},
		"histogram": func(c Config) tradOut {
			c.ChunkBytes = 16 << 10
			rep, err := RunBytes[int, int64](HistogramJob(), text, HistogramJob().NewContainer(8), c)
			return tradOutOf(t, rep, err)
		},
		"invindex": func(c Config) tradOut {
			c.FilesPerChunk = 2
			files := make([]Input, len(docs))
			for i, d := range docs {
				files[i] = MemoryFile(fmt.Sprintf("doc%d", i), d, c.clock())
			}
			job := InvertedIndexJob() // fresh per run: set_data state
			rep, err := RunFiles[string, []string](job, files, job.NewContainer(16), c)
			return tradOutOf(t, rep, err)
		},
	}
}

// TestTraditionalReportPinned: under every mode the traditional runtime
// accepts — solo, on a shared engine, with four IO lanes, and with
// injected read faults absorbed by retries — each app's digest and
// counters equal the pins, the faulted run's fault counters equal
// theirs, Times keeps separate read and map cells (no fused read+map:
// one chunk has nothing to overlap), and the read stays on one IO lane
// (no per-lane bytes), four lanes configured or not.
func TestTraditionalReportPinned(t *testing.T) {
	want := map[string]tradPin{
		"wordcount": {"23064ad0888a664ad71bab380924f51ba903ff2485420bc66f2f56ed050bd076", 131072, 1, 16, 3860, 16, 4, 16, 3860},
		"sort":      {"02e46cb1a88175c023e3553c223897adba8597e1b07824061a2240877e48c69a", 800000, 1, 16, 8000, 64, 6, 64, 8000},
		"histogram": {"350f1ab5112dc84b5f63f22a1cde561010841427255061716460c2bdb5d43459", 131072, 1, 16, 17, 3, 2, 0, 17},
		"invindex":  {"1c84cdf8cec62b9f70a5a624395ebff874063aa44236c7fd7dcc06ec2a7ed5fa", 65536, 1, 16, 2349, 16, 4, 16, 2349},
	}
	// Two injected read errors on the first read, both retried; the read
	// recovers on its third attempt.
	wantFaults := metrics.FaultStats{Injected: 2, Transient: 2, Retried: 2, Recovered: 1}
	modes := map[string]func(c Config) (Config, func()){
		"solo": func(c Config) (Config, func()) { return c, func() {} },
		"engine": func(c Config) (Config, func()) {
			c.Engine = NewEngine(EngineConfig{Workers: 4, IOLanes: 2})
			return c, c.Engine.Close
		},
		"lanes4": func(c Config) (Config, func()) {
			c.IOLanes = 4
			return c, func() {}
		},
		"faulted": func(c Config) (Config, func()) {
			c.Clock = storage.NewRealClock()
			c.Faults = NewFaultInjector(FaultPlan{Seed: 3, ReadErrEvery: 1, MaxFaults: 2}, c.Clock)
			c.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}
			return c, func() {}
		},
	}
	for app, run := range tradApps(t) {
		for mode, setup := range modes {
			t.Run(app+"/"+mode, func(t *testing.T) {
				c, done := setup(Config{Runtime: RuntimeTraditional, Workers: 4})
				defer done()
				out := run(c)
				if out.pin != want[app] {
					t.Errorf("report %#v, pinned %#v", out.pin, want[app])
				}
				var wf metrics.FaultStats
				if mode == "faulted" {
					wf = wantFaults
				}
				if out.faults != wf {
					t.Errorf("fault counters %#v, pinned %#v", out.faults, wf)
				}
				for _, p := range []metrics.Phase{metrics.PhaseRead, metrics.PhaseMap, metrics.PhaseReduce, metrics.PhaseRunSort, metrics.PhaseMerge} {
					if out.times.Get(p) <= 0 {
						t.Errorf("phase %v not recorded: %v", p, out.times)
					}
				}
				if d := out.times.Get(metrics.PhaseReadMap); d != 0 {
					t.Errorf("fused read+map = %v; one chunk has nothing to overlap", d)
				}
				if out.laneBytes != nil {
					t.Errorf("IngestLaneBytes = %v: the preset's read fanned out over IO lanes", out.laneBytes)
				}
			})
		}
	}
}

// TestEmptyInputRunsNoMapWave: an empty input has no chunk, so no run
// maps anything — the traditional preset's whole-input read included —
// and every runtime reports the same empty output.
func TestEmptyInputRunsNoMapWave(t *testing.T) {
	var digests []string
	for _, c := range []Config{{Runtime: RuntimeTraditional}, {Runtime: RuntimeSupMR}, {Runtime: RuntimeSupMR, ChunkBytes: 4 << 10}} {
		rep, err := RunBytes[string, int64](WordCountJob(), nil, WordCountContainer(4), c)
		out := tradOutOf(t, rep, err)
		if out.pin.MapWaves != 0 || out.pin.BytesIngested != 0 {
			t.Errorf("%v runtime, ChunkBytes %d: %d map waves over %d bytes, want none",
				c.Runtime, c.ChunkBytes, out.pin.MapWaves, out.pin.BytesIngested)
		}
		digests = append(digests, out.pin.Digest)
	}
	if digests[0] != digests[1] || digests[1] != digests[2] {
		t.Errorf("digests differ across runtimes: %q", digests)
	}
}

package mapreduce

import (
	"testing"

	"supmr/internal/container"
	"supmr/internal/kv"
	"supmr/internal/workload"
)

// The job-level tests of the traditional runtime live in internal/core:
// the baseline is core.Run over one whole-input chunk.

// wcApp is a local word count app (the apps package imports this
// package, so tests define their own).
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

func genText(t *testing.T, n int64) []byte {
	t.Helper()
	buf := make([]byte, n)
	workload.TextGen{Seed: 21}.Fill()(0, buf)
	return buf
}

func TestMapWaveSplitCount(t *testing.T) {
	text := genText(t, 32<<10)
	wc := wcApp{}
	cont := wc.NewContainer(8)
	n, err := MapWave[string, int64](wc, text, cont, Options{Workers: 2, Splits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 || n > 8 {
		t.Errorf("map wave produced %d splits, want 2..8", n)
	}
	if cont.Len() == 0 {
		t.Error("container empty after map wave")
	}
}

func TestReducePhaseDropsEmptyPartitions(t *testing.T) {
	wc := wcApp{}
	cont := wc.NewContainer(64) // 64 shards, but only 2 keys
	l := cont.NewLocal()
	l.Emit("a", 1)
	l.Emit("b", 1)
	l.Flush()
	runs, err := ReducePhase[string, int64](wc, cont, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		if len(r) == 0 {
			t.Errorf("run %d empty — empty partitions should be dropped", i)
		}
	}
}

func TestMergePhaseRounds(t *testing.T) {
	wc := wcApp{}
	runs := [][]kv.Pair[string, int64]{
		{{Key: "c", Val: 1}, {Key: "a", Val: 1}},
		{{Key: "b", Val: 1}},
		{{Key: "e", Val: 1}, {Key: "d", Val: 1}},
		{{Key: "f", Val: 1}},
	}
	merged, rounds, _, err := MergePhase[string, int64](wc, runs, nil, Options{Workers: 2, Merge: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 2 {
		t.Errorf("pairwise rounds = %d, want 2 for 4 runs", rounds)
	}
	if len(merged) != 6 || !kv.IsSortedPairs(merged, wc.Less) {
		t.Errorf("merged = %v", merged)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Workers <= 0 || o.Splits != 4*o.Workers || o.Boundary == nil {
		t.Errorf("defaults = %+v", o)
	}
}

var _ container.Container[string, int64] = (*container.Hash[string, int64])(nil)

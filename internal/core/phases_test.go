package core

import (
	"testing"

	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/sortalgo"
)

func TestMapWaveSplitCount(t *testing.T) {
	text := genText(t, 32<<10)
	wc := wcApp{}
	cont := wc.NewContainer(8)
	pool := exec.NewLocal(2)
	defer pool.Close()
	n, err := MapWave[string, int64](wc, text, cont, Options{Pool: pool, Splits: 8})
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
	pool := exec.NewLocal(2)
	defer pool.Close()
	runs, err := ReducePhase[string, int64](wc, cont, Options{Pool: pool})
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
	pool := exec.NewLocal(2)
	defer pool.Close()
	opts := Options{Pool: pool, Merge: sortalgo.MergePairwise}
	var st Stats
	merged, err := mergePhase[string, int64](wc, runs, nil, opts, &st)
	if err != nil {
		t.Fatal(err)
	}
	if st.MergeRounds != 2 {
		t.Errorf("pairwise rounds = %d, want 2 for 4 runs", st.MergeRounds)
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

package sortalgo

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"supmr/internal/exec"
	"supmr/internal/kv"
)

func intLess(a, b int) bool { return a < b }

func sumReduce(_ int, vs []int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}

func TestMergeSourcesEmpty(t *testing.T) {
	out, err := MergeSources[int, int64](nil, intLess, sumReduce, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("MergeSources(nil) = %v, %v", out, err)
	}
}

func TestMergeSourcesSingleRun(t *testing.T) {
	run := []kv.Pair[int, int64]{{Key: 1, Val: 10}, {Key: 3, Val: 30}, {Key: 9, Val: 90}}
	out, err := MergeSources([]Source[int, int64]{NewSliceSource(run)}, intLess, sumReduce, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0].Key != 1 || out[2].Val != 90 {
		t.Fatalf("single-run merge = %v", out)
	}
}

func TestMergeSourcesGroupsAcrossRuns(t *testing.T) {
	// The same key appears in multiple runs (partial combiner state from
	// different spills): values must be grouped and reduced once.
	a := []kv.Pair[int, int64]{{Key: 1, Val: 1}, {Key: 2, Val: 2}, {Key: 5, Val: 5}}
	b := []kv.Pair[int, int64]{{Key: 2, Val: 20}, {Key: 5, Val: 50}}
	c := []kv.Pair[int, int64]{{Key: 5, Val: 500}, {Key: 7, Val: 7}}
	out, err := MergeSources([]Source[int, int64]{
		NewSliceSource(a), NewSliceSource(b), NewSliceSource(c),
	}, intLess, sumReduce, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []kv.Pair[int, int64]{{Key: 1, Val: 1}, {Key: 2, Val: 22}, {Key: 5, Val: 555}, {Key: 7, Val: 7}}
	if fmt.Sprint(out) != fmt.Sprint(want) {
		t.Fatalf("merge = %v, want %v", out, want)
	}
}

func TestMergeSourcesSingletonGroupsNotReduced(t *testing.T) {
	// reduce panics when invoked: unique keys must pass through without
	// re-reduction, matching the in-memory merge path.
	boom := func(int, []int64) int64 { panic("reduce called for singleton group") }
	a := []kv.Pair[int, int64]{{Key: 1, Val: 1}, {Key: 3, Val: 3}}
	b := []kv.Pair[int, int64]{{Key: 2, Val: 2}, {Key: 4, Val: 4}}
	out, err := MergeSources([]Source[int, int64]{NewSliceSource(a), NewSliceSource(b)}, intLess, boom, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("merged %d pairs, want 4", len(out))
	}
}

func TestMergeSourcesMatchesPWayOnUniqueKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(5000)
	var runs [][]kv.Pair[int, int64]
	for start := 0; start < len(perm); start += 500 {
		run := make([]kv.Pair[int, int64], 0, 500)
		for _, k := range perm[start : start+500] {
			run = append(run, kv.Pair[int, int64]{Key: k, Val: int64(k) * 3})
		}
		sort.Slice(run, func(i, j int) bool { return run[i].Key < run[j].Key })
		runs = append(runs, run)
	}

	srcs := make([]Source[int, int64], len(runs))
	for i, r := range runs {
		srcs[i] = NewSliceSource(r)
	}
	streamed, err := MergeSources(srcs, intLess, sumReduce, nil)
	if err != nil {
		t.Fatal(err)
	}

	ex := exec.NewLocal(4)
	defer ex.Close()
	inMem, err := PWayMergeWith(runs, intLess, nil, ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(inMem) {
		t.Fatalf("streamed %d pairs, in-memory %d", len(streamed), len(inMem))
	}
	for i := range streamed {
		if streamed[i] != inMem[i] {
			t.Fatalf("pair %d: streamed %v, in-memory %v", i, streamed[i], inMem[i])
		}
	}
}

type failingSource struct{ after int }

func (f *failingSource) Next() (kv.Pair[int, int64], bool, error) {
	if f.after <= 0 {
		return kv.Pair[int, int64]{}, false, errors.New("run file corrupted")
	}
	f.after--
	return kv.Pair[int, int64]{Key: 100 - f.after, Val: 1}, true, nil
}

func (f *failingSource) NextBlock(dst []kv.Pair[int, int64]) (int, error) {
	for i := range dst {
		p, _, err := f.Next()
		if err != nil {
			return i, err
		}
		dst[i] = p
	}
	return len(dst), nil
}

func TestMergeSourcesPropagatesError(t *testing.T) {
	srcs := []Source[int, int64]{
		NewSliceSource([]kv.Pair[int, int64]{{Key: 1, Val: 1}}),
		&failingSource{after: 2},
	}
	if _, err := MergeSources(srcs, intLess, sumReduce, nil); err == nil {
		t.Fatal("error from a source was swallowed")
	}
}

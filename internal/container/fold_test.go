package container

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"supmr/internal/kv"
	"supmr/internal/sortalgo"
)

// The memo fold (internal/core) re-emits per-chunk reduced runs into a
// container through one run Local per piece, and the shuffle's receive
// through one Local per delivery, and then finishes like an unmemoized
// job. These tests pin the two Container/Local contract
// sentences it relies on, for every container kind.

func sumVals[K any](_ K, vs []int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}

// reducedRuns builds n key-sorted runs of unique keys drawn from the
// first vocab keys — so runs overlap heavily unless disjoint, in which
// case run r holds only keys ≡ r mod n (the unique-key contract of the
// key-range container).
func reducedRuns[K comparable](n, vocab int, key func(int) K, less kv.Less[K], disjoint bool, rng *rand.Rand) [][]kv.Pair[K, int64] {
	runs := make([][]kv.Pair[K, int64], n)
	for r := range runs {
		for i := 0; i < vocab; i++ {
			if disjoint && i%n != r || !disjoint && rng.Intn(3) == 0 {
				continue
			}
			runs[r] = append(runs[r], kv.Pair[K, int64]{Key: key(i), Val: rng.Int63n(1000) - 200})
		}
		kv.SortPairs(runs[r], less)
	}
	return runs
}

// reduceSorted reduces every partition and sorts the result.
func reduceSorted[K comparable](c Container[K, int64], less kv.Less[K]) []kv.Pair[K, int64] {
	var out []kv.Pair[K, int64]
	for p := 0; p < c.Partitions(); p++ {
		out = c.Reduce(p, sumVals[K], out)
	}
	kv.SortPairs(out, less)
	return out
}

func samePairs[K comparable](t *testing.T, what string, got, want []kv.Pair[K, int64]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func checkFoldContract[K comparable](t *testing.T, c Container[K, int64], key func(int) K, less kv.Less[K], disjoint bool) {
	const workers, nRuns, vocab = 4, 13, 300
	rng := rand.New(rand.NewSource(71))
	runs := reducedRuns(nRuns, vocab, key, less, disjoint, rng)
	want := mergeRuns(t, runs, less)

	// Sentence one: re-emitting reduced runs through concurrent Locals,
	// then Reduce + sort, equals the re-reducing merge of the same runs.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := c.NewLocal()
			for i := w; i < len(runs); i += workers {
				for _, p := range runs[i] {
					l.Emit(p.Key, p.Val)
				}
			}
			l.Flush()
		}(w)
	}
	wg.Wait()
	samePairs(t, "fold of reduced runs", reduceSorted(c, less), want)
	if got := c.Len(); got != len(want) {
		t.Errorf("Len after the fold = %d, want %d distinct keys", got, len(want))
	}

	// The same through NewRunLocal, one Local per run: a reduced run's
	// keys are unique, and a run Local may route them without combining.
	c.Reset()
	wg = sync.WaitGroup{}
	for i := range runs {
		wg.Add(1)
		go func(run []kv.Pair[K, int64]) {
			defer wg.Done()
			l := c.NewRunLocal()
			for _, p := range run {
				l.Emit(p.Key, p.Val)
			}
			l.Flush()
		}(runs[i])
	}
	wg.Wait()
	samePairs(t, "fold of reduced runs through run Locals", reduceSorted(c, less), want)

	// Sentence two: Reset empties the container and leaves a Local that
	// has not flushed yet untouched; its pairs land on its own Flush.
	held := c.NewLocal()
	for _, p := range runs[0] {
		held.Emit(p.Key, p.Val)
	}
	c.Reset()
	if n := c.Len(); n != 0 {
		t.Fatalf("Len after Reset = %d", n)
	}
	held.Flush()
	samePairs(t, "Local flushed after Reset", reduceSorted(c, less), mergeRuns(t, runs[:1], less))
}

// mergeRuns is the re-reducing streaming merge of runs, one slice
// source each.
func mergeRuns[K comparable](t *testing.T, runs [][]kv.Pair[K, int64], less kv.Less[K]) []kv.Pair[K, int64] {
	t.Helper()
	var srcs []sortalgo.Source[K, int64]
	for _, r := range runs {
		srcs = append(srcs, sortalgo.NewSliceSource(r))
	}
	out, err := sortalgo.MergeSources(srcs, less, sumVals[K], nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFoldContract(t *testing.T) {
	word := func(i int) string { return fmt.Sprintf("w%04d", i*7919%10007) }
	lessStr := func(a, b string) bool { return a < b }
	lessInt := func(a, b int) bool { return a < b }
	sum := func(a, b int64) int64 { return a + b }
	t.Run("flat", func(t *testing.T) {
		checkFoldContract[string](t, NewFlatHash[int64](8, sum), word, lessStr, false)
	})
	t.Run("hash-combiner", func(t *testing.T) {
		checkFoldContract[string](t, NewHash[string, int64](8, StringHasher, sum), word, lessStr, false)
	})
	t.Run("hash-list", func(t *testing.T) {
		checkFoldContract[string](t, NewHash[string, int64](8, StringHasher, nil), word, lessStr, false)
	})
	t.Run("array", func(t *testing.T) {
		checkFoldContract[int](t, NewArray[int64](300, 4, sum), func(i int) int { return i }, lessInt, false)
	})
	t.Run("keyrange", func(t *testing.T) {
		// Unique keys by contract: the runs are disjoint.
		checkFoldContract[string](t, NewKeyRange[string, int64](16), word, lessStr, true)
	})
}

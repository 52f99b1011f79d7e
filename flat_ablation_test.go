package supmr

// The -flatcombiner ablation contract: the flat combining container and
// the bytes fast path are pure hot-path optimizations, so a SupMR run
// with them produces byte-identical output to the map-backed combiner
// over the same input. Multi-chunk runs exercise persistent pooled
// locals across rounds.

import (
	"testing"

	"supmr/internal/workload"
)

func ablationText(t *testing.T, size int) []byte {
	t.Helper()
	text := make([]byte, size)
	workload.TextGen{Seed: 11}.Fill()(0, text)
	return text
}

func samePairs[V comparable](t *testing.T, label string, flat, mapped []Pair[string, V]) {
	t.Helper()
	if len(flat) != len(mapped) {
		t.Fatalf("%s: flat produced %d pairs, map %d", label, len(flat), len(mapped))
	}
	for i := range flat {
		if flat[i].Key != mapped[i].Key || flat[i].Val != mapped[i].Val {
			t.Fatalf("%s: pair %d differs: flat %+v, map %+v", label, i, flat[i], mapped[i])
		}
	}
}

func TestFlatCombinerAblationWordCount(t *testing.T) {
	text := ablationText(t, 256<<10)
	cfg := Config{Runtime: RuntimeSupMR, ChunkBytes: 32 << 10}
	flat, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := RunBytes[string, int64](WordCountJob(), text, WordCountMapContainer(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.Pairs) == 0 {
		t.Fatal("no output")
	}
	samePairs(t, "wordcount", flat.Pairs, mapped.Pairs)
	if flat.Stats.MapWaves < 2 {
		t.Fatalf("want a multi-chunk run, got %d waves", flat.Stats.MapWaves)
	}
}

func TestFlatCombinerAblationGrep(t *testing.T) {
	text := ablationText(t, 256<<10)
	job := GrepJob("ba", "zo", "pattern-found-nowhere")
	cfg := Config{Runtime: RuntimeSupMR, ChunkBytes: 32 << 10}
	flat, err := RunBytes[string, int64](job, text, job.NewContainer(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := RunBytes[string, int64](job, text, job.NewMapContainer(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.Pairs) == 0 {
		t.Fatal("no matches")
	}
	samePairs(t, "grep", flat.Pairs, mapped.Pairs)
}

// Inverted index has no flat path (it retains values, no combiner); the
// allocation-disciplined seen-map in its Map must not change output.
// Two identical runs must agree exactly.
func TestInvertedIndexDeterministicOutput(t *testing.T) {
	text := ablationText(t, 64<<10)
	cfg := Config{Runtime: RuntimeSupMR, ChunkBytes: 16 << 10}
	run := func() []Pair[string, []string] {
		job := InvertedIndexJob()
		rep, err := RunBytes[string, []string](job, text, job.NewContainer(16), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Pairs
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no output")
	}
	if len(a) != len(b) {
		t.Fatalf("runs disagree on size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || len(a[i].Val) != len(b[i].Val) {
			t.Fatalf("pair %d differs: %+v vs %+v", i, a[i], b[i])
		}
		for j := range a[i].Val {
			if a[i].Val[j] != b[i].Val[j] {
				t.Fatalf("pair %d posting %d differs: %q vs %q", i, j, a[i].Val[j], b[i].Val[j])
			}
		}
	}
}

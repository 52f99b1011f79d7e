// Package apps implements the benchmark applications of the evaluation:
// word count and sort (the paper's two target applications, chosen
// because they sit at opposite ends of the application space), plus a
// histogram app for the array container, an inverted index app for the
// no-combiner hash path, and the OpenMP-analog sort used as the thread
// library baseline of Fig. 3.
package apps

import (
	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/kv"
	"supmr/internal/workload"
)

// WordCount counts word occurrences. Its map phase is comparatively
// expensive (tokenizing, hashing, checking the container before
// insertion), which is precisely why the ingest chunk pipeline helps it
// most: a longer map phase gives the pipeline more computation to
// overlap with ingest (§VI-B).
type WordCount struct{}

var _ kv.App[string, int64] = WordCount{}
var _ kv.Combiner[int64] = WordCount{}
var _ kv.BytesApp[int64] = WordCount{}

// Map tokenizes the split and emits (word, 1) pairs.
func (WordCount) Map(split []byte, emit kv.Emitter[string, int64]) {
	workload.Tokenize(split, func(w []byte) {
		emit.Emit(string(w), 1)
	})
}

// MapBytes is the zero-allocation twin of Map. A local that cuts words
// itself (the flat container's) takes the whole split: it scans, hashes
// and folds in one pass. Any other byte emitter gets the tokenizer's
// []byte views of the split, with no per-word string materialization.
func (WordCount) MapBytes(split []byte, emit kv.BytesEmitter[int64]) {
	if we, ok := emit.(kv.WordEmitter[int64]); ok {
		we.EmitWords(split, 1)
		return
	}
	workload.Tokenize(split, func(w []byte) {
		emit.EmitBytes(w, 1)
	})
}

// Reduce sums the counts for one word.
func (WordCount) Reduce(_ string, vs []int64) int64 {
	var sum int64
	for _, v := range vs {
		sum += v
	}
	return sum
}

// Combine folds two partial counts (the hash container applies this
// eagerly in worker-local maps).
func (WordCount) Combine(a, b int64) int64 { return a + b }

// Less orders words lexicographically.
func (WordCount) Less(a, b string) bool { return a < b }

// FixedKey opts into the fixed-key sort fast path (scatter finish,
// radix run sort, prefix-head merge) through the strings' 8-byte order
// prefix; Less orders the keys that share one.
func (WordCount) FixedKey() kv.FixedKeyCodec[string] { return kv.StringPrefixKey() }

// Boundary returns the record boundary for text input: newline.
func (WordCount) Boundary() chunk.Boundary { return chunk.NewlineBoundary{} }

// NewContainer returns the container §V-B prescribes for word count: the
// flat combining container (open addressing over arena-interned keys),
// which shrinks the huge input set to a vocabulary-sized intermediate
// set without per-word allocation on the map hot path.
func (w WordCount) NewContainer(shards int) container.Container[string, int64] {
	return container.NewFlatHash[int64](shards, w.Combine)
}

// NewMapContainer returns the previous map-backed combining container,
// kept for the -flatcombiner=off ablation and differential tests.
func (w WordCount) NewMapContainer(shards int) container.Container[string, int64] {
	return container.NewHash[string, int64](shards, container.StringHasher, w.Combine)
}

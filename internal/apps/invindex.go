package apps

import (
	"sort"

	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/kv"
	"supmr/internal/workload"
)

// InvertedIndex maps every word to the list of files containing it — the
// custom-application example for the public API and the exerciser of the
// hash container's no-combiner path (value lists are retained per key and
// merged in reduce, not folded at insert time).
//
// It implements core.ChunkAware (the set_data() callback of Table I): the
// runtime tells it which files the current ingest chunk coalesces, and
// Map attributes words to those files.
type InvertedIndex struct {
	// current chunk's file names; set by SetData before each map wave.
	files []string
}

var _ kv.App[string, []string] = (*InvertedIndex)(nil)

// SetData records the ingest chunk about to be mapped (set_data()).
func (ix *InvertedIndex) SetData(c *chunk.Chunk) { ix.files = c.Files }

// Map emits (word, files-of-current-chunk) postings.
func (ix *InvertedIndex) Map(split []byte, emit kv.Emitter[string, []string]) {
	files := ix.files
	if len(files) == 0 {
		files = []string{"<input>"}
	}
	seen := make(map[string]bool)
	workload.Tokenize(split, func(w []byte) {
		// Allocation-free lookup (the compiler elides the conversion);
		// a string is materialized only the first time a word appears
		// in this split.
		if seen[string(w)] {
			return
		}
		word := string(w)
		seen[word] = true
		emit.Emit(word, files)
	})
}

// Reduce merges posting lists, deduplicating and sorting file names.
func (ix *InvertedIndex) Reduce(_ string, vs [][]string) []string {
	set := make(map[string]bool)
	for _, files := range vs {
		for _, f := range files {
			set[f] = true
		}
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Less orders words lexicographically.
func (ix *InvertedIndex) Less(a, b string) bool { return a < b }

// FixedKey opts into the fixed-key sort fast path (scatter finish,
// radix run sort, prefix-head merge) through the strings' 8-byte order
// prefix; Less orders the keys that share one.
func (ix *InvertedIndex) FixedKey() kv.FixedKeyCodec[string] { return kv.StringPrefixKey() }

// Boundary returns newline for text input.
func (ix *InvertedIndex) Boundary() chunk.Boundary { return chunk.NewlineBoundary{} }

// NewContainer returns a hash container retaining all values per key
// (no combiner): posting-list merging happens in Reduce.
func (ix *InvertedIndex) NewContainer(shards int) container.Container[string, []string] {
	return container.NewHash[string, []string](shards, container.StringHasher, nil)
}

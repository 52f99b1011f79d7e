package apps

import (
	"bytes"

	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/kv"
)

// Grep is the Phoenix string-match benchmark: find lines containing a
// fixed pattern and count matches per pattern. Like word count it
// shrinks the input enormously (matches only), but its map phase is a
// pure scan — cheaper than tokenizing — so it sits between word count
// and sort on the map-intensity spectrum the paper's Conclusion 1 draws.
type Grep struct {
	// Patterns are the fixed strings to search for.
	Patterns []string
}

var _ kv.App[string, int64] = Grep{}
var _ kv.Combiner[int64] = Grep{}
var _ kv.BytesApp[int64] = Grep{}

// Map scans each line for each pattern, emitting (pattern, 1) per
// matching line.
func (g Grep) Map(split []byte, emit kv.Emitter[string, int64]) {
	pats := make([][]byte, len(g.Patterns))
	for i, p := range g.Patterns {
		pats[i] = []byte(p)
	}
	for len(split) > 0 {
		nl := bytes.IndexByte(split, '\n')
		var line []byte
		if nl < 0 {
			line, split = split, nil
		} else {
			line, split = split[:nl], split[nl+1:]
		}
		for i, p := range pats {
			if bytes.Contains(line, p) {
				emit.Emit(g.Patterns[i], 1)
			}
		}
	}
}

// MapBytes is the zero-allocation twin of Map: pattern keys are emitted
// as []byte, so matches avoid string handling entirely on the hot path.
func (g Grep) MapBytes(split []byte, emit kv.BytesEmitter[int64]) {
	pats := make([][]byte, len(g.Patterns))
	for i, p := range g.Patterns {
		pats[i] = []byte(p)
	}
	for len(split) > 0 {
		nl := bytes.IndexByte(split, '\n')
		var line []byte
		if nl < 0 {
			line, split = split, nil
		} else {
			line, split = split[:nl], split[nl+1:]
		}
		for _, p := range pats {
			if bytes.Contains(line, p) {
				emit.EmitBytes(p, 1)
			}
		}
	}
}

// Reduce sums match counts per pattern.
func (Grep) Reduce(_ string, vs []int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}

// Combine folds partial counts.
func (Grep) Combine(a, b int64) int64 { return a + b }

// Less orders patterns lexicographically.
func (Grep) Less(a, b string) bool { return a < b }

// FixedKey opts into the fixed-key sort fast path (scatter finish,
// radix run sort, prefix-head merge) through the strings' 8-byte order
// prefix; Less orders the keys that share one.
func (Grep) FixedKey() kv.FixedKeyCodec[string] { return kv.StringPrefixKey() }

// Boundary returns the newline record boundary.
func (Grep) Boundary() chunk.Boundary { return chunk.NewlineBoundary{} }

// NewContainer returns a small flat combining container (a handful of
// patterns).
func (g Grep) NewContainer() container.Container[string, int64] {
	return container.NewFlatHash[int64](8, g.Combine)
}

// NewMapContainer returns the previous map-backed combining container,
// kept for the -flatcombiner=off ablation and differential tests.
func (g Grep) NewMapContainer() container.Container[string, int64] {
	return container.NewHash[string, int64](8, container.StringHasher, g.Combine)
}

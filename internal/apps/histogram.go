package apps

import (
	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/kv"
)

// Histogram counts byte-value frequencies over the raw input — the
// classic Phoenix benchmark for the array container: the key universe is
// tiny (256), dense, and known in advance, so a flat array beats any
// hash table.
type Histogram struct{}

var _ kv.App[int, int64] = Histogram{}
var _ kv.Combiner[int64] = Histogram{}

// Map emits (byteValue, 1) for every input byte.
func (Histogram) Map(split []byte, emit kv.Emitter[int, int64]) {
	// Count locally in a stack array first; emitting 1 per byte would
	// swamp any container. This mirrors Phoenix++ combiner objects.
	var counts [256]int64
	for _, b := range split {
		counts[b]++
	}
	for v, c := range counts {
		if c > 0 {
			emit.Emit(v, c)
		}
	}
}

// Reduce sums partial counts.
func (Histogram) Reduce(_ int, vs []int64) int64 {
	var sum int64
	for _, v := range vs {
		sum += v
	}
	return sum
}

// Combine folds two partial counts.
func (Histogram) Combine(a, b int64) int64 { return a + b }

// Less orders byte values numerically.
func (Histogram) Less(a, b int) bool { return a < b }

// FixedKey opts into the fixed-key sort fast path (scatter finish,
// radix run sort, prefix-head merge): bucket ids are ints, 8 big-endian
// sign-flipped bytes.
func (Histogram) FixedKey() kv.FixedKeyCodec[int] { return kv.IntFixedKey() }

// Boundary: any cut point is valid for per-byte work, but use newline so
// chunk splitting remains well-formed for text inputs.
func (Histogram) Boundary() chunk.Boundary { return chunk.NewlineBoundary{} }

// NewContainer returns the array container over the byte universe.
func (h Histogram) NewContainer(stripes int) container.Container[int, int64] {
	return container.NewArray[int64](256, stripes, h.Combine)
}

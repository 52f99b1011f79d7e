package apps

import (
	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/kv"
)

// LinearRegression is the Phoenix linear-regression benchmark: fit
// y = a·x + b over a stream of (x, y) points by accumulating the five
// sufficient statistics (Σx, Σy, Σxx, Σyy, Σxy) plus the count. The key
// universe is exactly six dense integer cells — the textbook case for
// the array container.
type LinearRegression struct{}

// Statistic cell indices (the array container's key universe).
const (
	StatN = iota
	StatSumX
	StatSumY
	StatSumXX
	StatSumYY
	StatSumXY
	numStats
)

var _ kv.App[int, float64] = LinearRegression{}
var _ kv.Combiner[float64] = LinearRegression{}

// Map parses points — each input record is two little-endian-ish byte
// pairs per Phoenix convention: consecutive (x, y) bytes — and folds
// them into local sums before emitting once per split.
func (LinearRegression) Map(split []byte, emit kv.Emitter[int, float64]) {
	var n, sx, sy, sxx, syy, sxy float64
	for i := 0; i+1 < len(split); i += 2 {
		x := float64(split[i])
		y := float64(split[i+1])
		n++
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	if n == 0 {
		return
	}
	emit.Emit(StatN, n)
	emit.Emit(StatSumX, sx)
	emit.Emit(StatSumY, sy)
	emit.Emit(StatSumXX, sxx)
	emit.Emit(StatSumYY, syy)
	emit.Emit(StatSumXY, sxy)
}

// Reduce sums partial statistics.
func (LinearRegression) Reduce(_ int, vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

// Combine folds partial statistics.
func (LinearRegression) Combine(a, b float64) float64 { return a + b }

// Less orders statistic cells by index.
func (LinearRegression) Less(a, b int) bool { return a < b }

// FixedKey opts into the fixed-key sort fast path (scatter finish,
// radix run sort, prefix-head merge): coefficient ids are ints, 8
// big-endian sign-flipped bytes.
func (LinearRegression) FixedKey() kv.FixedKeyCodec[int] { return kv.IntFixedKey() }

// Boundary: points are 2-byte records.
func (LinearRegression) Boundary() chunk.Boundary { return chunk.FixedBoundary{Width: 2} }

// NewContainer returns the array container over the six cells.
func (l LinearRegression) NewContainer() container.Container[int, float64] {
	return container.NewArray[float64](numStats, 1, l.Combine)
}

// Fit solves for the slope and intercept from reduced statistics laid
// out as pairs (the job's sorted output).
func (LinearRegression) Fit(pairs []kv.Pair[int, float64]) (slope, intercept float64, ok bool) {
	var stats [numStats]float64
	for _, p := range pairs {
		if p.Key >= 0 && p.Key < numStats {
			stats[p.Key] = p.Val
		}
	}
	n := stats[StatN]
	if n < 2 {
		return 0, 0, false
	}
	denom := n*stats[StatSumXX] - stats[StatSumX]*stats[StatSumX]
	if denom == 0 {
		return 0, 0, false
	}
	slope = (n*stats[StatSumXY] - stats[StatSumX]*stats[StatSumY]) / denom
	intercept = (stats[StatSumY] - slope*stats[StatSumX]) / n
	return slope, intercept, true
}

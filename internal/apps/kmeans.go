package apps

import (
	"math"

	"supmr/internal/chunk"
	"supmr/internal/container"
	"supmr/internal/kv"
)

// KMeans is the classic Phoenix iterative benchmark: cluster Dim-byte
// points into K clusters by Lloyd's algorithm. Each iteration is one
// complete MapReduce job — the "multiple map/reduce rounds" pattern of
// Twister/HaLoop that §VII relates SupMR to — and the driver
// (supmr.RunKMeans) runs each as an ordinary job over the same file, so
// a cached storage layer (storage.Cache) makes iterations after the
// first compute-bound.
//
// Map assigns each point to its nearest centroid and emits per-cluster
// accumulators; Reduce (and the combiner) merge accumulators; the
// driver recomputes centroids and repeats until movement falls below
// Epsilon or the driver's iteration cap is reached.
type KMeans struct {
	K       int // clusters
	Dim     int // bytes (features) per point
	Epsilon float64
	// Centroids is the current model, read by Map; the driver updates
	// it between iterations (never during a map wave).
	Centroids [][]float64
}

// ClusterAccum accumulates the points assigned to a cluster.
type ClusterAccum struct {
	N   int64
	Sum []float64
}

// merge folds b into a copy of a.
func mergeAccum(a, b ClusterAccum) ClusterAccum {
	if a.Sum == nil {
		return b
	}
	if b.Sum == nil {
		return a
	}
	out := ClusterAccum{N: a.N + b.N, Sum: make([]float64, len(a.Sum))}
	for i := range out.Sum {
		out.Sum[i] = a.Sum[i]
		if i < len(b.Sum) {
			out.Sum[i] += b.Sum[i]
		}
	}
	return out
}

var _ kv.App[int, ClusterAccum] = (*KMeans)(nil)
var _ kv.Combiner[ClusterAccum] = (*KMeans)(nil)

// Map assigns each Dim-byte point of the split to its nearest centroid,
// folding into one local accumulator per cluster before emitting.
func (k *KMeans) Map(split []byte, emit kv.Emitter[int, ClusterAccum]) {
	if k.Dim <= 0 || len(k.Centroids) == 0 {
		return
	}
	acc := make([]ClusterAccum, len(k.Centroids))
	point := make([]float64, k.Dim)
	for off := 0; off+k.Dim <= len(split); off += k.Dim {
		for d := 0; d < k.Dim; d++ {
			point[d] = float64(split[off+d])
		}
		best, bestDist := 0, math.Inf(1)
		for ci, c := range k.Centroids {
			var dist float64
			for d := 0; d < k.Dim && d < len(c); d++ {
				diff := point[d] - c[d]
				dist += diff * diff
			}
			if dist < bestDist {
				best, bestDist = ci, dist
			}
		}
		a := &acc[best]
		if a.Sum == nil {
			a.Sum = make([]float64, k.Dim)
		}
		a.N++
		for d := 0; d < k.Dim; d++ {
			a.Sum[d] += point[d]
		}
	}
	for ci := range acc {
		if acc[ci].N > 0 {
			emit.Emit(ci, acc[ci])
		}
	}
}

// Reduce merges accumulators for one cluster.
func (k *KMeans) Reduce(_ int, vs []ClusterAccum) ClusterAccum {
	var out ClusterAccum
	for _, v := range vs {
		out = mergeAccum(out, v)
	}
	return out
}

// Combine folds two accumulators (hash container combiner).
func (k *KMeans) Combine(a, b ClusterAccum) ClusterAccum { return mergeAccum(a, b) }

// Less orders cluster ids.
func (k *KMeans) Less(a, b int) bool { return a < b }

// Boundary: points are fixed-width records.
func (k *KMeans) Boundary() chunk.Boundary { return chunk.FixedBoundary{Width: int64(k.Dim)} }

// NewContainer returns a tiny hash container (K keys).
func (k *KMeans) NewContainer() container.Container[int, ClusterAccum] {
	return container.NewHash[int, ClusterAccum](8, container.IntHasher, k.Combine)
}

// Step recomputes centroids from one iteration's reduced accumulators
// and returns the largest centroid movement (L2).
func (k *KMeans) Step(pairs []kv.Pair[int, ClusterAccum]) float64 {
	moved := 0.0
	for _, p := range pairs {
		if p.Key < 0 || p.Key >= len(k.Centroids) || p.Val.N == 0 {
			continue
		}
		old := k.Centroids[p.Key]
		next := make([]float64, k.Dim)
		var dist float64
		for d := 0; d < k.Dim; d++ {
			next[d] = p.Val.Sum[d] / float64(p.Val.N)
			diff := next[d] - old[d]
			dist += diff * diff
		}
		k.Centroids[p.Key] = next
		if dist > moved {
			moved = dist
		}
	}
	return math.Sqrt(moved)
}

// InitCentroids seeds K centroids deterministically across the byte
// feature space.
func (k *KMeans) InitCentroids(seed uint64) {
	k.Centroids = make([][]float64, k.K)
	state := seed
	for i := range k.Centroids {
		c := make([]float64, k.Dim)
		for d := range c {
			state = state*6364136223846793005 + 1442695040888963407
			c[d] = float64((state >> 33) % 256)
		}
		k.Centroids[i] = c
	}
}

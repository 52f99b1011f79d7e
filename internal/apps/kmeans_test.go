package apps

import (
	"math"
	"testing"

	"supmr/internal/kv"
)

func TestKMeansMapAssignsNearest(t *testing.T) {
	k := &KMeans{K: 2, Dim: 2}
	k.Centroids = [][]float64{{0, 0}, {100, 100}}
	pts := []byte{1, 1, 99, 99, 2, 3}
	got := collectEmits[int, ClusterAccum](k, pts)
	counts := map[int]int64{}
	for _, p := range got {
		counts[p.Key] += p.Val.N
	}
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("assignments = %v", counts)
	}
}

func TestKMeansStepMovesCentroids(t *testing.T) {
	k := &KMeans{K: 1, Dim: 2}
	k.Centroids = [][]float64{{0, 0}}
	moved := k.Step([]kv.Pair[int, ClusterAccum]{
		{Key: 0, Val: ClusterAccum{N: 2, Sum: []float64{6, 8}}},
	})
	// New centroid (3, 4): moved distance 5.
	if math.Abs(moved-5) > 1e-9 {
		t.Errorf("moved = %v, want 5", moved)
	}
	if k.Centroids[0][0] != 3 || k.Centroids[0][1] != 4 {
		t.Errorf("centroid = %v, want (3,4)", k.Centroids[0])
	}
	// Empty step moves nothing.
	if k.Step(nil) != 0 {
		t.Error("empty step should not move centroids")
	}
}

package supmr

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"supmr/internal/apps"
	"supmr/internal/storage"
)

// clusteredPoints builds 2-D byte points drawn from well-separated
// clusters so Lloyd's algorithm has an unambiguous answer.
func clusteredPoints(perCluster int) []byte {
	centers := [][2]int{{30, 30}, {200, 60}, {100, 220}}
	var buf []byte
	state := uint64(42)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for i := 0; i < perCluster; i++ {
		for _, c := range centers {
			x := c[0] + int(next()%11) - 5
			y := c[1] + int(next()%11) - 5
			buf = append(buf, byte(x), byte(y))
		}
	}
	return buf
}

func TestKMeansConvergesOnSeparatedClusters(t *testing.T) {
	data := clusteredPoints(300) // 900 points
	k := &apps.KMeans{K: 3, Dim: 2, Epsilon: 0.01}
	k.InitCentroids(7)
	clk := storage.NewFakeClock()
	res, err := RunKMeans(k, MemoryFile("pts", data, clk), Config{Workers: 2, ChunkBytes: 256, Clock: clk}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved >= 0.01 && res.Iterations == 50 {
		t.Errorf("did not converge: moved %.4f after %d iterations", res.Moved, res.Iterations)
	}
	var total int64
	for _, n := range res.Sizes {
		total += n
	}
	if total != 900 {
		t.Errorf("cluster sizes sum to %d, want 900", total)
	}
	// Final centroids should sit near the true centers.
	trueCenters := [][]float64{{30, 30}, {200, 60}, {100, 220}}
	for _, tc := range trueCenters {
		best := math.Inf(1)
		for _, c := range k.Centroids {
			d := math.Hypot(c[0]-tc[0], c[1]-tc[1])
			if d < best {
				best = d
			}
		}
		if best > 8 {
			t.Errorf("no centroid within 8 of true center %v (closest %.1f)", tc, best)
		}
	}
	if res.Waves < res.Iterations {
		t.Errorf("waves %d < iterations %d", res.Waves, res.Iterations)
	}
}

func TestKMeansCachedIterationsAvoidDevice(t *testing.T) {
	// With an LRU cache over a slow disk, only the first iteration pays
	// device time — the HaLoop/Twister data-reuse idea.
	data := clusteredPoints(200)
	clock := storage.NewFakeClock()
	disk, err := storage.NewDisk(storage.DiskConfig{Name: "d", Bandwidth: 1e6}, clock)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := storage.NewCache(disk, 4096, 1024)
	if err != nil {
		t.Fatal(err)
	}
	file, err := storage.NewFile("pts", int64(len(data)), 0,
		func(off int64, p []byte) { copy(p, data[off:]) }, cache)
	if err != nil {
		t.Fatal(err)
	}
	k := &apps.KMeans{K: 3, Dim: 2, Epsilon: 0.01}
	k.InitCentroids(7)
	res, err := RunKMeans(k, file, Config{Workers: 2, ChunkBytes: 512, Clock: clock}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Skip("converged in one iteration; cache reuse not exercised")
	}
	devBytes := disk.Stats().BytesRead
	// The device should have served roughly one pass over the input
	// (block rounding allows a little slack), not one pass per iteration.
	if devBytes > int64(len(data))+16*4096 {
		t.Errorf("device served %d bytes over %d iterations; want ~%d (single pass)",
			devBytes, res.Iterations, len(data))
	}
	cs := cache.CacheStats()
	if cs.Hits == 0 {
		t.Error("no cache hits across iterations")
	}
}

func TestRunKMeansValidation(t *testing.T) {
	if _, err := RunKMeans(&apps.KMeans{}, nil, Config{}, 1); err == nil {
		t.Error("invalid K/Dim accepted")
	}
}

// countingInput counts ReadAt calls and, from the at-th on, cancels.
type countingInput struct {
	Input
	reads  atomic.Int64
	at     int64
	cancel context.CancelFunc
}

func (c *countingInput) ReadAt(p []byte, off int64) (int, error) {
	if n := c.reads.Add(1); c.cancel != nil && n >= c.at {
		c.cancel()
	}
	return c.Input.ReadAt(p, off)
}

// kmeansJob is the model TestKMeansOnEngine fits: three clusters of 2-D
// points from a seed that takes four iterations to converge.
func kmeansJob() *apps.KMeans {
	km := &apps.KMeans{K: 3, Dim: 2, Epsilon: 0.01}
	km.InitCentroids(12)
	return km
}

// kmeansModel fits a fresh model over in and renders it: the digest of
// the final centroids and cluster sizes, and the driver's result.
func kmeansModel(t *testing.T, in Input, cfg Config) (string, *KMeansResult) {
	t.Helper()
	km := kmeansJob()
	res, err := RunKMeans(km, in, cfg, 30)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(fmt.Appendf(nil, "%v %v", km.Centroids, res.Sizes))), res
}

// TestKMeansOnEngine: every iteration of the driver is one submission
// to the engine, the model is the solo run's, and cancelling mid-driver
// stops it with context.Canceled, no goroutine left behind and every
// chunk buffer back on the engine's freelist.
func TestKMeansOnEngine(t *testing.T) {
	data := clusteredPoints(300)
	base := runtime.NumGoroutine()
	clk := NewClock()
	cfg := Config{Workers: 2, ChunkBytes: 256, Clock: clk}
	solo := &countingInput{Input: MemoryFile("pts", data, clk)}
	want, soloRes := kmeansModel(t, solo, cfg)
	if soloRes.Iterations < 3 {
		t.Fatalf("solo run converged in %d iterations; the mid-driver cancel needs three", soloRes.Iterations)
	}

	eng := NewEngine(EngineConfig{Workers: 2, IOLanes: 2})
	defer eng.Close()
	cfg.Engine = eng
	before := eng.Stats().Submitted
	got, res := kmeansModel(t, MemoryFile("pts", data, clk), cfg)
	if got != want || res.Iterations != soloRes.Iterations {
		t.Errorf("engine model %.12s after %d iterations, solo %.12s after %d", got, res.Iterations, want, soloRes.Iterations)
	}
	if n := eng.Stats().Submitted - before; n != int64(res.Iterations) {
		t.Errorf("%d iterations made %d submissions, want one each", res.Iterations, n)
	}

	// Cancel on the second iteration's second read.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	perIter := solo.reads.Load() / int64(soloRes.Iterations)
	in := &countingInput{Input: MemoryFile("pts", data, clk), at: perIter + 2, cancel: cancel}
	cfg.Context = ctx
	if _, err := RunKMeans(kmeansJob(), in, cfg, 30); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled driver returned %v, want context.Canceled", err)
	}
	if n := in.reads.Load(); n > 3*perIter {
		t.Errorf("the driver made %d reads after a cancel at read %d; it must stop within the iteration", n, perIter+2)
	}
	gets, reuses := eng.frees.Stats()
	if parked := eng.frees.Parked(); int64(parked) != gets-reuses {
		t.Errorf("freelist holds %d of the %d chunk buffers it allocated", parked, gets-reuses)
	}
	eng.Close()
	checkNoGoroutineLeak(t, base)
}

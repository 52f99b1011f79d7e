package shuffle

import (
	"math/rand"
	"slices"
	"testing"

	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/metrics"
	"supmr/internal/sortalgo"
	"supmr/internal/storage"
)

// countApp is a word count's reduce side: string keys, summed counts.
type countApp struct{}

func (countApp) Map([]byte, kv.Emitter[string, int64]) {}
func (countApp) Reduce(_ string, vs []int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}
func (countApp) Less(a, b string) bool { return a < b }

// sortedRun turns keys into a key-sorted run of distinct keys, each
// valued by its count, as a node's container drains.
func sortedRun(keys []string) []kv.Pair[string, int64] {
	counts := make(map[string]int64)
	for _, k := range keys {
		counts[k]++
	}
	run := make([]kv.Pair[string, int64], 0, len(counts))
	for k, n := range counts {
		run = append(run, kv.Pair[string, int64]{Key: k, Val: n})
	}
	kv.SortPairs(run, countApp{}.Less)
	return run
}

// destinations runs the exchange's transfer over nodeRuns on a fresh
// fault-free cluster and merges each destination's slices, returning
// every node's output.
func destinations(t testing.TB, nodeRuns [][][]kv.Pair[string, int64]) [][]kv.Pair[string, int64] {
	t.Helper()
	x, err := NewExchange[string, int64](Topology{Nodes: len(nodeRuns), Clock: storage.NewFakeClock()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := x.transfer(nodeRuns, countApp{}.Less, new(Counters))
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]kv.Pair[string, int64], len(recv))
	for dst := range recv {
		if outs[dst], err = sortalgo.MergeRuns(recv[dst], countApp{}.Less, countApp{}.Reduce, true); err != nil {
			t.Fatal(err)
		}
	}
	return outs
}

// checkKeyRanged fails unless the destination outputs are each strictly
// ascending and every key of node n sorts below every key of node n+1.
func checkKeyRanged(t testing.TB, outs [][]kv.Pair[string, int64]) {
	t.Helper()
	var prev *string
	for dst, out := range outs {
		for i := range out {
			if prev != nil && *prev >= out[i].Key {
				t.Fatalf("node %d: key %q does not follow %q", dst, out[i].Key, *prev)
			}
			prev = &out[i].Key
		}
	}
}

// TestExchangeBalancesSkewedKeys: when 90% of the distinct keys share one
// leading byte, splitters drawn from the nodes' samples still give every
// destination at most twice its even share of the distinct keys, and
// the destinations stay key-ranged.
func TestExchangeBalancesSkewedKeys(t *testing.T) {
	const nodes, n = 4, 4000
	rng := rand.New(rand.NewSource(17))
	word := func(lead byte) string {
		b := []byte{lead}
		for i := 0; i < 6; i++ {
			b = append(b, byte('a'+rng.Intn(26)))
		}
		return string(b)
	}
	distinct := make(map[string]bool)
	for len(distinct) < n {
		if len(distinct) < n*9/10 {
			distinct[word('z')] = true
		} else {
			distinct[word(byte('a'+rng.Intn(25)))] = true
		}
	}
	// Every key occurs on one to four nodes, as a word does across the
	// nodes' chunks; each node hands in its container's one drain.
	keys := make([][]string, nodes)
	for k := range distinct {
		first := rng.Intn(nodes)
		for node := range keys {
			if node == first || rng.Intn(2) == 0 {
				keys[node] = append(keys[node], k)
			}
		}
	}
	nodeRuns := make([][][]kv.Pair[string, int64], nodes)
	for node := range keys {
		nodeRuns[node] = [][]kv.Pair[string, int64]{sortedRun(keys[node])}
	}
	outs := destinations(t, nodeRuns)
	checkKeyRanged(t, outs)
	total, limit := 0, 2*((n+nodes-1)/nodes)
	for dst, out := range outs {
		total += len(out)
		if len(out) > limit {
			t.Errorf("node %d reduces %d of %d distinct keys, want at most %d", dst, len(out), n, limit)
		}
	}
	if total != n {
		t.Fatalf("destinations hold %d distinct keys, want %d", total, n)
	}
}

// FuzzExchangeVsMergeRuns: random sorted runs on one to five nodes, any
// of which may hold none, exchange to exactly sortalgo.MergeRuns over
// all of them, through destination outputs that are key-ranged.
func FuzzExchangeVsMergeRuns(f *testing.F) {
	f.Add(uint8(3), []byte("the quick brown fox\xffjumps over the lazy dog\xff\xffthe end"))
	f.Add(uint8(0), []byte("abc"))
	f.Add(uint8(4), []byte{})
	f.Add(uint8(1), []byte("\xff\xffzz\xffaa\xff"))
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		nodes := 1 + int(shape%5)
		// A 0xff byte ends a run; run i belongs to node i % nodes. Other
		// bytes are keys from a small alphabet, so runs share keys.
		nodeRuns := make([][][]kv.Pair[string, int64], nodes)
		var all [][]kv.Pair[string, int64]
		var keys []string
		for i, runs := 0, 0; i <= len(data); i++ {
			if i < len(data) && data[i] != 0xff {
				keys = append(keys, string([]byte{'a' + data[i]%16, 'a' + data[i]/16}))
				continue
			}
			if run := sortedRun(keys); len(run) > 0 {
				nodeRuns[runs%nodes] = append(nodeRuns[runs%nodes], run)
				all = append(all, run)
			}
			keys, runs = nil, runs+1
		}
		want, err := sortalgo.MergeRuns(all, countApp{}.Less, countApp{}.Reduce, true)
		if err != nil {
			t.Fatal(err)
		}

		outs := destinations(t, nodeRuns)
		checkKeyRanged(t, outs)
		x, err := NewExchange[string, int64](Topology{Nodes: nodes, Clock: storage.NewFakeClock()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		pool := exec.NewLocal(2)
		defer pool.Close()
		got, _, err := x.Run(countApp{}, nodeRuns, pool, metrics.NewTimer(pool.Now))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || !slices.Equal(got, slices.Concat(outs...)) {
			t.Fatalf("%d nodes: exchange output\n%v\nMergeRuns over all runs\n%v", nodes, got, want)
		}
	})
}

package shuffle

import (
	"math/rand"
	"testing"

	"supmr/internal/kv"
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

// destinations runs the exchange over nodeBlocks on a fresh fault-free
// cluster and reduces each destination's blocks to its key-sorted
// distinct keys, returning every node's output.
func destinations(t testing.TB, nodeBlocks [][][]kv.Pair[string, int64]) [][]kv.Pair[string, int64] {
	t.Helper()
	x, err := NewExchange[string, int64](Topology{Nodes: len(nodeBlocks), Clock: storage.NewFakeClock()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := x.Run(nodeBlocks, countApp{}.Less)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]kv.Pair[string, int64], len(recv))
	for dst, blocks := range recv {
		var all []kv.Pair[string, int64]
		for _, b := range blocks {
			all = append(all, b...)
		}
		outs[dst] = reduced(all)
	}
	return outs
}

// reduced sums the values of each key in pairs and returns one pair per
// distinct key, key-sorted.
func reduced(pairs []kv.Pair[string, int64]) []kv.Pair[string, int64] {
	sums := make(map[string]int64)
	for _, p := range pairs {
		sums[p.Key] += p.Val
	}
	out := make([]kv.Pair[string, int64], 0, len(sums))
	for k, v := range sums {
		out = append(out, kv.Pair[string, int64]{Key: k, Val: v})
	}
	kv.SortPairs(out, countApp{}.Less)
	return out
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
	// nodes' chunks; each node hands in its container's distinct keys.
	keys := make([][]string, nodes)
	for k := range distinct {
		first := rng.Intn(nodes)
		for node := range keys {
			if node == first || rng.Intn(2) == 0 {
				keys[node] = append(keys[node], k)
			}
		}
	}
	nodeBlocks := make([][][]kv.Pair[string, int64], nodes)
	for node := range keys {
		nodeBlocks[node] = [][]kv.Pair[string, int64]{sortedRun(keys[node])}
	}
	outs := destinations(t, nodeBlocks)
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

// FuzzExchangeRoutes: unsorted blocks on one to five nodes, any of
// which may hold none, each pair valued by its own index, framed per
// node or (CombinerOff) per block. Every input pair arrives at exactly
// one destination with its key and value intact, and every key at
// destination d sorts before every key at d+1, so keys shared across
// nodes meet at one destination.
func FuzzExchangeRoutes(f *testing.F) {
	f.Add(uint8(3), []byte("the quick brown fox\xffjumps over\xffthe lazy dog\xff\xffthe end"))
	f.Add(uint8(0), []byte("abc"))
	f.Add(uint8(4), []byte{})
	f.Add(uint8(6), []byte("\xff\xffzz\xff\xffaa\xff"))
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		nodes, perBlock := 1+int(shape%5), shape&8 != 0
		// A 0xff byte ends a block; block i belongs to node i % nodes.
		// Other bytes are keys from a small alphabet, in input order, so
		// blocks and nodes share keys.
		nodeBlocks := make([][][]kv.Pair[string, int64], nodes)
		var sent, block []kv.Pair[string, int64]
		for i, blocks := 0, 0; i <= len(data); i++ {
			if i < len(data) && data[i] != 0xff {
				p := kv.Pair[string, int64]{Key: string([]byte{'a' + data[i]%16, 'a' + data[i]/16}), Val: int64(len(sent))}
				block, sent = append(block, p), append(sent, p)
				continue
			}
			nodeBlocks[blocks%nodes] = append(nodeBlocks[blocks%nodes], block)
			block, blocks = nil, blocks+1
		}

		x, err := NewExchange[string, int64](Topology{Nodes: nodes, CombinerOff: perBlock, Clock: storage.NewFakeClock()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		recv, err := x.Run(nodeBlocks, countApp{}.Less)
		if err != nil {
			t.Fatal(err)
		}
		if len(recv) != nodes {
			t.Fatalf("%d destinations, want %d", len(recv), nodes)
		}
		arrived := make([]int, len(sent))
		var prevMax *string
		for dst, blocks := range recv {
			var lo, hi *string
			for _, b := range blocks {
				for i, p := range b {
					if p.Val < 0 || int(p.Val) >= len(sent) || sent[p.Val] != p {
						t.Fatalf("node %d received %v, which was never sent", dst, p)
					}
					arrived[p.Val]++
					if lo == nil || p.Key < *lo {
						lo = &b[i].Key
					}
					if hi == nil || p.Key > *hi {
						hi = &b[i].Key
					}
				}
			}
			if lo == nil {
				continue
			}
			if prevMax != nil && *prevMax >= *lo {
				t.Fatalf("node %d holds %q, not above %q held by an earlier node", dst, *lo, *prevMax)
			}
			prevMax = hi
		}
		for i, n := range arrived {
			if n != 1 {
				t.Fatalf("pair %v arrived %d times", sent[i], n)
			}
		}
	})
}

package shuffle

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"supmr/internal/container"
	"supmr/internal/exec"
	"supmr/internal/kv"
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

// destinations runs the exchange over nodeBlocks on a fresh fault-free
// cluster and reduces what each destination's container received to its
// key-sorted distinct keys, returning every node's output.
func destinations(t testing.TB, nodeBlocks [][][]kv.Pair[string, int64]) [][]kv.Pair[string, int64] {
	t.Helper()
	x, err := NewExchange[string, int64](Topology{Nodes: len(nodeBlocks), Clock: storage.NewFakeClock()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewLocal(2)
	defer pool.Close()
	_, conts := listSink(len(nodeBlocks))
	if err := x.Run(nodeBlocks, countApp{}.Less, pool, conts); err != nil {
		t.Fatal(err)
	}
	outs := received(conts)
	for dst := range outs {
		outs[dst] = reduced(outs[dst])
	}
	return outs
}

// received lists every pair folded into each of the non-combining
// containers conts, in no particular order.
func received(conts []container.Container[string, int64]) [][]kv.Pair[string, int64] {
	outs := make([][]kv.Pair[string, int64], len(conts))
	for dst, c := range conts {
		for p := 0; p < c.Partitions(); p++ {
			c.Reduce(p, func(k string, vs []int64) int64 {
				for _, v := range vs {
					outs[dst] = append(outs[dst], kv.Pair[string, int64]{Key: k, Val: v})
				}
				return 0
			}, nil)
		}
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
		pool := exec.NewLocal(2)
		defer pool.Close()
		_, conts := listSink(nodes)
		if err := x.Run(nodeBlocks, countApp{}.Less, pool, conts); err != nil {
			t.Fatal(err)
		}
		arrived := make([]int, len(sent))
		var prevMax *string
		for dst, got := range received(conts) {
			var lo, hi *string
			for i, p := range got {
				if p.Val < 0 || int(p.Val) >= len(sent) || sent[p.Val] != p {
					t.Fatalf("node %d received %v, which was never sent", dst, p)
				}
				arrived[p.Val]++
				if lo == nil || p.Key < *lo {
					lo = &got[i].Key
				}
				if hi == nil || p.Key > *hi {
					hi = &got[i].Key
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

// send is one wire decision: a frame of n bytes from src to dst.
type send struct{ src, dst, n int }

// recorder is a wire that logs every send and passes it through. The
// log is not locked: a send from a pool task would race with the
// caller's, which the race detector reports.
type recorder struct {
	log      *[]send
	src, dst int
}

func (r recorder) Send(n int) (int, error) {
	*r.log = append(*r.log, send{r.src, r.dst, n})
	return n, nil
}

// exchangeInput builds unsorted blocks for nodes nodes: three blocks each
// of keys drawn from a small alphabet, so nodes and blocks share keys,
// with node n's n-th block empty, and the last node holding one empty
// block.
func exchangeInput(nodes int) [][][]kv.Pair[string, int64] {
	rng := rand.New(rand.NewSource(29))
	in := make([][][]kv.Pair[string, int64], nodes)
	for n := 0; n < nodes-1; n++ {
		for b := 0; b < 3; b++ {
			block := []kv.Pair[string, int64]{}
			for i := 0; i < 50+rng.Intn(300) && b != n; i++ {
				key := string([]byte{byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26))})
				block = append(block, kv.Pair[string, int64]{Key: key, Val: rng.Int63n(1 << 40)})
			}
			in[n] = append(in[n], block)
		}
	}
	in[nodes-1] = [][]kv.Pair[string, int64]{{}}
	return in
}

// cloneBlocks copies nodeBlocks: the exchange reorders blocks in place.
func cloneBlocks(nodeBlocks [][][]kv.Pair[string, int64]) [][][]kv.Pair[string, int64] {
	out := make([][][]kv.Pair[string, int64], len(nodeBlocks))
	for n, blocks := range nodeBlocks {
		for _, b := range blocks {
			out[n] = append(out[n], slices.Clone(b))
		}
	}
	return out
}

// routeReference is what route hands back, computed the plain way: an
// entry goes to the node counting the splitters at or below its key; per
// frame group (all blocks, or each block with perBlock) come each block's
// local share in order, then one frame per other node holding entries,
// in node order, built by AppendRecord and EncodeFrame.
func routeReference(src, nodes int, blocks [][]kv.Pair[string, int64], splitters []string, perBlock bool) []delivery[string, int64] {
	per := len(blocks)
	if perBlock {
		per = 1
	}
	var out []delivery[string, int64]
	for first := 0; first < len(blocks); first += per {
		payloads, records := make([][]byte, nodes), make([]int, nodes)
		for _, b := range blocks[first:min(first+per, len(blocks))] {
			var local []kv.Pair[string, int64]
			for _, p := range b {
				dst := 0
				for _, s := range splitters {
					if s <= p.Key {
						dst++
					}
				}
				if dst == src {
					local = append(local, p)
					continue
				}
				payloads[dst] = AppendRecord(payloads[dst], []byte(p.Key), binary.LittleEndian.AppendUint64(nil, uint64(p.Val)))
				records[dst]++
			}
			out = append(out, delivery[string, int64]{src: src, dst: src, pairs: local})
		}
		for dst, n := range records {
			if n > 0 {
				out = append(out, delivery[string, int64]{src: src, dst: dst, frame: EncodeFrame(nil, src, dst, n, payloads[dst])})
			}
		}
	}
	return out
}

// wantSends is the exchange's send log computed from its input: the
// sample frames in (src, dst) order, then the data frames in
// (src, block, dst) order.
func wantSends(x *Exchange[string, int64], nodeBlocks [][][]kv.Pair[string, int64]) (samples, data []send) {
	own := make([][]string, len(nodeBlocks))
	payloads := make([][]byte, len(nodeBlocks))
	for n, blocks := range nodeBlocks {
		own[n], payloads[n] = x.sample(blocks, countApp{}.Less)
	}
	for src := range own {
		for dst := range own {
			if dst != src && len(own[src]) > 0 && len(own[dst]) > 0 {
				samples = append(samples, send{src, dst, len(EncodeFrame(nil, src, dst, len(own[src]), payloads[src]))})
			}
		}
	}
	splitters := sortalgo.Splitters(slices.Concat(own...), len(nodeBlocks), countApp{}.Less)
	for src, blocks := range nodeBlocks {
		for _, d := range routeReference(src, len(nodeBlocks), blocks, splitters, x.top.CombinerOff) {
			if d.frame != nil {
				data = append(data, send{src, d.dst, len(d.frame)})
			}
		}
	}
	return samples, data
}

// roundTime is a fabric round's closed form at 2^30 B/s ports: latency,
// then the busiest egress or ingress link's bytes.
func roundTime(sends []send, nodes int, latency time.Duration) time.Duration {
	egress, ingress := make([]int, nodes), make([]int, nodes)
	for _, s := range sends {
		egress[s.src] += s.n
		ingress[s.dst] += s.n
	}
	busiest := max(slices.Max(egress), slices.Max(ingress))
	return latency + time.Duration(math.Ceil(float64(busiest)/(1<<30)*float64(time.Second)))
}

// TestExchangeDecisionOrder: the wire decisions run on the caller in one
// order whatever the pool — every sample frame in (src, dst) order, then
// every data frame in (src, block, dst) order, each frame as long as
// EncodeFrame makes it — with the in-node combiner on or off. The two
// rounds cost exactly their closed forms on the virtual clock.
func TestExchangeDecisionOrder(t *testing.T) {
	const nodes, latency = 4, 3 * time.Millisecond
	in := exchangeInput(nodes)
	for _, perBlock := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("combinerOff=%v/workers=%d", perBlock, workers)
			clock := storage.NewFakeClock()
			x, err := NewExchange[string, int64](Topology{Nodes: nodes, CombinerOff: perBlock, LinkBW: 1 << 30, LinkLatency: latency, Clock: clock}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var log []send
			for src := range x.wires {
				for dst := range x.wires[src] {
					x.wires[src][dst] = recorder{&log, src, dst}
				}
			}
			samples, data := wantSends(x, in)
			if len(samples) != 6 || len(data) == 0 {
				t.Fatalf("%s: %d sample and %d data frames; the input must give three nodes samples and ship data", name, len(samples), len(data))
			}
			pool := exec.NewLocal(workers)
			start := clock.Now()
			_, conts := listSink(nodes)
			err = x.Run(cloneBlocks(in), countApp{}.Less, pool, conts)
			pool.Close()
			if err != nil {
				t.Fatal(err)
			}
			if want := slices.Concat(samples, data); !slices.Equal(log, want) {
				t.Errorf("%s: sends %v, want %v", name, log, want)
			}
			wantBytes := 0
			for _, s := range log {
				wantBytes += s.n
			}
			if x.Bytes != int64(wantBytes) || x.Frames != len(log) {
				t.Errorf("%s: counted %d bytes in %d frames, sent %d in %d", name, x.Bytes, x.Frames, wantBytes, len(log))
			}
			want := roundTime(samples, nodes, latency) + roundTime(data, nodes, latency)
			if el := clock.Now() - start; el != want {
				t.Errorf("%s: the exchange took %v on the fabric, the two rounds' closed forms %v", name, el, want)
			}
		}
	}
}

// TestExchangeFramesInPlace: route writes each frame in place, byte for
// byte what EncodeFrame makes of the same records and into a buffer of
// exactly its length, and hands back each block's local share in order —
// on clusters of 255 nodes or more too, where a destination no longer
// fits the byte route caches it in.
func TestExchangeFramesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	wide := make([]string, 299) // 300 nodes; keys k000.. route to all of them
	for i := range wide {
		wide[i] = fmt.Sprintf("k%03d", i+1)
	}
	var wideBlocks [][]kv.Pair[string, int64]
	for b := 0; b < 3; b++ {
		var block []kv.Pair[string, int64]
		for i := 0; i < 2000; i++ {
			block = append(block, kv.Pair[string, int64]{Key: fmt.Sprintf("k%03d%c", rng.Intn(301), 'a'+rng.Intn(3)), Val: int64(i)})
		}
		wideBlocks = append(wideBlocks, block)
	}
	for _, tc := range []struct {
		nodes     int
		splitters []string
		in        [][][]kv.Pair[string, int64]
		srcs      []int
	}{
		{4, []string{"g", "mm", "t"}, exchangeInput(4), []int{0, 1, 2, 3}},
		{300, wide, [][][]kv.Pair[string, int64]{wideBlocks}, []int{0, 200, 255, 299}},
	} {
		for _, perBlock := range []bool{false, true} {
			x, err := NewExchange[string, int64](Topology{Nodes: tc.nodes, CombinerOff: perBlock, Clock: storage.NewFakeClock()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range tc.srcs {
				blocks := tc.in[min(src, len(tc.in)-1)]
				name := fmt.Sprintf("nodes=%d/combinerOff=%v/n%d", tc.nodes, perBlock, src)
				got := x.route(src, cloneBlocks([][][]kv.Pair[string, int64]{blocks})[0], tc.splitters, countApp{}.Less)
				want := routeReference(src, tc.nodes, blocks, tc.splitters, perBlock)
				if len(got) != len(want) {
					t.Fatalf("%s: %d deliveries, want %d", name, len(got), len(want))
				}
				for i, d := range got {
					w := want[i]
					if d.src != w.src || d.dst != w.dst || !slices.Equal(d.pairs, w.pairs) || !slices.Equal(d.frame, w.frame) {
						t.Errorf("%s: delivery %d: n%d->n%d %d pairs %d frame bytes, want n%d->n%d %d pairs %d frame bytes",
							name, i, d.src, d.dst, len(d.pairs), len(d.frame), w.src, w.dst, len(w.pairs), len(w.frame))
					}
					if cap(d.frame) != len(d.frame) {
						t.Errorf("%s: n%d->n%d: frame of %d bytes in a %d-byte buffer", name, src, d.dst, len(d.frame), cap(d.frame))
					}
				}
			}
		}
	}
}

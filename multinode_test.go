package supmr

// Multi-node runs keep one persistent container per node (the in-node
// combiner tier): what crosses the wire, how often a container is
// drained, and the edges of the routing — more nodes than chunks, one
// node, no input, a memo store underneath — are pinned here against the
// single-node pipeline.

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"supmr/internal/shuffle"
	"supmr/internal/spill"
	"supmr/internal/storage"
)

// nodeInputs are the two multi-node workloads' fixed-seed inputs, and
// wcChunks / sortChunks their chunking: 32 chunks each, the sort's of 64
// records.
func nodeInputs(t *testing.T) (text, tera []byte) {
	return genText(t, 256<<10, 61), teraData(2048, 67)
}

func wcChunks(c Config) Config { c.ChunkBytes = 8 << 10; return c }

func sortChunks(c Config) Config { c.ChunkBytes, c.Boundary = 6400, CRLFRecords; return c }

// nodeApps are the two multi-node workloads of the pins below, each a
// closure over fixed-seed input so the table tests need no type
// parameters.
func nodeApps(t *testing.T) map[string]func(Config) (Stats, string) {
	t.Helper()
	text, tera := nodeInputs(t)
	return map[string]func(Config) (Stats, string){
		"wordcount": func(c Config) (Stats, string) {
			t.Helper()
			rep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), wcChunks(c))
			if err != nil {
				t.Fatal(err)
			}
			return rep.Stats, renderPairs(rep.Pairs)
		},
		"sort": func(c Config) (Stats, string) {
			t.Helper()
			rep, err := RunBytes[string, uint64](SortJob(), tera, SortContainer(), sortChunks(c))
			if err != nil {
				t.Fatal(err)
			}
			return rep.Stats, renderPairs(rep.Pairs)
		},
	}
}

// wire is what a multi-node run put on the wire.
type wire struct {
	bytes  int64
	frames int
}

// wireReference recomputes a multi-node run's wire from its input alone,
// without the exchange: it reads the chunks the run reads, runs each
// chunk single-node, groups the chunk runs by node (reduced per node
// with the in-node combiner, as drained without), then picks the sample
// keys and the splitters and routes every pair by a linear scan of them,
// and totals the frames that carry sample keys and off-node pairs.
func wireReference[V any](t *testing.T, job Job[string, V], mkCont func() Container[string, V], data []byte, cfg Config, nodes int, combiner bool) wire {
	t.Helper()
	stream, err := StreamFile(MemoryFile("in", data, storage.NewFakeClock()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodeRuns := make([][][]Pair[string, V], nodes)
	for i := 0; ; i++ {
		c, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		one := cfg
		one.ChunkBytes = 0
		rep, err := RunBytes(job, c.Data, mkCont(), one)
		c.Release()
		if err != nil {
			t.Fatal(err)
		}
		nodeRuns[i%nodes] = append(nodeRuns[i%nodes], rep.Pairs)
	}
	byKey := func(a, b string) int {
		switch {
		case job.Less(a, b):
			return -1
		case job.Less(b, a):
			return 1
		}
		return 0
	}
	var holders []int
	for n, runs := range nodeRuns {
		if combiner && len(runs) > 1 {
			groups := make(map[string][]V)
			for _, run := range runs {
				for _, p := range run {
					groups[p.Key] = append(groups[p.Key], p.Val)
				}
			}
			var run []Pair[string, V]
			for k, vs := range groups {
				if len(vs) > 1 {
					vs[0] = job.Reduce(k, vs)
				}
				run = append(run, Pair[string, V]{Key: k, Val: vs[0]})
			}
			slices.SortFunc(run, func(a, b Pair[string, V]) int { return byKey(a.Key, b.Key) })
			nodeRuns[n] = [][]Pair[string, V]{run}
		}
		if len(runs) > 0 {
			holders = append(holders, n)
		}
	}

	// pick returns the parts-1 keys at i*len/parts of keys sorted.
	pick := func(keys []string, parts int) []string {
		keys = slices.SortedFunc(slices.Values(keys), byKey)
		var out []string
		for i := 1; i < parts; i++ {
			out = append(out, keys[i*len(keys)/parts])
		}
		return out
	}
	vc, err := spill.CodecFor[V]()
	if err != nil {
		t.Fatal(err)
	}
	var w wire
	send := func(src, dst int, keys []string, vals []V) {
		var payload []byte
		for i, k := range keys {
			var val []byte
			if vals != nil {
				val = vc.Append(nil, vals[i])
			}
			payload = shuffle.AppendRecord(payload, []byte(k), val)
		}
		w.bytes += int64(len(shuffle.EncodeFrame(nil, src, dst, len(keys), payload)))
		w.frames++
	}
	// A holder's sample: every max(len/32, 1)-th key of each of its runs,
	// cut to at most 32 keys; every holder sends every other its own.
	own := make([][]string, nodes)
	var all []string
	for _, n := range holders {
		var sample []string
		for _, run := range nodeRuns[n] {
			for i := 0; i < len(run); i += max(len(run)/32, 1) {
				sample = append(sample, run[i].Key)
			}
		}
		own[n] = pick(sample, min(len(sample), 32)+1)
		all = append(all, own[n]...)
	}
	for _, src := range holders {
		for _, dst := range holders {
			if dst != src {
				send(src, dst, own[src], nil)
			}
		}
	}
	// A pair belongs to the node numbered by how many splitters sort at
	// or below its key; each run ships one frame per other node it owns
	// pairs on.
	splitters := pick(all, nodes)
	for src, runs := range nodeRuns {
		for _, run := range runs {
			keys, vals := make([][]string, nodes), make([][]V, nodes)
			for _, p := range run {
				dst := 0
				for _, sp := range splitters {
					if !job.Less(p.Key, sp) {
						dst++
					}
				}
				keys[dst], vals[dst] = append(keys[dst], p.Key), append(vals[dst], p.Val)
			}
			for dst := range keys {
				if dst != src && len(keys[dst]) > 0 {
					send(src, dst, keys[dst], vals[dst])
				}
			}
		}
	}
	return w
}

// TestMultiNodeWirePinned: the wire is identical by construction
// whichever way a node's map output is combined — the same keys with
// the same reduced values leave each node in the same order — and is
// pinned twice: to an independent reference that recomputes samples,
// splitters and routing from the input, and to the values that
// reference gave, so neither side can move alone. The in-node combiner
// always puts fewer bytes in fewer frames on the wire than its ablation.
func TestMultiNodeWirePinned(t *testing.T) {
	want := map[string]wire{
		"wordcount/nodes2/on":  {57882, 4},
		"wordcount/nodes2/off": {114224, 34},
		"wordcount/nodes4/on":  {108846, 24},
		"wordcount/nodes4/off": {175998, 108},
		"sort/nodes2/on":       {21618, 4},
		"sort/nodes2/off":      {22016, 34},
		"sort/nodes4/on":       {35083, 24},
		"sort/nodes4/off":      {36184, 108},
	}
	text, tera := nodeInputs(t)
	refs := map[string]func(nodes int, combiner bool) wire{
		"wordcount": func(nodes int, combiner bool) wire {
			return wireReference(t, WordCountJob(), func() Container[string, int64] { return WordCountContainer(16) },
				text, wcChunks(Config{Runtime: RuntimeSupMR, Workers: 4}), nodes, combiner)
		},
		"sort": func(nodes int, combiner bool) wire {
			return wireReference(t, SortJob(), SortContainer, tera, sortChunks(Config{Runtime: RuntimeSupMR, Workers: 4}), nodes, combiner)
		},
	}
	for app, run := range nodeApps(t) {
		_, single := run(Config{Runtime: RuntimeSupMR, Workers: 4})
		for _, nodes := range []int{2, 4} {
			for _, combiner := range []bool{true, false} {
				name := fmt.Sprintf("%s/nodes%d/%s", app, nodes, map[bool]string{true: "on", false: "off"}[combiner])
				st, out := run(applyIngestEnv(Config{Runtime: RuntimeSupMR, Workers: 4, Nodes: nodes, InNodeCombiner: &combiner}))
				if out != single {
					t.Errorf("%s: output differs from the single-node run", name)
				}
				got := wire{st.ShuffleBytes, st.ShuffleFrames}
				if ref := refs[app](nodes, combiner); got != ref || got != want[name] {
					t.Errorf("%s: %d bytes in %d frames on the wire; the reference computes %d in %d, pinned %d in %d",
						name, got.bytes, got.frames, ref.bytes, ref.frames, want[name].bytes, want[name].frames)
				}
			}
			on, off := want[fmt.Sprintf("%s/nodes%d/on", app, nodes)], want[fmt.Sprintf("%s/nodes%d/off", app, nodes)]
			if on.bytes >= off.bytes || on.frames >= off.frames {
				t.Errorf("%s/nodes%d: combiner on pinned %v, off %v; on must send less", app, nodes, on, off)
			}
		}
	}
}

// TestMultiNodeMergesOnce: the exchange is the cluster's one merge
// round — each node reduces its own key range and the ranges lie end to
// end — so a multi-node run records no merge task and no merge-phase
// time, with the in-node combiner on or off.
func TestMultiNodeMergesOnce(t *testing.T) {
	text, tera := nodeInputs(t)
	check := func(app string, c Config, st Stats, times PhaseTimes, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if n := st.Tasks["merge"].Tasks; n != 0 {
			t.Errorf("%s nodes=%d combiner=%v: %d merge tasks after the exchange", app, c.Nodes, *c.InNodeCombiner, n)
		}
		if d := times.Get(PhaseMerge); d != 0 {
			t.Errorf("%s nodes=%d combiner=%v: %v in the merge phase", app, c.Nodes, *c.InNodeCombiner, d)
		}
	}
	for _, nodes := range []int{2, 4} {
		for _, combiner := range []bool{true, false} {
			c := Config{Runtime: RuntimeSupMR, Workers: 4, Nodes: nodes, InNodeCombiner: &combiner}
			wc, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), wcChunks(c))
			check("wordcount", c, wc.Stats, wc.Times, err)
			st, err := RunBytes[string, uint64](SortJob(), tera, SortContainer(), sortChunks(c))
			check("sort", c, st.Stats, st.Times, err)
		}
	}
}

// TestMultiNodeDrainsOncePerNode: with the in-node combiner on, a node's
// container persists across its map waves and is drained exactly once,
// after ingest; the ablation still drains after every chunk. One compute
// worker makes a drain exactly one "shuffle" task (one partition group,
// nothing to merge), and a fixed-key sort counts one radix-sorted group
// per drain.
func TestMultiNodeDrainsOncePerNode(t *testing.T) {
	const chunks, nodes = 32, 4
	for app, run := range nodeApps(t) {
		for _, combiner := range []bool{true, false} {
			st, _ := run(Config{Runtime: RuntimeSupMR, Workers: 1, Nodes: nodes, InNodeCombiner: &combiner})
			if st.MapWaves != chunks {
				t.Fatalf("%s: %d map waves, the counter test assumes %d chunks", app, st.MapWaves, chunks)
			}
			wantDrains := nodes
			if !combiner {
				wantDrains = chunks
			}
			if got := st.Tasks["shuffle"].Tasks; got != wantDrains {
				t.Errorf("%s combiner=%v: %d shuffle tasks, want %d container drains", app, combiner, got, wantDrains)
			}
			if app == "sort" && st.RadixRuns != wantDrains {
				t.Errorf("sort combiner=%v: %d radix-sorted drain groups, want %d", combiner, st.RadixRuns, wantDrains)
			}
		}
	}
}

// TestMultiNodeEdges: routing edges stay digest-identical to the
// single-node pipeline. A node that mapped no chunk holds an empty
// container: it hands in no run and sends no frame.
func TestMultiNodeEdges(t *testing.T) {
	text := genText(t, 24<<10, 71)
	run := func(data []byte, c Config) *Report[string, int64] {
		t.Helper()
		c.Runtime, c.Workers, c.ChunkBytes = RuntimeSupMR, 4, 8<<10
		rep, err := RunBytes[string, int64](WordCountJob(), data, WordCountContainer(16), applyIngestEnv(c))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := renderPairs(run(text, Config{}).Pairs)
	off := false

	for _, comb := range []*bool{nil, &off} {
		// Three chunks on eight nodes: five nodes never see a chunk, at
		// most 3 sources x 7 destinations can frame data, and each source
		// sends the other two one sample frame.
		rep := run(text, Config{Nodes: 8, InNodeCombiner: comb})
		if rep.Stats.MapWaves != 3 {
			t.Fatalf("%d map waves; the edge needs fewer chunks than nodes", rep.Stats.MapWaves)
		}
		if got := renderPairs(rep.Pairs); got != want {
			t.Errorf("combiner=%v: 8 nodes over 3 chunks differ from single-node", comb == nil)
		}
		if f := rep.Stats.ShuffleFrames; f == 0 || f > 3*7+3*2 {
			t.Errorf("combiner=%v: %d frames from 3 non-empty nodes, want 1..27", comb == nil, f)
		}

		one := run(text, Config{Nodes: 1, InNodeCombiner: comb})
		if got := renderPairs(one.Pairs); got != want {
			t.Errorf("combiner=%v: one-node cluster differs from single-node", comb == nil)
		}
		if one.Stats.ShuffleFrames != 0 || one.Stats.ShuffleBytes != 0 {
			t.Errorf("combiner=%v: one-node cluster put %d bytes in %d frames on a wire it does not have",
				comb == nil, one.Stats.ShuffleBytes, one.Stats.ShuffleFrames)
		}

		empty := run(nil, Config{Nodes: 4, InNodeCombiner: comb})
		if len(empty.Pairs) != 0 || empty.Stats.ShuffleFrames != 0 {
			t.Errorf("combiner=%v: empty input produced %d pairs and %d frames", comb == nil, len(empty.Pairs), empty.Stats.ShuffleFrames)
		}
	}
}

// TestMultiNodeMemoColdWarmAppend: Memo x Nodes follows the node-container
// rule — misses drain per chunk to publish, hits stay encoded, and what
// was parked folds into its node's container before the one drain — and
// the ablation keeps decoding hits into per-chunk runs. Cold, warm and
// after a one-chunk append, both are digest-identical to single-node, and
// a warm run puts on the wire exactly what the cold run did.
func TestMultiNodeMemoColdWarmAppend(t *testing.T) {
	text := genText(t, 160<<10, 73)
	grown := append(append([]byte(nil), text...), genText(t, 12<<10, 79)...)
	off := false
	for _, comb := range []*bool{nil, &off} {
		t.Run(fmt.Sprintf("combiner=%v", comb == nil), func(t *testing.T) {
			clk := storage.NewFakeClock()
			store, err := NewMemoStore(MemoConfig{Clock: clk})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			base := Config{Runtime: RuntimeSupMR, Workers: 4, ChunkBytes: 16 << 10, Clock: clk}
			run := func(data []byte, nodes int, memo bool) *Report[string, int64] {
				t.Helper()
				c := base
				c.Nodes, c.InNodeCombiner = nodes, comb
				if memo {
					c.Memo, c.MemoStore, c.MemoKeySpace = true, store, "nodes-memo"
				}
				rep, err := RunBytes[string, int64](WordCountJob(), data, WordCountContainer(16), applyIngestEnv(c))
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			want, wantGrown := renderPairs(run(text, 0, false).Pairs), renderPairs(run(grown, 0, false).Pairs)

			cold := run(text, 4, true)
			chunks := cold.Stats.MemoMisses
			if cold.Stats.MemoHits != 0 || chunks < 5 {
				t.Fatalf("cold: %d hits, %d misses; want an all-miss run over several chunks", cold.Stats.MemoHits, chunks)
			}
			warm := run(text, 4, true)
			if warm.Stats.MemoHits != chunks || warm.Stats.MapWaves != 0 {
				t.Errorf("warm: %d hits and %d map waves over %d cached chunks", warm.Stats.MemoHits, warm.Stats.MapWaves, chunks)
			}
			app := run(grown, 4, true)
			if app.Stats.MemoMisses < 1 || app.Stats.MemoMisses > 2 || app.Stats.MemoHits < chunks-1 {
				t.Errorf("append: %d hits, %d misses over %d cached chunks; want the tail alone recomputed",
					app.Stats.MemoHits, app.Stats.MemoMisses, chunks)
			}
			for name, got := range map[string]*Report[string, int64]{"cold": cold, "warm": warm} {
				if renderPairs(got.Pairs) != want {
					t.Errorf("%s: output differs from the single-node, memo-off run", name)
				}
				if got.Stats.ShuffleBytes != cold.Stats.ShuffleBytes || got.Stats.ShuffleFrames != cold.Stats.ShuffleFrames {
					t.Errorf("%s: wire %d B / %d frames, cold run sent %d B / %d", name,
						got.Stats.ShuffleBytes, got.Stats.ShuffleFrames, cold.Stats.ShuffleBytes, cold.Stats.ShuffleFrames)
				}
			}
			if renderPairs(app.Pairs) != wantGrown {
				t.Error("append: output differs from the single-node, memo-off run over the grown input")
			}
		})
	}
}

package supmr

// Multi-node runs keep one persistent container per node (the in-node
// combiner tier): what crosses the wire, how often a container is
// drained, and the edges of the routing — more nodes than chunks, one
// node, no input, a memo store underneath — are pinned here against the
// single-node pipeline.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strings"
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
// keys by their hash (hash/fnv, not the exchange's own FNV) and the
// splitters, routes every pair by a linear scan of them, and totals the
// frames that carry sample keys and off-node pairs.
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
	// A holder's sample: the keys of its entries whose FNV-1a hash is 0
	// modulo max(entries/32, 1), cut to at most 32 keys; every holder
	// with a sample sends it to every other such holder.
	own := make([][]string, nodes)
	var all []string
	for _, n := range holders {
		entries := 0
		for _, run := range nodeRuns[n] {
			entries += len(run)
		}
		stride := uint64(max(entries/32, 1))
		var sample []string
		for _, run := range nodeRuns[n] {
			for _, p := range run {
				h := fnv.New64a()
				h.Write([]byte(p.Key))
				if h.Sum64()%stride == 0 {
					sample = append(sample, p.Key)
				}
			}
		}
		own[n] = pick(sample, min(len(sample), 32)+1)
		all = append(all, own[n]...)
	}
	for _, src := range holders {
		for _, dst := range holders {
			if dst != src && len(own[src]) > 0 && len(own[dst]) > 0 {
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
// the same reduced values leave each node — and is pinned twice: to an independent reference that recomputes samples,
// splitters and routing from the input, and to the values that
// reference gave, so neither side can move alone. The in-node combiner
// always puts fewer bytes in fewer frames on the wire than its ablation.
func TestMultiNodeWirePinned(t *testing.T) {
	want := map[string]wire{
		"wordcount/nodes2/on":  {58146, 4},
		"wordcount/nodes2/off": {114572, 34},
		"wordcount/nodes4/on":  {108806, 24},
		"wordcount/nodes4/off": {175584, 108},
		"sort/nodes2/on":       {21770, 4},
		"sort/nodes2/off":      {22128, 34},
		"sort/nodes4/on":       {34850, 24},
		"sort/nodes4/off":      {35852, 108},
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

// TestMultiNodeSortsOnce: nodes route their entries unsorted, so no
// run-sort or merge phase opens before the exchange ends; then each
// destination finishes once, like a single node — one reduce phase per
// destination — and each finish is one merge round. With the in-node
// combiner on or off.
func TestMultiNodeSortsOnce(t *testing.T) {
	text, tera := nodeInputs(t)
	check := func(app string, c Config, st Stats, markers []TraceMarker, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s nodes=%d combiner=%v", app, c.Nodes, *c.InNodeCombiner)
		if st.MergeRounds != 1 {
			t.Errorf("%s: %d merge rounds, want 1", name, st.MergeRounds)
		}
		labels := strings.Fields(phaseMarkerLabels(markers))
		end := -1 // the exchange's end: the last shuffle phase's
		for i, l := range labels {
			if l == "shuffle:end" {
				end = i
			}
		}
		if end < 0 {
			t.Fatalf("%s: no shuffle phase in %v", name, labels)
		}
		for _, l := range labels[:end] {
			if strings.HasPrefix(l, "runsort:") || strings.HasPrefix(l, "merge:") || strings.HasPrefix(l, "reduce:") {
				t.Errorf("%s: %s before the exchange ended: %v", name, l, labels)
				break
			}
		}
		if n := strings.Count(strings.Join(labels[end:], " "), "reduce:start"); n != c.Nodes {
			t.Errorf("%s: %d finishes after the exchange, want one per node: %v", name, n, labels[end:])
		}
	}
	for _, nodes := range []int{2, 4} {
		for _, combiner := range []bool{true, false} {
			c := Config{Runtime: RuntimeSupMR, Workers: 4, TraceContexts: 4, Nodes: nodes, InNodeCombiner: &combiner}
			wc, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), wcChunks(c))
			check("wordcount", c, wc.Stats, wc.Markers, err)
			st, err := RunBytes[string, uint64](SortJob(), tera, SortContainer(), sortChunks(c))
			check("sort", c, st.Stats, st.Markers, err)
		}
	}
}

// TestMultiNodeDrainsOncePerNode: with the in-node combiner on, a node's
// container persists across its map waves and is never drained: it is
// reduced once after ingest and its entries go out unsorted. The
// ablation still drains after every chunk. One compute worker makes a
// drain exactly one "shuffle" task, and drains are the only ones: the
// destinations fold what they receive inside the exchange's tasks. The
// ablation's containers are empty at the exchange, so only the
// destinations' finishes reduce them, half the reduce tasks; and a
// fixed-key sort counts one radix-sorted group per drain.
func TestMultiNodeDrainsOncePerNode(t *testing.T) {
	const chunks, nodes = 32, 4
	for app, run := range nodeApps(t) {
		var st [2]Stats
		for i, combiner := range []bool{true, false} {
			st[i], _ = run(Config{Runtime: RuntimeSupMR, Workers: 1, Nodes: nodes, InNodeCombiner: &combiner})
			if st[i].MapWaves != chunks {
				t.Fatalf("%s: %d map waves, the counter test assumes %d chunks", app, st[i].MapWaves, chunks)
			}
		}
		on, off := st[0], st[1]
		if got := on.Tasks["shuffle"].Tasks; got != 0 {
			t.Errorf("%s combiner=true: %d shuffle tasks, want no drain", app, got)
		}
		if got := off.Tasks["shuffle"].Tasks; got != chunks {
			t.Errorf("%s combiner=false: %d shuffle tasks, want %d drains", app, got, chunks)
		}
		if r, ro := on.Tasks["reduce"].Tasks, off.Tasks["reduce"].Tasks; ro == 0 || r != 2*ro {
			t.Errorf("%s: %d reduce tasks with the combiner, %d without; want each node reduced once besides its finish", app, r, ro)
		}
		if app == "sort" && off.RadixRuns-on.RadixRuns != chunks {
			t.Errorf("sort: %d radix-sorted runs without the combiner, %d with; want one more per drain (%d)", off.RadixRuns, on.RadixRuns, chunks)
		}
	}
}

// TestMultiNodeWireOrderFree: samples and routing are functions of the
// keys alone, never of the order a container iterates its entries in
// (flat and hash containers order them by per-process hash seeds), so
// word count puts the same bytes in the same frames on the wire, with
// the same output, over containers of any kind and shard count.
func TestMultiNodeWireOrderFree(t *testing.T) {
	text, _ := nodeInputs(t)
	for _, nodes := range []int{2, 4} {
		var first string
		for name, cont := range map[string]func() Container[string, int64]{
			"flat4":  func() Container[string, int64] { return WordCountContainer(4) },
			"flat16": func() Container[string, int64] { return WordCountContainer(16) },
			"map16":  func() Container[string, int64] { return WordCountMapContainer(16) },
		} {
			rep, err := RunBytes[string, int64](WordCountJob(), text, cont(), wcChunks(Config{Runtime: RuntimeSupMR, Workers: 4, Nodes: nodes}))
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%d bytes in %d frames, digest %x", rep.Stats.ShuffleBytes, rep.Stats.ShuffleFrames, pairDigest(rep.Pairs))
			if first == "" {
				first = got
			} else if got != first {
				t.Errorf("nodes=%d %s: %s; another container gave %s", nodes, name, got, first)
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
				if c.Nodes = nodes; nodes > 0 {
					c.InNodeCombiner = comb // Validate refuses it on a single node
				}
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

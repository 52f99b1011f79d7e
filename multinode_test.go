package supmr

// Multi-node runs keep one persistent container per node (the in-node
// combiner tier): what crosses the wire, how often a container is
// drained, and the edges of the routing — more nodes than chunks, one
// node, no input, a memo store underneath — are pinned here against the
// single-node pipeline.

import (
	"fmt"
	"testing"

	"supmr/internal/storage"
)

// nodeApps are the two multi-node workloads of the pins below, each a
// closure over fixed-seed input so the table tests need no type
// parameters.
func nodeApps(t *testing.T) map[string]func(Config) (Stats, string) {
	t.Helper()
	text, tera := genText(t, 256<<10, 61), teraData(2048, 67)
	return map[string]func(Config) (Stats, string){
		"wordcount": func(c Config) (Stats, string) {
			t.Helper()
			c.ChunkBytes = 8 << 10 // 32 chunks
			rep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), c)
			if err != nil {
				t.Fatal(err)
			}
			return rep.Stats, renderPairs(rep.Pairs)
		},
		"sort": func(c Config) (Stats, string) {
			t.Helper()
			c.ChunkBytes, c.Boundary = 6400, CRLFRecords // 32 chunks of 64 records
			rep, err := RunBytes[string, uint64](SortJob(), tera, SortContainer(), c)
			if err != nil {
				t.Fatal(err)
			}
			return rep.Stats, renderPairs(rep.Pairs)
		},
	}
}

// TestMultiNodeWirePinned: the wire is identical by construction
// whichever way a node's map output is combined — the same keys with
// the same reduced values leave each node in the same order — so the
// byte and frame counts are pinned to what the per-chunk-drain pipeline
// (PR 22) produced on these inputs.
func TestMultiNodeWirePinned(t *testing.T) {
	type wire struct {
		bytes  int64
		frames int
	}
	want := map[string]wire{
		"wordcount/nodes2/on":  {60340, 2},
		"wordcount/nodes2/off": {116892, 32},
		"wordcount/nodes4/on":  {107034, 12},
		"wordcount/nodes4/off": {173653, 96},
		"sort/nodes2/on":       {20306, 2},
		"sort/nodes2/off":      {20664, 32},
		"sort/nodes4/on":       {30249, 12},
		"sort/nodes4/off":      {31252, 96},
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
				if got := (wire{st.ShuffleBytes, st.ShuffleFrames}); got != want[name] {
					t.Errorf("%s: %d bytes in %d frames on the wire, pinned %d in %d", name, got.bytes, got.frames, want[name].bytes, want[name].frames)
				}
			}
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
		// Three chunks on eight nodes: five nodes never see a chunk, and
		// at most 3 sources x 7 destinations can frame anything.
		rep := run(text, Config{Nodes: 8, InNodeCombiner: comb})
		if rep.Stats.MapWaves != 3 {
			t.Fatalf("%d map waves; the edge needs fewer chunks than nodes", rep.Stats.MapWaves)
		}
		if got := renderPairs(rep.Pairs); got != want {
			t.Errorf("combiner=%v: 8 nodes over 3 chunks differ from single-node", comb == nil)
		}
		if f := rep.Stats.ShuffleFrames; f == 0 || f > 3*7 {
			t.Errorf("combiner=%v: %d frames from 3 non-empty nodes, want 1..21", comb == nil, f)
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

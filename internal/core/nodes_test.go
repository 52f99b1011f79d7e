package core

import (
	"errors"
	"io"
	"testing"

	"supmr/internal/memo"
	"supmr/internal/shuffle"
	"supmr/internal/storage"
	"supmr/internal/workload"
)

// TestNodeContainersRouteAndDrainOnce: with Nodes set, chunk i is
// combined in node i % Nodes's container and nowhere else — plain, on a
// cold memo store (misses drained and folded back) and on a warm one
// (hits folded from their encoded entries) alike — so the runs handed to
// the exchange hold exactly each node's distinct words, every container
// is drained once, and the caller's container is one of them. With the
// combiner ablated the per-chunk runs are handed in instead.
func TestNodeContainersRouteAndDrainOnce(t *testing.T) {
	const nodes, chunkSize = 3, 4 << 10
	text := genText(t, 64<<10)
	wc := wcApp{}
	ref := refCounts(text)

	// Distinct words per node under round-robin routing, and per chunk.
	perNode := make([]map[string]bool, nodes)
	for n := range perNode {
		perNode[n] = make(map[string]bool)
	}
	chunks, perChunkN := 0, 0
	for s := textStream(t, text, chunkSize); ; chunks++ {
		c, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		workload.Tokenize(c.Data, func(w []byte) { seen[string(w)] = true })
		for w := range seen {
			perNode[chunks%nodes][w] = true
		}
		perChunkN += len(seen)
		c.Release()
	}
	perNodeN := 0
	for _, words := range perNode {
		perNodeN += len(words)
	}
	if chunks <= 2*nodes || perNodeN >= perChunkN {
		t.Fatalf("%d chunks, %d per-node vs %d per-chunk entries: nothing for a node to combine", chunks, perNodeN, perChunkN)
	}

	store, err := memo.NewStore(memo.Config{Device: storage.NewNullDevice(storage.NewFakeClock())})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, tc := range []struct {
		name        string
		memo        bool
		combinerOff bool
		wantN       int // Stats.IntermediateN: pairs handed to the exchange
		wantDrains  int // "shuffle" tasks: one per drain with one worker
		wantHits    int
	}{
		{name: "plain", wantN: perNodeN, wantDrains: nodes},
		{name: "memo-cold", memo: true, wantN: perNodeN, wantDrains: nodes},
		{name: "memo-warm", memo: true, wantN: perNodeN, wantDrains: nodes, wantHits: chunks},
		{name: "combiner-off", combinerOff: true, wantN: perChunkN, wantDrains: chunks},
		{name: "combiner-off-memo-warm", memo: true, combinerOff: true, wantN: perChunkN, wantHits: chunks},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cont := wc.NewContainer(8)
			opts := Options{
				Workers:  1,
				Topology: shuffle.Topology{Nodes: nodes, CombinerOff: tc.combinerOff, Clock: storage.NewFakeClock()},
			}
			if tc.memo {
				opts.MemoStore, opts.MemoSpace = store, "wc"
			}
			res, err := Run[string, int64](wc, textStream(t, text, chunkSize), cont, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Pairs) != len(ref) {
				t.Fatalf("%d pairs, want %d distinct words", len(res.Pairs), len(ref))
			}
			for _, p := range res.Pairs {
				if ref[p.Key] != p.Val {
					t.Fatalf("count[%q] = %d, want %d", p.Key, p.Val, ref[p.Key])
				}
			}
			st := res.Stats
			if st.IntermediateN != tc.wantN {
				t.Errorf("IntermediateN = %d, want %d", st.IntermediateN, tc.wantN)
			}
			if got := st.Tasks["shuffle"].Tasks; got != tc.wantDrains {
				t.Errorf("%d shuffle tasks, want %d drains", got, tc.wantDrains)
			}
			if st.MemoHits != tc.wantHits {
				t.Errorf("%d memo hits, want %d", st.MemoHits, tc.wantHits)
			}
			if cont.Len() != 0 {
				t.Errorf("the caller's container still holds %d entries after the exchange; it is node 0's and must have been drained", cont.Len())
			}
		})
	}
}

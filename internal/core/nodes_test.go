package core

import (
	"errors"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/memo"
	"supmr/internal/metrics"
	"supmr/internal/shuffle"
	"supmr/internal/storage"
	"supmr/internal/workload"
)

// TestNodeContainersRouteAndDrainOnce: with Nodes set, chunk i is
// combined in node i % Nodes's container and nowhere else — plain, on a
// cold memo store (misses drained and folded back) and on a warm one
// (hits folded from their encoded entries) alike — so the entries handed
// to the exchange are exactly each node's distinct words: every
// container is reduced once before the exchange and never drained. With
// the combiner ablated the per-chunk drains are handed in instead. The
// exchange's tasks fold what each destination receives into its own
// container, the caller's being destination 0's, and each destination
// finishes like a single node: no task sorts or merges before the last
// exchange task.
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
		wantDrains  int // per-chunk drains, each one "shuffle" task with one worker, and the only ones
		wantHits    int
	}{
		{name: "plain", wantN: perNodeN},
		{name: "memo-cold", memo: true, wantN: perNodeN},
		{name: "memo-warm", memo: true, wantN: perNodeN, wantHits: chunks},
		{name: "combiner-off", combinerOff: true, wantN: perChunkN, wantDrains: chunks},
		{name: "combiner-off-memo-warm", memo: true, combinerOff: true, wantN: perChunkN, wantHits: chunks},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const parts = 8
			cont := wc.NewContainer(parts)
			pool := &labelLog{Pool: exec.NewLocal(1)}
			defer pool.Close()
			opts := Options{
				Pool:     pool,
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
			// The drains are the only "shuffle" tasks: destinations fold
			// what they receive inside the exchange's tasks. A node's
			// container is reduced before the exchange unless ablated, and
			// every destination's is reduced by its finish.
			if got := st.Tasks["shuffle"].Tasks; got != tc.wantDrains {
				t.Errorf("%d shuffle tasks, want %d drains", got, tc.wantDrains)
			}
			wantReduces := 2 * nodes * parts
			if tc.combinerOff {
				wantReduces = nodes * parts
			}
			if got := st.Tasks["reduce"].Tasks; got != wantReduces {
				t.Errorf("%d reduce tasks, want %d", got, wantReduces)
			}
			if st.MemoHits != tc.wantHits {
				t.Errorf("%d memo hits, want %d", st.MemoHits, tc.wantHits)
			}
			lastFold, firstSort := -1, len(pool.labels)
			for i, l := range pool.labels {
				switch l {
				case "exchange":
					lastFold = i
				case "sort", "merge":
					firstSort = min(firstSort, i)
				}
			}
			if firstSort == len(pool.labels) {
				t.Errorf("no destination sorted or merged: %v", pool.labels)
			}
			if firstSort < lastFold {
				t.Errorf("a %q task ran before the last exchange task: %v", pool.labels[firstSort], pool.labels)
			}
			// The caller's container is destination 0's: it holds the
			// lowest key range, the output's first cont.Len() keys.
			n := cont.Len()
			if n == 0 || n >= len(res.Pairs) {
				t.Fatalf("the caller's container holds %d of %d keys; it is destination 0's", n, len(res.Pairs))
			}
			for p := 0; p < cont.Partitions(); p++ {
				for _, e := range cont.Reduce(p, wc.Reduce, nil) {
					if i, ok := slices.BinarySearchFunc(res.Pairs[:n], e.Key, func(p kv.Pair[string, int64], k string) int {
						return strings.Compare(p.Key, k)
					}); !ok || res.Pairs[i] != e {
						t.Fatalf("the caller's container holds %v, not among destination 0's %d output pairs", e, n)
					}
				}
			}
		})
	}
}

// labelLog is an executor that logs the label of every ForEach call in
// call order.
type labelLog struct {
	*exec.Pool
	mu     sync.Mutex
	labels []string
}

func (l *labelLog) ForEach(label string, state metrics.WorkerState, n int, fn func(int) error) (time.Duration, error) {
	l.mu.Lock()
	l.labels = append(l.labels, label)
	l.mu.Unlock()
	return l.Pool.ForEach(label, state, n, fn)
}

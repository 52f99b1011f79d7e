package jobspec

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"supmr"
	"supmr/internal/apps"
)

// fmtDigest is the digest as it was computed before the typed encoder:
// DigestBytes over fmt's rendering of every pair.
func fmtDigest[K comparable, V any](pairs []supmr.Pair[K, V]) string {
	var b strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&b, "%v\t%v\n", p.Key, p.Val)
	}
	return DigestBytes([]byte(b.String()))
}

func checkDigest[K comparable, V any](t *testing.T, app string, pairs []supmr.Pair[K, V]) {
	t.Helper()
	if got, want := Digest(pairs), fmtDigest(pairs); got != want {
		t.Errorf("%s (%T -> %T): Digest = %.12s, DigestBytes of the fmt rendering = %.12s", app, *new(K), *new(V), got, want)
	}
	if Digest(pairs[:0]) != DigestBytes(nil) {
		t.Errorf("%s: empty output does not hash like empty bytes", app)
	}
}

// TestDigestEqualsDigestBytesOfRendering pins Digest(pairs) ==
// DigestBytes(rendered) for the key/value types of every bundled
// application, corners included: the typed encoder must not move a
// digest the fmt renderer produced.
func TestDigestEqualsDigestBytesOfRendering(t *testing.T) {
	many := make([]supmr.Pair[string, int64], 30000) // several flush blocks
	for i := range many {
		many[i] = supmr.Pair[string, int64]{Key: fmt.Sprintf("w%06d", i), Val: int64(i) - 15000}
	}
	checkDigest(t, "wordcount/grep", many)
	checkDigest(t, "wordcount/grep", []supmr.Pair[string, int64]{{Key: "", Val: 0}, {Key: "a\tb", Val: math.MinInt64}, {Key: "é", Val: math.MaxInt64}})
	checkDigest(t, "sort", []supmr.Pair[string, uint64]{{Key: "~sHd0jDv6X", Val: math.MaxUint64}, {Key: "AsfAGHM5om", Val: 0}})
	checkDigest(t, "histogram/psum", []supmr.Pair[int, int64]{{Key: 0, Val: 1}, {Key: 255, Val: -1}, {Key: math.MinInt, Val: math.MinInt64}})
	checkDigest(t, "linreg", []supmr.Pair[int, float64]{
		{Key: 0, Val: math.NaN()}, {Key: 1, Val: math.Inf(1)}, {Key: 2, Val: math.Inf(-1)}, {Key: 3, Val: math.Copysign(0, -1)},
		{Key: 4, Val: 1e21}, {Key: 5, Val: 5e-324}, {Key: 6, Val: 0.1}, {Key: 7, Val: 1e20}, {Key: 8, Val: -123456.789},
	})
	checkDigest(t, "invindex", []supmr.Pair[string, []string]{{Key: "w", Val: nil}, {Key: "x", Val: []string{"a.txt", "b c.txt"}}})
	checkDigest(t, "kmeans", []supmr.Pair[int, apps.ClusterAccum]{{Key: 0}, {Key: 1, Val: apps.ClusterAccum{N: 3, Sum: []float64{1.5, math.NaN(), -0.0}}}})
	checkDigest(t, "bytes", []supmr.Pair[string, []byte]{{Key: "k", Val: []byte("hi")}}) // %v prints [104 105]
}

// TestRunDigestEqualsEgressedBytes runs real specs end to end: the
// bytes egress wrote hash to the job's digest (DigestBytes == Digest),
// and neither a memory budget nor the radix ablation moves it.
func TestRunDigestEqualsEgressedBytes(t *testing.T) {
	for _, spec := range []Spec{
		{App: "wordcount", Size: 192 << 10, ChunkBytes: 32 << 10, EgressLanes: 2},
		{App: "wordcount", Size: 192 << 10, ChunkBytes: 32 << 10, EgressLanes: 2, Budget: 16 << 10},
		{App: "sort", Size: 300 << 10, ChunkBytes: 64 << 10, EgressLanes: 2},
		{App: "sort", Size: 300 << 10, ChunkBytes: 64 << 10, EgressLanes: 1, Budget: 32 << 10},
		{App: "sort", Size: 300 << 10, ChunkBytes: 64 << 10, EgressLanes: 2, Budget: 32 << 10, RadixOff: true},
		{App: "histogram", Size: 64 << 10, ChunkBytes: 16 << 10, EgressLanes: 3},
		{App: "grep", Size: 128 << 10, ChunkBytes: 32 << 10, Pattern: "ba,zu", EgressLanes: 2},
		{App: "psum1", Size: 64 << 10, ChunkBytes: 16 << 10, EgressLanes: 2},
	} {
		res, out, err := RunInput(context.Background(), spec, nil, nil)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		b, err := out.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if res.OutputPairs == 0 || int64(len(b)) != res.EgressBytes {
			t.Fatalf("%+v: %d pairs, %d egressed bytes, result says %d", spec, res.OutputPairs, len(b), res.EgressBytes)
		}
		if got := DigestBytes(b); got != res.Digest {
			t.Errorf("%+v: egressed bytes hash to %.12s, the pairs to %.12s", spec, got, res.Digest)
		}
		if spec.Budget > 0 && res.SpilledRuns == 0 {
			t.Errorf("%+v: nothing spilled", spec)
		}
		out.Close()
	}
	digests := map[string]string{}
	for _, spec := range []Spec{
		{App: "sort", Size: 300 << 10, ChunkBytes: 64 << 10},
		{App: "sort", Size: 300 << 10, ChunkBytes: 64 << 10, Budget: 32 << 10},
		{App: "sort", Size: 300 << 10, ChunkBytes: 64 << 10, Budget: 32 << 10, RadixOff: true},
		{App: "sort", Size: 300 << 10, ChunkBytes: 64 << 10, Runtime: "traditional"},
	} {
		res, err := Run(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		digests[res.Digest] = fmt.Sprintf("%+v", spec)
	}
	if len(digests) != 1 {
		t.Errorf("one sort, several digests: %v", digests)
	}
}

// TestSpecValidate tables the specs Validate accepts and rejects,
// including the mode rules it forwards to supmr.Config.Validate.
func TestSpecValidate(t *testing.T) {
	accept := []Spec{
		{App: "wordcount"},
		{App: "sort", Runtime: "supmr", Budget: 1 << 20, IOLanes: 4, PrefetchDepth: 3, EgressLanes: 2},
		{App: "sort", Runtime: "traditional", RadixOff: true},
		{App: "grep", Pattern: "a,b", Memo: true, MemoKey: "k"},
		{App: "wordcount", Memo: true, Nodes: 3, Budget: 1 << 20}, // memo and nodes compose; the budget is noted, not refused
		{App: "wordcount", Nodes: 2, InNodeCombinerOff: true},
		{App: "histogram", Nodes: 1},
		{App: "psum1", Block: 64},
		{App: "psum2", Block: 64, Blocks: 9},
		{App: "wordcount", Faults: "seed=7,read-err-every=5", Retries: "4", Tenant: "t", Weight: 3},
	}
	for _, s := range accept {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", s, err)
		}
	}
	reject := []struct {
		spec Spec
		want string // a fragment of the error
	}{
		{Spec{}, "missing app"},
		{Spec{App: "kmeans"}, "unknown app"},
		{Spec{App: "sort", Runtime: "spark"}, "unknown runtime"},
		{Spec{App: "sort", Size: -1}, "negative size"},
		{Spec{App: "sort", ChunkBytes: -1}, "negative chunk"},
		{Spec{App: "sort", Budget: -1}, "negative budget"},
		{Spec{App: "sort", BW: -1}, "negative bandwidth"},
		{Spec{App: "sort", IOLanes: -1}, "io_lanes"},
		{Spec{App: "sort", PrefetchDepth: -1}, "prefetch_depth"},
		{Spec{App: "sort", Weight: -1}, "negative weight"},
		{Spec{App: "sort", Nodes: -1}, "negative node count"},
		{Spec{App: "sort", EgressLanes: -1}, "egress_lanes"},
		{Spec{App: "sort", InNodeCombinerOff: true}, "without nodes"},
		{Spec{App: "sort", MemoKey: "k"}, "without memo"},
		{Spec{App: "histogram", Budget: 1 << 20}, "cannot spill"},
		{Spec{App: "sort", Faults: "read-err-every=x"}, "jobspec:"},
		{Spec{App: "sort", Retries: "attempts=-2"}, "jobspec:"},
		{Spec{App: "sort", Block: 8}, "block is only meaningful"},
		{Spec{App: "psum1", Blocks: 8}, "blocks is only meaningful"},
		{Spec{App: "psum1", Block: -1}, "negative block"},
		{Spec{App: "psum2", Blocks: -1}, "negative blocks"},
		// The mode rules, stated once in supmr.Config.Validate.
		{Spec{App: "wordcount", Runtime: "traditional", Memo: true}, "Memo requires RuntimeSupMR"},
		{Spec{App: "wordcount", Runtime: "traditional", Nodes: 2}, "Nodes requires RuntimeSupMR"},
		{Spec{App: "sort", Runtime: "traditional", Budget: 1 << 20}, "MemoryBudget requires RuntimeSupMR"},
	}
	for _, tc := range reject {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%+v accepted, want an error about %q", tc.spec, tc.want)
			continue
		}
		if !strings.HasPrefix(err.Error(), "jobspec: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %q, want a jobspec error about %q", tc.spec, err, tc.want)
		}
		if _, runErr := Run(context.Background(), tc.spec, nil); runErr == nil || runErr.Error() != err.Error() {
			t.Errorf("%+v: Run returned %v, want Validate's error before any work", tc.spec, runErr)
		}
	}
}

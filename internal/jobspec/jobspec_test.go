package jobspec

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"supmr"
	"supmr/internal/apps"
	"supmr/internal/cliutil"
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
		{App: "wordcount", Memo: true, Nodes: 3},
		{App: "wordcount", Nodes: 2, InNodeCombinerOff: true},
		{App: "histogram", Nodes: 1},
		{App: "psum1", Block: 64},
		{App: "psum2", Block: 64, Blocks: 9},
		{App: "wordcount", Faults: "seed=7,read-err-every=5", Retries: "4", Tenant: "t", Weight: 3},
		{App: "kmeans"},
		{App: "invindex", Solo: Solo{Files: 4, FileSize: 1 << 10}},
		{App: "invindex", Solo: Solo{Files: 4, FileSize: 1 << 10, FilesPerChunk: 1}},
		{App: "wordcount", ChunkBytes: 4 << 10, Solo: Solo{Files: 4, FileSize: 1 << 10, Hybrid: true}},
		{App: "linreg", Memo: true, Nodes: 2},
	}
	for _, s := range accept {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", s, err)
		}
	}
	// A malformed name or value string is a plain error: exit status 1.
	malformed := []struct {
		spec Spec
		want string // a fragment of the error
	}{
		{Spec{}, "missing app"},
		{Spec{App: "mapreduce-bitcoin-miner"}, "unknown app"},
		{Spec{App: "sort", Solo: Solo{Merge: "bogo"}}, "unknown merge algorithm"},
		{Spec{App: "sort", Runtime: "spark"}, "unknown runtime"},
		{Spec{App: "sort", Faults: "read-err-every=x"}, "jobspec:"},
		{Spec{App: "sort", Retries: "attempts=-2"}, "jobspec:"},
	}
	// A refusal, the Spec's own or a mode rule of supmr.Config, is a
	// *supmr.ConfigError naming both sides: exit status 2.
	const below0 = "a value below 0"
	refused := []struct {
		spec       Spec
		knob, with string
	}{
		// kmeans is a table entry like any other: it runs solo (accepted
		// above) and hits the rules its entry states.
		{Spec{App: "kmeans", Budget: 1 << 20}, "budget", "kmeans"},
		{Spec{App: "kmeans", Memo: true}, "memo", "kmeans"},
		{Spec{App: "kmeans", Nodes: 2}, "nodes", "kmeans"},
		{Spec{App: "invindex", Nodes: 2}, "nodes", "invindex"},
		{Spec{App: "linreg", Budget: 1 << 20}, "budget", "linreg"},
		{Spec{App: "histogram", Budget: 1 << 20}, "budget", "histogram"},
		{Spec{App: "sort", Solo: Solo{Files: 4, FileSize: 1 << 10}}, "files", "sort"},
		{Spec{App: "sort", Block: 8}, "block", "sort"},
		{Spec{App: "psum1", Blocks: 8}, "blocks", "psum1"},
		{Spec{App: "sort", MemoKey: "k"}, "memo_key", "memo off"},
		{Spec{App: "sort", Size: -1}, "size", below0},
		{Spec{App: "sort", BW: -1}, "bw", below0},
		{Spec{App: "psum1", Block: -1}, "block", below0},
		{Spec{App: "psum2", Blocks: -1}, "blocks", below0},
		// One cut per input: chunk is the byte cut of a multi-file input
		// only under hybrid, and invindex reads one file per chunk.
		{Spec{App: "wordcount", Solo: Solo{Hybrid: true}}, "hybrid", "a single-file input"},
		{Spec{App: "wordcount", Solo: Solo{Files: 4, Hybrid: true, WholeInput: true}}, "chunk", "a multi-file input"},
		{Spec{App: "invindex", Solo: Solo{Hybrid: true}}, "hybrid", "invindex"},
		{Spec{App: "invindex", Solo: Solo{FilesPerChunk: 2}}, "files_per_chunk", "invindex"},
		{Spec{App: "invindex", ChunkBytes: 64 << 10}, "chunk", "a multi-file input"},
		{Spec{App: "wordcount", ChunkBytes: 64 << 10, Solo: Solo{Files: 4}}, "chunk", "a multi-file input"},
		{Spec{App: "wordcount", Solo: Solo{Files: 4, WholeInput: true}}, "chunk", "a multi-file input"},
		{Spec{App: "wordcount", Solo: Solo{Files: 4, FilesPerChunk: -1}}, "FilesPerChunk", below0},
		// The mode rules, stated once in supmr.Config.Validate.
		{Spec{App: "sort", ChunkBytes: -1}, "ChunkBytes", below0},
		{Spec{App: "sort", Budget: -1}, "MemoryBudget", below0},
		{Spec{App: "sort", IOLanes: -1}, "IOLanes", below0},
		{Spec{App: "sort", PrefetchDepth: -1}, "PrefetchDepth", below0},
		{Spec{App: "sort", Weight: -1}, "Weight", below0},
		{Spec{App: "sort", Nodes: -1}, "Nodes", below0},
		{Spec{App: "sort", EgressLanes: -1}, "EgressLanes", below0},
		{Spec{App: "sort", InNodeCombinerOff: true}, "InNodeCombiner", "Nodes 0"},
		{Spec{App: "wordcount", Runtime: "traditional", Memo: true}, "Memo", "RuntimeTraditional"},
		{Spec{App: "wordcount", Runtime: "traditional", Nodes: 2}, "Nodes", "RuntimeTraditional"},
		{Spec{App: "sort", Runtime: "traditional", Budget: 1 << 20}, "MemoryBudget", "RuntimeTraditional"},
		{Spec{App: "wordcount", Memo: true, Nodes: 3, Budget: 1 << 20}, "MemoryBudget", "Memo"},
		{Spec{App: "wordcount", Nodes: 2, Budget: 1 << 20}, "MemoryBudget", "Nodes"},
		// A knob of a mode that is off.
		{Spec{App: "wordcount", Solo: Solo{MemoBudget: 1 << 20}}, "MemoBudget", "Memo off"},
		{Spec{App: "wordcount", Solo: Solo{EgressExtent: 64 << 10}}, "EgressExtentBytes", "EgressLanes 0"},
		{Spec{App: "wordcount", Solo: Solo{TraceBucket: time.Millisecond}}, "TraceBucket", "TraceContexts 0"},
	}
	for _, tc := range malformed {
		err := tc.spec.Validate()
		var ce *supmr.ConfigError
		if err == nil || !strings.HasPrefix(err.Error(), "jobspec: ") || !strings.Contains(err.Error(), tc.want) || errors.As(err, &ce) {
			t.Errorf("%+v: error %v, want an untyped jobspec error about %q", tc.spec, err, tc.want)
			continue
		}
		if _, runErr := Run(context.Background(), tc.spec, nil); runErr == nil || runErr.Error() != err.Error() {
			t.Errorf("%+v: Run returned %v, want Validate's error before any work", tc.spec, runErr)
		}
		if code := cliutil.ExitCode(err); code != 1 {
			t.Errorf("%+v: exit status %d for %q", tc.spec, code, err)
		}
	}
	for _, tc := range refused {
		err := tc.spec.Validate()
		var ce *supmr.ConfigError
		if !errors.As(err, &ce) || ce.Knob != tc.knob || ce.With != tc.with || !strings.HasPrefix(err.Error(), "jobspec: ") ||
			!strings.Contains(err.Error(), tc.knob) || !strings.Contains(err.Error(), tc.with) {
			t.Errorf("%+v: error %v, want a *supmr.ConfigError refusing %s with %s", tc.spec, err, tc.knob, tc.with)
			continue
		}
		if _, runErr := Run(context.Background(), tc.spec, nil); runErr == nil || runErr.Error() != err.Error() {
			t.Errorf("%+v: Run returned %v, want Validate's error before any work", tc.spec, runErr)
		}
		if code := cliutil.ExitCode(err); code != 2 {
			t.Errorf("%+v: exit status %d for %q", tc.spec, code, err)
		}
	}
}

// TestKMeansHonoursTheRuntime: the kmeans driver streams and merges as
// its config says — one map wave per iteration under the traditional
// preset, several under the pipeline — reports the runtime it ran, and
// fits the same model either way.
func TestKMeansHonoursTheRuntime(t *testing.T) {
	const model = "68b913f2303807c5b05e02a7581a7008406968eedcc507e820731ceb2f449c15"
	for _, rt := range []string{"", "traditional"} {
		res, err := Run(context.Background(), Spec{App: "kmeans", Runtime: rt, Size: 96 << 10, ChunkBytes: 16 << 10, Seed: 7}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var iters, waves int
		if _, err := fmt.Sscanf(res.Detail.Summary, "k-means: %d iterations, %d total map waves", &iters, &waves); err != nil {
			t.Fatalf("summary %q: %v", res.Detail.Summary, err)
		}
		want := supmr.RuntimeSupMR.String()
		if rt != "" {
			want = rt
		}
		if res.Runtime != want || res.Digest != model || waves != res.MapWaves {
			t.Errorf("runtime %q: reports %q, model %.12s, waves %d/%d", rt, res.Runtime, res.Digest, waves, res.MapWaves)
		}
		if whole := rt == "traditional"; whole != (waves == iters) || waves < iters {
			t.Errorf("runtime %q: %d map waves over %d iterations", rt, waves, iters)
		}
	}
}

// TestEveryAppRunsSoloAndOnAnEngine runs every table entry both ways,
// and the digests must agree: no app is missing from a surface by
// omission. It is the first jobspec coverage invindex, linreg and kmeans
// have.
func TestEveryAppRunsSoloAndOnAnEngine(t *testing.T) {
	eng := supmr.NewEngine(supmr.EngineConfig{Workers: 2, MaxJobs: 2})
	defer eng.Close()
	for _, a := range table {
		spec := Spec{App: a.name, Size: 96 << 10, ChunkBytes: 16 << 10, Seed: 7}
		if spec.MultiFile() {
			spec.ChunkBytes = 0 // cut by file count: a byte cut needs Solo.Hybrid
		}
		solo, err := Run(context.Background(), spec, nil)
		if err != nil {
			t.Fatalf("%s solo: %v", a.name, err)
		}
		if solo.OutputPairs == 0 && a.name != "grep" || solo.App != a.name || solo.Detail == nil {
			t.Errorf("%s solo: %d pairs, app %q, detail %v", a.name, solo.OutputPairs, solo.App, solo.Detail)
		}
		if a.name != "grep" && solo.Detail.Summary == "" {
			t.Errorf("%s: no summary line", a.name)
		}
		shared, err := Run(context.Background(), spec, eng)
		if err != nil {
			t.Fatalf("%s on an engine: %v", a.name, err)
		}
		if shared.Digest != solo.Digest || shared.OutputPairs != solo.OutputPairs {
			t.Errorf("%s: engine run %d pairs %.12s, solo %d pairs %.12s", a.name, shared.OutputPairs, shared.Digest, solo.OutputPairs, solo.Digest)
		}
	}
}

// TestAppNamesLiveInTheTable is a vet-style check: outside apps.go an
// application name never appears as a Go string literal in the layers
// that turn knobs into runs, so a new app is one table entry and cannot
// grow a second list. The exceptions are pipeline.go, whose two named
// pipelines are graphs over specific apps, and — the known remainder,
// outside the scanned directories — internal/dag's one line deriving
// psum2's block count from its upstream round.
func TestAppNamesLiveInTheTable(t *testing.T) {
	names := map[string]bool{}
	for _, a := range table {
		names[a.name] = true
	}
	for _, dir := range []string{"../../cmd/supmr", "../../cmd/supmrd", ".", "../server"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %v, %d files", dir, err, len(files))
		}
		for _, file := range files {
			switch base := filepath.Base(file); {
			case strings.HasSuffix(base, "_test.go"), base == "apps.go", base == "pipeline.go":
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if _, imp := n.(*ast.ImportSpec); imp {
					return false // package sort is not the app
				}
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil && names[v] {
						t.Errorf("%s: app name %s outside the table", fset.Position(lit.Pos()), lit.Value)
					}
				}
				return true
			})
		}
	}
}

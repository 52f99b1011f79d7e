package supmr

// The knob table: every stream knob of Config, and every combination of
// modes Validate rules on, crossed with the three ways a Config can name
// its runtime — not at all (the zero value), RuntimeSupMR and
// RuntimeTraditional — and with a submission to a shared Engine. Each
// cell has one of three outcomes and no other:
//
//   - effective: a named counter of the report moves against the row's
//     plain run (the same config without the knob), and the digest holds
//     unless the knob exists to change output;
//   - set aside: only under RuntimeTraditional, only for the preset's
//     documented list — the digest, MapWaves, MergeRounds and nil
//     IngestLaneBytes equal the plain traditional run's;
//   - refused: a *ConfigError naming the row's two sides, before any
//     input byte is read.
//
// An engine submission runs the pipeline, so its cells are the pipeline
// column's: effective or refused, never set aside.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"supmr/internal/apps"
)

type cellOutcome int

const (
	effective cellOutcome = iota
	setAside
	refused
)

// knobRow is one knob, or combination of knobs, of the table.
type knobRow struct {
	name string
	// files runs RunFiles over six small files instead of RunFile; slow
	// runs RunFile over a slow device with a late first map wave.
	files, slow bool
	base        func(*Config) // the row's plain run; nil is the bare config
	set         func(*Config) // the knob
	// counter names what moves when the knob takes effect; moved says it did.
	counter string
	moved   func(plain, got *Stats) bool
	// changesOutput marks a knob that exists to change the output.
	changesOutput bool
	// pipeline is the outcome with no runtime named, under RuntimeSupMR
	// and on an engine; traditional, under the preset.
	pipeline, traditional cellOutcome
	// refusal is the ConfigError's Knob and With where the pipeline
	// refuses; tradRefusal where the preset does, if it says otherwise.
	refusal, tradRefusal [2]string
}

func chunked(n int64) func(*Config) { return func(c *Config) { c.ChunkBytes = n } }

// slowFirstWave is word count whose first map wave starts 150 ms late,
// so the reads in flight have time to run ahead of it.
type slowFirstWave struct{ apps.WordCount }

func (slowFirstWave) SetData(c *Chunk) {
	if c.Index == 0 {
		time.Sleep(150 * time.Millisecond)
	}
}

// untouched fails the test when a refused run reads its input.
type untouched struct {
	Input
	t *testing.T
}

func (u untouched) ReadAt(p []byte, off int64) (int, error) {
	u.t.Errorf("refused run read %s at offset %d", u.Name(), off)
	return u.Input.ReadAt(p, off)
}

func TestConfigKnobTable(t *testing.T) {
	text := genText(t, 256<<10, 71)
	slowText := genText(t, 64<<10, 72)
	docs := make([][]byte, 6)
	for i := range docs {
		docs[i] = genText(t, 16<<10, int64(73+i))
	}
	// run executes one cell: the row's input shape under cfg, with every
	// read failing the test when guard is set.
	run := func(t *testing.T, r knobRow, cfg Config, guard bool) (*Report[string, int64], error) {
		wrap := func(in Input) Input {
			if guard {
				return untouched{in, t}
			}
			return in
		}
		clk := NewClock()
		cfg.Clock = clk
		if cfg.Workers == 0 {
			cfg.Workers = 2
		}
		switch {
		case r.files:
			files := make([]Input, len(docs))
			for i, d := range docs {
				files[i] = wrap(MemoryFile(fmt.Sprintf("doc%d", i), d, clk))
			}
			return RunFiles[string, int64](WordCountJob(), files, WordCountContainer(16), cfg)
		case r.slow:
			// 400 KiB/s: an 8 KiB chunk takes 20 ms to read.
			dev, err := NewDisk("ring", 400<<10, 0, clk)
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewByteFile("slow", slowText, dev)
			if err != nil {
				t.Fatal(err)
			}
			return RunFile[string, int64](slowFirstWave{}, wrap(f), WordCountContainer(16), cfg)
		default:
			return RunFile[string, int64](WordCountJob(), wrap(MemoryFile("text", text, clk)), WordCountContainer(16), cfg)
		}
	}
	store, err := NewMemoStore(MemoConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := NewEngine(EngineConfig{Workers: 2, IOLanes: 4})
	defer eng.Close()
	const rt = "RuntimeTraditional"
	mapWavesUp := func(p, g *Stats) bool { return g.MapWaves > p.MapWaves }
	mapWavesDown := func(p, g *Stats) bool { return g.MapWaves < p.MapWaves }
	rows := []knobRow{
		{name: "Workers", set: func(c *Config) { c.Workers = 1 }, counter: "Splits", moved: func(p, g *Stats) bool { return g.Splits < p.Splits }},
		{name: "ChunkBytes", set: chunked(32 << 10), counter: "MapWaves", moved: mapWavesUp, traditional: setAside},
		{name: "IOLanes", base: chunked(32 << 10), set: func(c *Config) { c.IOLanes = 4 },
			counter: "IngestLaneBytes", moved: func(p, g *Stats) bool { return p.IngestLaneBytes == nil && len(g.IngestLaneBytes) == 4 },
			traditional: setAside},
		{name: "PrefetchDepth", slow: true, base: chunked(8 << 10), set: func(c *Config) { c.PrefetchDepth = 4 },
			counter: "PrefetchHits", moved: func(p, g *Stats) bool { return g.PrefetchHits > p.PrefetchHits }, traditional: setAside},
		{name: "AdaptiveChunks", set: func(c *Config) { c.AdaptiveChunks = true }, counter: "MapWaves", moved: mapWavesUp, traditional: setAside},
		{name: "AdaptiveChunks+ChunkBytes", base: chunked(8 << 10), set: func(c *Config) { c.AdaptiveChunks = true },
			counter: "MapWaves", moved: mapWavesDown, traditional: setAside},
		{name: "ResetEachRound", base: chunked(32 << 10), set: func(c *Config) { c.ResetEachRound = true },
			counter: "IntermediateN", moved: func(p, g *Stats) bool { return g.IntermediateN < p.IntermediateN },
			changesOutput: true, traditional: refused, tradRefusal: [2]string{"ResetEachRound", rt}},
		{name: "FilesPerChunk", files: true, set: func(c *Config) { c.FilesPerChunk = 3 }, counter: "MapWaves", moved: mapWavesDown, traditional: setAside},
		// ChunkBytes is the hybrid byte cut of a multi-file input: the 16 KiB
		// files coalesce two to a chunk.
		{name: "ChunkBytes-RunFiles", files: true, set: chunked(32 << 10), counter: "MapWaves", moved: mapWavesDown, traditional: setAside},
		{name: "FilesPerChunk+ChunkBytes", files: true, set: func(c *Config) { c.FilesPerChunk, c.ChunkBytes = 3, 32<<10 }, pipeline: refused, traditional: setAside,
			refusal: [2]string{"FilesPerChunk", "ChunkBytes"}},
		// Files lie end to end, so a resized byte cut could fuse a record
		// across a file boundary by timing: refused with a cut or without.
		{name: "AdaptiveChunks+ChunkBytes-RunFiles", files: true, base: chunked(8 << 10), set: func(c *Config) { c.AdaptiveChunks = true }, pipeline: refused, traditional: setAside,
			refusal: [2]string{"AdaptiveChunks", "a multi-file input"}},
		{name: "AdaptiveChunks-RunFiles", files: true, set: func(c *Config) { c.AdaptiveChunks = true }, pipeline: refused, traditional: setAside,
			refusal: [2]string{"AdaptiveChunks", "a multi-file input"}},
		{name: "FilesPerChunk-RunFile", set: func(c *Config) { c.FilesPerChunk = 3 }, pipeline: refused, traditional: setAside,
			refusal: [2]string{"FilesPerChunk", "a single-file input"}},
		// Merge is honoured by the preset too: each column overrides its
		// own default.
		{name: "Merge", set: func(c *Config) {
			m := MergePairwise
			if c.Runtime == RuntimeTraditional {
				m = MergePWay
			}
			c.Merge = &m
		}, counter: "MergeRounds", moved: func(p, g *Stats) bool { return g.MergeRounds != p.MergeRounds }},
		{name: "Memo", base: chunked(32 << 10), set: func(c *Config) { c.Memo = true },
			counter: "MemoMisses", moved: func(p, g *Stats) bool { return p.MemoMisses == 0 && g.MemoMisses > 0 },
			traditional: refused, tradRefusal: [2]string{"Memo", rt}},
		{name: "Memo-RunFiles", files: true, set: func(c *Config) { c.ChunkBytes, c.Memo = 32<<10, true }, pipeline: refused, traditional: refused,
			refusal: [2]string{"Memo", "a multi-file input"}, tradRefusal: [2]string{"Memo", rt}},
		{name: "Nodes", base: chunked(32 << 10), set: func(c *Config) { c.Nodes = 2 },
			counter: "ShuffleFrames", moved: func(p, g *Stats) bool { return p.ShuffleFrames == 0 && g.ShuffleFrames > 0 },
			traditional: refused, tradRefusal: [2]string{"Nodes", rt}},
		{name: "MemoryBudget", base: chunked(32 << 10), set: func(c *Config) { c.MemoryBudget = 16 << 10 },
			counter: "SpilledRuns", moved: func(p, g *Stats) bool { return p.SpilledRuns == 0 && g.SpilledRuns > 0 },
			traditional: refused, tradRefusal: [2]string{"MemoryBudget", rt}},
		{name: "MemoryBudget+Memo", set: func(c *Config) { c.ChunkBytes, c.Memo, c.MemoryBudget = 32<<10, true, 16<<10 }, pipeline: refused, traditional: refused,
			refusal: [2]string{"MemoryBudget", "Memo"}, tradRefusal: [2]string{"Memo", rt}},
		{name: "MemoBudget+MemoStore", set: func(c *Config) { c.ChunkBytes, c.Memo, c.MemoStore, c.MemoBudget = 32<<10, true, store, 1<<20 },
			pipeline: refused, traditional: refused, refusal: [2]string{"MemoBudget", "a supplied MemoStore"}, tradRefusal: [2]string{"Memo", rt}},
		{name: "MemoryBudget+Nodes", set: func(c *Config) { c.ChunkBytes, c.Nodes, c.MemoryBudget = 32<<10, 2, 16<<10 }, pipeline: refused, traditional: refused,
			refusal: [2]string{"MemoryBudget", "Nodes"}, tradRefusal: [2]string{"Nodes", rt}},
		{name: "Memo+AdaptiveChunks", set: func(c *Config) { c.ChunkBytes, c.Memo, c.AdaptiveChunks = 32<<10, true, true }, pipeline: refused, traditional: refused,
			refusal: [2]string{"Memo", "AdaptiveChunks"}, tradRefusal: [2]string{"Memo", rt}},
		{name: "Memo+ResetEachRound", set: func(c *Config) { c.ChunkBytes, c.Memo, c.ResetEachRound = 32<<10, true, true }, pipeline: refused, traditional: refused,
			refusal: [2]string{"Memo", "ResetEachRound"}, tradRefusal: [2]string{"Memo", rt}},
		// A key's node is chosen by key range, so retuned chunk boundaries
		// move wire counts but never the output: the digest holds, with one
		// lane and with four.
		{name: "Nodes+AdaptiveChunks", base: func(c *Config) { c.ChunkBytes, c.Nodes = 8<<10, 2 }, set: func(c *Config) { c.AdaptiveChunks = true },
			counter: "MapWaves", moved: mapWavesDown, traditional: refused, tradRefusal: [2]string{"Nodes", rt}},
		{name: "Nodes+AdaptiveChunks+IOLanes", base: func(c *Config) { c.ChunkBytes, c.Nodes, c.IOLanes = 8<<10, 2, 4 }, set: func(c *Config) { c.AdaptiveChunks = true },
			counter: "MapWaves", moved: mapWavesDown, traditional: refused, tradRefusal: [2]string{"Nodes", rt}},
		{name: "Nodes+ResetEachRound", set: func(c *Config) { c.ChunkBytes, c.Nodes, c.ResetEachRound = 32<<10, 2, true }, pipeline: refused, traditional: refused,
			refusal: [2]string{"Nodes", "ResetEachRound"}, tradRefusal: [2]string{"Nodes", rt}},
		// A knob of a mode that is not on.
		{name: "InNodeCombiner-without-Nodes", set: func(c *Config) { off := false; c.ChunkBytes, c.InNodeCombiner = 32<<10, &off },
			pipeline: refused, traditional: refused, refusal: [2]string{"InNodeCombiner", "Nodes 0"}},
		{name: "NodeLinkBW-without-Nodes", set: func(c *Config) { c.NodeLinkBW = 1e6 }, pipeline: refused, traditional: refused,
			refusal: [2]string{"NodeLinkBW", "Nodes 0"}},
		{name: "NodeLinkLatency-without-Nodes", set: func(c *Config) { c.NodeLinkLatency = time.Millisecond }, pipeline: refused, traditional: refused,
			refusal: [2]string{"NodeLinkLatency", "Nodes 0"}},
		{name: "MemoBudget-without-Memo", set: func(c *Config) { c.MemoBudget = 1 << 20 }, pipeline: refused, traditional: refused,
			refusal: [2]string{"MemoBudget", "Memo off"}},
		{name: "EgressExtentBytes-without-EgressLanes", set: func(c *Config) { c.EgressExtentBytes = 8 << 10 }, pipeline: refused, traditional: refused,
			refusal: [2]string{"EgressExtentBytes", "EgressLanes 0"}},
		{name: "TraceBucket-without-TraceContexts", set: func(c *Config) { c.TraceBucket = time.Millisecond }, pipeline: refused, traditional: refused,
			refusal: [2]string{"TraceBucket", "TraceContexts 0"}},
	}
	// A value below zero is refused whatever the runtime.
	for _, n := range []struct {
		knob string
		set  func(*Config)
	}{
		{"Workers", func(c *Config) { c.Workers = -1 }}, {"Splits", func(c *Config) { c.Splits = -1 }},
		{"ChunkBytes", func(c *Config) { c.ChunkBytes = -1 }}, {"FilesPerChunk", func(c *Config) { c.FilesPerChunk = -1 }},
		{"MemoryBudget", func(c *Config) { c.MemoryBudget = -1 }},
		{"IOLanes", func(c *Config) { c.IOLanes = -1 }}, {"PrefetchDepth", func(c *Config) { c.PrefetchDepth = -1 }},
		{"Weight", func(c *Config) { c.Weight = -1 }}, {"Nodes", func(c *Config) { c.Nodes = -1 }},
		{"EgressLanes", func(c *Config) { c.EgressLanes = -1 }}, {"EgressExtentBytes", func(c *Config) { c.EgressLanes, c.EgressExtentBytes = 1, -1 }},
	} {
		rows = append(rows, knobRow{name: n.knob + "-negative", set: n.set, pipeline: refused, traditional: refused,
			refusal: [2]string{n.knob, "a value below 0"}})
	}
	// The unset column leaves Runtime at its zero value, whatever that is.
	columns := []struct {
		name string
		set  func(*Config)
	}{
		{"unset", func(*Config) {}},
		{"supmr", func(c *Config) { c.Runtime = RuntimeSupMR }},
		{"traditional", func(c *Config) { c.Runtime = RuntimeTraditional }},
		{"engine", func(c *Config) { c.Engine = eng }},
	}

	// The two defaults every row's plain run stands on: the zero Config
	// is the pipeline (p-way, one merge round) and the preset is the
	// baseline (one wave, pairwise); a chunked zero Config pipelines.
	t.Run("defaults", func(t *testing.T) {
		plain, err := run(t, knobRow{}, Config{}, false)
		if err != nil {
			t.Fatal(err)
		}
		trad, err := run(t, knobRow{}, Config{Runtime: RuntimeTraditional}, false)
		if err != nil {
			t.Fatal(err)
		}
		piped, err := run(t, knobRow{}, Config{ChunkBytes: 16 << 10, IOLanes: 4, PrefetchDepth: 3}, false)
		if err != nil {
			t.Fatal(err)
		}
		if s := plain.Stats; s.MapWaves != 1 || s.MergeRounds != 1 {
			t.Errorf("zero Config: %d map waves, %d merge rounds; want the p-way merge over one chunk", s.MapWaves, s.MergeRounds)
		}
		if s := trad.Stats; s.MapWaves != 1 || s.MergeRounds <= 1 {
			t.Errorf("traditional: %d map waves, %d merge rounds; want the pairwise merge over one chunk", s.MapWaves, s.MergeRounds)
		}
		if s := piped.Stats; s.MapWaves != 16 || s.MergeRounds != 1 || len(s.IngestLaneBytes) != 4 {
			t.Errorf("chunked zero Config: %d map waves, %d merge rounds, lane bytes %v; want 16, 1, four lanes",
				s.MapWaves, s.MergeRounds, s.IngestLaneBytes)
		}
		if a, b, c := renderWC(plain.Pairs), renderWC(trad.Pairs), renderWC(piped.Pairs); a != b || a != c {
			t.Error("the defaults disagree on the output")
		}
	})

	// The engine's shared store has its own budget, as a supplied one does.
	t.Run("MemoBudget+engine store", func(t *testing.T) {
		shared := NewEngine(EngineConfig{Workers: 2, Memo: store})
		defer shared.Close()
		_, err := run(t, knobRow{}, Config{Engine: shared, ChunkBytes: 32 << 10, Memo: true, MemoBudget: 1 << 20}, true)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Knob != "MemoBudget" || ce.With != "a supplied MemoStore" {
			t.Fatalf("%v, want MemoBudget refused beside the engine's store", err)
		}
	})

	for _, r := range rows {
		for _, col := range columns {
			t.Run(r.name+"/"+col.name, func(t *testing.T) {
				var cfg Config
				col.set(&cfg)
				want := r.pipeline
				if col.name == "traditional" {
					want = r.traditional
				}
				if r.base != nil {
					r.base(&cfg)
				}
				knob := cfg
				r.set(&knob)
				if want == refused {
					side := r.refusal
					if col.name == "traditional" && r.tradRefusal[0] != "" {
						side = r.tradRefusal
					}
					_, err := run(t, r, knob, true)
					var ce *ConfigError
					if !errors.As(err, &ce) || ce.Knob != side[0] || ce.With != side[1] || ce.Reason == "" ||
						!strings.Contains(err.Error(), side[0]) || !strings.Contains(err.Error(), side[1]) {
						t.Fatalf("%v, want a *ConfigError refusing %s with %s", err, side[0], side[1])
					}
					return
				}
				plain, err := run(t, r, cfg, false)
				if err != nil {
					t.Fatal(err)
				}
				got, err := run(t, r, knob, false)
				if err != nil {
					t.Fatal(err)
				}
				p, g := &plain.Stats, &got.Stats
				sameOutput := renderWC(plain.Pairs) == renderWC(got.Pairs)
				switch want {
				case setAside:
					if !sameOutput || g.MapWaves != p.MapWaves || g.MergeRounds != p.MergeRounds || g.IngestLaneBytes != nil || g.MapWaves != 1 {
						t.Errorf("set aside, yet the run moved: output same %v, waves %d/%d, rounds %d/%d, lane bytes %v",
							sameOutput, g.MapWaves, p.MapWaves, g.MergeRounds, p.MergeRounds, g.IngestLaneBytes)
					}
				case effective:
					if !r.moved(p, g) {
						t.Errorf("accepted but %s did not move: %+v against the plain run's %+v", r.counter, *g, *p)
					}
					if sameOutput == r.changesOutput {
						t.Errorf("output changed %v, want %v", !sameOutput, r.changesOutput)
					}
				}
			})
		}
	}
}

// TestEveryKnobRuled: every Config field is named by a row of
// modeRules, as the knob or in what it clashes with, or is listed here
// as free, with the reason it needs no rule.
func TestEveryKnobRuled(t *testing.T) {
	free := map[string]string{
		"Context":      "substrate: cancellation, honoured in every mode",
		"Clock":        "substrate: the job clock",
		"Boundary":     "substrate: the input's record format",
		"SpillDevice":  "a device: accepted without MemoryBudget until the benchmark's traditional variant clears it",
		"EgressDevice": "a device: charged only by the egress writes it meets",
		"Faults":       "substrate: the fault plan covers whichever sites the run has",
		"Retry":        "substrate: the retry policy of whichever sites the run has",
		"Engine":       "substrate: every mode runs on an engine as it does solo",
		"Merge":        "honoured in every mode, the preset included",
		"RadixSort":    "an ablation of the sort fast path, honoured in every mode",
		"Tenant":       "accepted without Engine until the benchmark's solo variant clears it",
		"MemoKeySpace": "accepted without Memo until the benchmark's memo-off and traditional variants clear it",
	}
	named := map[string]bool{}
	for _, r := range modeRules {
		named[r.knob] = true
		for _, w := range strings.Fields(r.with) {
			named[w] = true
		}
	}
	named["Runtime"] = named["RuntimeTraditional"] // the preset is a value of Runtime
	fields := reflect.TypeOf(Config{})
	for i := 0; i < fields.NumField(); i++ {
		f := fields.Field(i).Name
		switch why, ok := free[f]; {
		case named[f] && ok:
			t.Errorf("Config.%s is named by a rule and listed as free (%s)", f, why)
		case !named[f] && !ok:
			t.Errorf("Config.%s is named by no rule of modeRules and not listed as free", f)
		}
		delete(free, f)
	}
	for f := range free {
		t.Errorf("free lists %s, which is no Config field", f)
	}
}

// TestRuntimeReadOnce is a vet-style check that the RuntimeTraditional
// preset is applied at one site: in package supmr's non-test Go, one
// function refers to the .Runtime field — Config.resolve — and
// everything downstream reads the settings it produces. Config is the
// only type in the package with a Runtime field, so any .Runtime
// selector is that field.
func TestRuntimeReadOnce(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	sites := map[string]bool{}
	var holders []string
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			site := "package scope of " + file
			if fd, ok := decl.(*ast.FuncDecl); ok {
				site = fd.Name.Name
				if fd.Recv != nil {
					site = types.ExprString(fd.Recv.List[0].Type) + "." + site
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if n.Sel.Name == "Runtime" {
						sites[site] = true
					}
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, name := range fld.Names {
								if name.Name == "Runtime" {
									holders = append(holders, n.Name.Name)
								}
							}
						}
					}
				}
				return true
			})
		}
	}
	if len(holders) != 1 || holders[0] != "Config" {
		t.Fatalf("types with a Runtime field: %v; the check assumes Config alone", holders)
	}
	if len(sites) != 1 || !sites["Config.resolve"] {
		t.Errorf(".Runtime is read in %v; only Config.resolve may read it", sites)
	}
}

// TestNoKnobIgnored is a vet-style check on the API's promise that a
// knob takes effect or is refused: no doc comment of a field of Config,
// EngineConfig or Report calls anything "ignored" or "disabled".
func TestNoKnobIgnored(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || (ts.Name.Name != "Config" && ts.Name.Name != "EngineConfig" && ts.Name.Name != "Report") {
				return true
			}
			seen[ts.Name.Name] = true
			for _, fld := range st.Fields.List {
				doc := strings.ToLower(fld.Doc.Text() + fld.Comment.Text())
				for _, word := range []string{"ignored", "disabled"} {
					if strings.Contains(doc, word) {
						t.Errorf("%s: %s.%s: its doc says %q; a knob takes effect or Validate refuses it",
							fset.Position(fld.Pos()), ts.Name.Name, fld.Names[0].Name, word)
					}
				}
			}
			return false
		})
	}
	if len(seen) != 3 {
		t.Fatalf("found %v; the check covers Config, EngineConfig and Report", seen)
	}
}

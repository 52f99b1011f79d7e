package jobspec

import (
	"fmt"
	"strings"

	"supmr"
	"supmr/internal/workload"
)

// app is one row of the application table: everything an app name
// means. Spec.check, the memo key space, CanConsumePiped, the -app help
// strings and the run itself read it, so a new application — or a new
// rule about an old one — is an edit here and nowhere else.
type app struct {
	name string
	// input generates the workload on the run's device from the spec's
	// size and seed. nil: the app has no single-file form and reads Size
	// split over 16 documents.
	input func(r *run) (supmr.Input, error)
	// docs, when set, is the name prefix of a multi-file text input
	// (Solo.Files): the app can map one.
	docs string
	// piped: the app parses newline-terminated "key\tvalue" text — the
	// egress rendering — so it can run over a piped upstream output in a
	// DAG. The others need their generated record format and can only
	// be source rounds.
	piped bool
	// block, blocks: the app reads Spec.Block, Spec.Blocks.
	block, blocks bool
	// keySpace derives the memo key space when more than the app's name
	// and a chunk's content shapes the chunk's map output.
	keySpace func(Spec) string
	// refuses gives the reason for each mode the app cannot run in, by
	// its Spec knob: budget, memo, nodes, hybrid or files_per_chunk (above 1).
	refuses map[string]string
	// run executes the typed job in the container §V-B prescribes for
	// its key distribution.
	run func(r *run) (*Result, *supmr.EgressOutput, error)
}

// DefaultApp is what -app defaults to on every command line.
const DefaultApp = "wordcount"

const fixedFootprint = "its array container has a fixed footprint and cannot spill"

var table = []app{
	{
		name: "wordcount", input: text("wcinput"), docs: "wc", piped: true,
		run: func(r *run) (*Result, *supmr.EgressOutput, error) {
			cont := supmr.WordCountContainer(64)
			if r.spec.Solo.MapCombiner {
				cont = supmr.WordCountMapContainer(64)
			}
			return execJob(r, supmr.WordCountJob(), cont, func(rep *supmr.Report[string, int64]) string {
				return fmt.Sprintf("distinct words: %d  occurrences kept: %d  map waves: %d\n",
					len(rep.Pairs), rep.Stats.IntermediateN, rep.Stats.MapWaves)
			})
		},
	},
	{
		name: "sort",
		input: func(r *run) (supmr.Input, error) {
			return supmr.TeraFile("sortinput", r.spec.Size/100, uint64(r.spec.Seed), r.dev)
		},
		run: func(r *run) (*Result, *supmr.EgressOutput, error) {
			return execJob(r, supmr.SortJob(), supmr.SortContainer(), func(rep *supmr.Report[string, uint64]) string {
				return fmt.Sprintf("records sorted: %d  map waves: %d  merge rounds: %d\n",
					len(rep.Pairs), rep.Stats.MapWaves, rep.Stats.MergeRounds)
			})
		},
	},
	{
		name: "histogram", input: text("histinput"), piped: true,
		refuses: map[string]string{"budget": fixedFootprint},
		run: func(r *run) (*Result, *supmr.EgressOutput, error) {
			job := supmr.HistogramJob()
			return execJob(r, job, job.NewContainer(8), func(rep *supmr.Report[int, int64]) string {
				return fmt.Sprintf("byte values seen: %d  map waves: %d\n", len(rep.Pairs), rep.Stats.MapWaves)
			})
		},
	},
	{
		name: "grep", input: text("grepinput"), piped: true,
		keySpace: func(s Spec) string { return "grep:" + patterns(s) },
		run: func(r *run) (*Result, *supmr.EgressOutput, error) {
			job := supmr.GrepJob(strings.Split(patterns(r.spec), ",")...)
			cont := job.NewContainer()
			if r.spec.Solo.MapCombiner {
				cont = job.NewMapContainer()
			}
			return execJob(r, job, cont, func(rep *supmr.Report[string, int64]) string {
				var b strings.Builder
				for _, p := range rep.Pairs {
					fmt.Fprintf(&b, "  %-16s %d matching lines\n", p.Key, p.Val)
				}
				return b.String()
			})
		},
	},
	{
		name: "psum1", block: true,
		input: func(r *run) (supmr.Input, error) {
			return supmr.SeqFile("psuminput", r.spec.Size/workload.SeqRecordWidth, r.spec.Seed, r.dev)
		},
		run: func(r *run) (*Result, *supmr.EgressOutput, error) {
			job := supmr.PrefixPartJob(blockSize(r.spec))
			return execJob(r, job, job.NewContainer(64), func(rep *supmr.Report[int, int64]) string {
				return fmt.Sprintf("block sums: %d  map waves: %d\n", len(rep.Pairs), rep.Stats.MapWaves)
			})
		},
	},
	{
		name: "psum2", piped: true, block: true, blocks: true,
		input: func(r *run) (supmr.Input, error) {
			// Standalone: synthesize round 1's reference output from the
			// generator's expected block sums.
			sums := workload.SeqGen{Seed: r.spec.Seed}.BlockSums(r.spec.Size/workload.SeqRecordWidth, blockSize(r.spec))
			var buf strings.Builder
			for b, s := range sums {
				fmt.Fprintf(&buf, "%d\t%d\n", b, s)
			}
			if r.spec.Blocks <= 0 {
				r.spec.Blocks = int64(len(sums))
			}
			return supmr.MemoryFile("psum2input", []byte(buf.String()), r.cfg.Clock), nil
		},
		run: func(r *run) (*Result, *supmr.EgressOutput, error) {
			if r.spec.Blocks <= 0 {
				return nil, nil, fmt.Errorf("jobspec: psum2 over a piped input needs blocks (the upstream round's block count)")
			}
			job := supmr.PrefixTotalJob(r.spec.Blocks)
			return execJob(r, job, job.NewContainer(64), func(rep *supmr.Report[int, int64]) string {
				return fmt.Sprintf("prefix totals: %d  map waves: %d\n", len(rep.Pairs), rep.Stats.MapWaves)
			})
		},
	},
	{
		name: "invindex", docs: "doc",
		refuses: map[string]string{
			"budget":          "[]string values have no spill codec",
			"memo":            "[]string values have no cache codec",
			"nodes":           "[]string values have no wire codec",
			"hybrid":          "it credits each word to every file of its chunk, and a byte cut puts several files in one",
			"files_per_chunk": "it credits each word to every file of its chunk, so a chunk holds one file",
		},
		run: func(r *run) (*Result, *supmr.EgressOutput, error) {
			job := supmr.InvertedIndexJob()
			return execJob(r, job, job.NewContainer(32), func(rep *supmr.Report[string, []string]) string {
				return fmt.Sprintf("indexed words: %d  files: %d\n", len(rep.Pairs), len(r.files))
			})
		},
	},
	{
		name: "linreg", input: text("points"), // any bytes are points
		refuses: map[string]string{"budget": fixedFootprint},
		run: func(r *run) (*Result, *supmr.EgressOutput, error) {
			job := supmr.LinearRegressionJob()
			return execJob(r, job, job.NewContainer(), func(rep *supmr.Report[int, float64]) string {
				slope, intercept, ok := job.Fit(rep.Pairs)
				if !ok {
					return ""
				}
				return fmt.Sprintf("fit: y = %.4f*x + %.2f over %d points\n", slope, intercept, int64(rep.Pairs[0].Val))
			})
		},
	},
	{
		name: "kmeans", input: text("points"), // bytes as 2-D points
		refuses: map[string]string{
			"budget": "ClusterAccum values have no spill codec",
			"memo":   "map output depends on the evolving centroids, not just chunk content, so cached chunks would replay stale assignments",
			"nodes":  "ClusterAccum values have no wire codec",
		},
		// One ordinary job per iteration, so it reports the model rather
		// than one job's pairs: one pair per cluster.
		run: func(r *run) (*Result, *supmr.EgressOutput, error) {
			km := supmr.KMeansJob(4, 2)
			km.Epsilon = 0.05
			out, err := supmr.RunKMeans(km, r.file, r.cfg, 25)
			if err != nil {
				return nil, nil, err
			}
			sum := fmt.Sprintf("k-means: %d iterations, %d total map waves, final movement %.4f\n", out.Iterations, out.Waves, out.Moved)
			model := make([]supmr.Pair[int, string], len(out.Sizes))
			for i, n := range out.Sizes {
				model[i] = supmr.Pair[int, string]{Key: i, Val: fmt.Sprintf("%d points, centroid (%.1f, %.1f)", n, km.Centroids[i][0], km.Centroids[i][1])}
				sum += fmt.Sprintf("  cluster %d: %s\n", i, model[i].Val)
			}
			return &Result{
				Runtime: r.cfg.Runtime.String(), OutputPairs: len(model), Digest: Digest(model),
				MapWaves: out.Waves, Detail: &Detail{Summary: sum},
			}, nil, nil
		},
	},
}

// text generates the run's input as one text file called name.
func text(name string) func(*run) (supmr.Input, error) {
	return func(r *run) (supmr.Input, error) { return supmr.TextFile(name, r.spec.Size, r.spec.Seed, r.dev) }
}

// patterns is the spec's comma-separated grep pattern list.
func patterns(s Spec) string {
	if s.Pattern == "" {
		return "ERROR"
	}
	return s.Pattern
}

// blockSize is the spec's records-per-block grouping for the psum rounds.
func blockSize(s Spec) int64 {
	if s.Block <= 0 {
		return 256
	}
	return s.Block
}

func lookup(name string) *app {
	for i := range table {
		if table[i].name == name {
			return &table[i]
		}
	}
	return nil
}

// appList names the table's entries that ok accepts, in table order.
func appList(ok func(*app) bool) string {
	var names []string
	for i := range table {
		if ok(&table[i]) {
			names = append(names, table[i].name)
		}
	}
	return strings.Join(names, " | ")
}

// Apps lists every application name, as help strings and the unknown-app
// error print it.
func Apps() string { return appList(func(*app) bool { return true }) }

// CanConsumePiped reports whether app can run over a piped upstream
// output (internal/dag uses this to validate graph edges).
func CanConsumePiped(name string) bool {
	a := lookup(name)
	return a != nil && a.piped
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"supmr"
	"supmr/internal/jobspec"
	"supmr/internal/server"
)

// TestMain re-execs the test binary as the supmr command when asked:
// the error-path test below needs real exit codes and stderr, which
// calling run() in-process cannot observe.
func TestMain(m *testing.M) {
	if os.Getenv("SUPMR_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestPermanentFaultFailsCleanly pins the CLI's error path: a fault
// plan with a permanent ingest fault must make the command exit
// non-zero with a single wrapped error line on stderr — no panic, no
// hang, no partial-success exit 0.
func TestPermanentFaultFailsCleanly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0],
		"-app", "wordcount", "-runtime", "supmr", "-size", "256k", "-chunk", "32k", "-bw", "0",
		"-faults", "seed=3,read-err-every=2,permanent")
	cmd.Env = append(os.Environ(), "SUPMR_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr

	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("command hung past the watchdog; stderr so far:\n%s", stderr.String())
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want a non-zero exit, got err=%v, stderr:\n%s", err, stderr.String())
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	out := stderr.String()
	if strings.Contains(out, "panic") || strings.Contains(stdout.String(), "panic") {
		t.Fatalf("command panicked:\n%s%s", stdout.String(), out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("want exactly one stderr line, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "supmr: ") {
		t.Fatalf("stderr line not prefixed with the command name: %q", lines[0])
	}
	if !strings.Contains(lines[0], "injected fault") {
		t.Fatalf("stderr does not surface the injected fault: %q", lines[0])
	}
}

// TestFaultedRunRecoversWithRetries is the success twin: the same
// command with a sparser transient plan and retries must exit zero and
// report the fault counters on stdout.
func TestFaultedRunRecoversWithRetries(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0],
		"-app", "wordcount", "-runtime", "supmr", "-size", "256k", "-chunk", "32k", "-bw", "0",
		"-faults", "seed=1,read-err-every=5", "-retries", "4")
	cmd.Env = append(os.Environ(), "SUPMR_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr

	if err := cmd.Run(); err != nil {
		t.Fatalf("recovering run failed: %v\nstderr:\n%s", err, stderr.String())
	}
	if ctx.Err() != nil {
		t.Fatal("command hung past the watchdog")
	}
	out := stdout.String()
	if !strings.Contains(out, "faults: injected=") {
		t.Fatalf("stdout does not report fault counters:\n%s", out)
	}
	if !strings.Contains(out, "recovered=") {
		t.Fatalf("fault counter line lacks recovery stats:\n%s", out)
	}
}

// TestBadFaultPlanRejected covers flag validation: a malformed plan
// must fail fast with a parse error, before any job runs.
func TestBadFaultPlanRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0],
		"-app", "wordcount", "-size", "64k", "-bw", "0", "-faults", "read-err=1.5")
	cmd.Env = append(os.Environ(), "SUPMR_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1 for a bad plan, got %v; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "probability") {
		t.Fatalf("stderr does not explain the bad probability: %s", stderr.String())
	}
}

// TestBadKnobsExitUsage covers flag validation for the ingest and
// budget knobs: non-positive lane counts, prefetch depths and negative
// budgets are usage errors — exit 2 with a descriptive line — caught
// before any job runs.
func TestBadKnobsExitUsage(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"io-lanes-zero", []string{"-io-lanes", "0"}, "below minimum"},
		{"io-lanes-negative", []string{"-io-lanes", "-3"}, "below minimum"},
		{"prefetch-zero", []string{"-prefetch-depth", "0"}, "below minimum"},
		{"prefetch-garbage", []string{"-prefetch-depth", "lots"}, "bad count"},
		{"budget-negative", []string{"-budget", "-5m"}, "negative size"},
		{"size-garbage", []string{"-size", "12q"}, "bad size"},
		{"memo-budget-negative", []string{"-memo-budget", "-2m"}, "negative size"},
		{"memo-budget-garbage", []string{"-memo-budget", "lots"}, "bad size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			args := append([]string{"-app", "wordcount", "-size", "64k", "-bw", "0"}, tc.args...)
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Env = append(os.Environ(), "SUPMR_RUN_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("want exit 2, got %v; stderr:\n%s", err, stderr.String())
			}
			out := stderr.String()
			if !strings.HasPrefix(out, "supmr: ") || !strings.Contains(out, tc.want) {
				t.Fatalf("stderr %q does not explain the usage error (want %q)", out, tc.want)
			}
		})
	}
}

// supmrOut re-execs the test binary as supmr; it must exit 0.
func supmrOut(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SUPMR_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("supmr %v: %v\n%s", args, err, stderr.String())
	}
	return string(out)
}

// digestTokens: what no ablation may change — digests, egress counts.
var digestTokens = regexp.MustCompile(`(digest|egress)=\S+`)

// TestCLIFlagPlumbing drives the ablation and mode flags through the
// real command line: within a row every variant must print the first
// one's digests, so a flag that is rejected, dropped (where the output
// shows it) or changes a byte on its way through flag parsing, jobspec,
// internal/dag or the supmrd protocol fails here.
func TestCLIFlagPlumbing(t *testing.T) {
	wc := []string{"-digest", "-app", "wordcount", "-size", "256k", "-chunk", "32k", "-bw", "0", "-seed", "3"}
	srt := []string{"-digest", "-app", "sort", "-size", "200k", "-chunk", "20k", "-bw", "0", "-seed", "23"}
	hist := []string{"-digest", "-app", "histogram", "-size", "256k", "-chunk", "32k", "-bw", "0", "-seed", "5"}
	torn := append(slices.Clone(wc), "-faults", "seed=1,write-err-every=3", "-retries", "4")
	radix := [][]string{{}, {"-radixsort=off"}}
	nodes := [][]string{{}}
	for _, n := range []string{"1", "2", "4"} {
		nodes = append(nodes, []string{"-nodes", n}, []string{"-nodes", n, "-innode-combiner=off"})
	}
	lanes := [][]string{{"-egress-lanes=1"}, {"-egress-lanes=4"}}
	pipe := [][]string{{"-egress-lanes", "4"}, {"-materialize"}}
	cases := []struct {
		name     string
		base     []string
		variants [][]string
		must     string // every variant's stdout contains this
	}{
		{"radix/sort", srt, radix, "digest="},
		{"radix/histogram", hist, radix, "digest="},
		{"radix/sort-faulted", append(slices.Clone(srt), "-faults", "seed=1,read-err-every=7", "-retries", "4"), radix, "digest="},
		{"radix/sort-budget", append(slices.Clone(srt), "-budget", "32k"), radix, "digest="},
		{"nodes/wordcount", wc, nodes, "digest="},
		{"nodes/sort", srt, nodes, "digest="},
		{"nodes/wordcount-torn-wire", torn, nodes, "digest="},
		{"ingest/wordcount", wc, [][]string{{}, {"-io-lanes", "4", "-prefetch-depth", "3"}}, "digest="},
		{"egress/wordcount", wc, lanes, " egress="},
		{"egress/sort", srt, lanes, " egress="},
		{"egress/wordcount-faulted", torn, lanes, " egress="},
		{"pipeline/prefixsum", []string{"pipeline", "-kind", "prefixsum", "-size", "256k"}, pipe, "rounds=2"},
		{"pipeline/sortgrep", []string{"pipeline", "-kind", "sortgrep", "-size", "256k"}, pipe, "rounds=2"},
	}
	// The cuts of multi-file inputs, pinned: invindex reads one file per
	// chunk, -files four files per chunk, and -hybrid cuts at -chunk.
	const (
		invindexDigest = "digest=52be115a97e75f153c2e67c7723104a8eece25c26bdbaf4d36aeda2e8004bfd1"
		filesDigest    = "digest=77bb80b378d5560491fae6cefa3221d747e8521fce0ada3fe978993472ceb735"
	)
	invindex := []string{"-app", "invindex", "-size", "256k"}
	t.Run("cut/pinned", func(t *testing.T) {
		for _, pin := range []struct {
			args   []string
			digest string
		}{
			{invindex, invindexDigest},
			{[]string{"-files", "8", "-filesize", "64k"}, filesDigest},
			{[]string{"-files", "8", "-filesize", "64k", "-hybrid"}, filesDigest},
		} {
			if got := digestTokens.FindString(supmrOut(t, append([]string{"-digest", "-bw", "0"}, pin.args...)...)); got != pin.digest {
				t.Errorf("%v prints %s, want %s", pin.args, got, pin.digest)
			}
		}
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []string
			for i, v := range tc.variants {
				out := supmrOut(t, append(slices.Clone(tc.base), v...)...)
				got := digestTokens.FindAllString(out, -1)
				if !strings.Contains(out, tc.must) || len(got) == 0 {
					t.Fatalf("%v: output lacks %q or a digest:\n%s", v, tc.must, out)
				}
				if i == 0 {
					want = got
				} else if !slices.Equal(got, want) {
					t.Fatalf("%v prints %v, %v prints %v", v, got, tc.variants[0], want)
				}
			}
		})
	}

	// `supmr submit -wait` against an in-process supmrd: every submission
	// carries the direct run's digest; the repeated -memo one replays.
	t.Run("submit", func(t *testing.T) {
		store, err := supmr.NewMemoStore(supmr.MemoConfig{Budget: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		sock := filepath.Join(t.TempDir(), "d.sock")
		srv, err := server.New(server.Config{Socket: sock, Engine: supmr.EngineConfig{Workers: 2, MaxJobs: 2, Memo: store}})
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan struct{})
		go func() { srv.Serve(); close(served) }()
		defer func() { srv.Close(); <-served }()
		want := digestTokens.FindString(supmrOut(t, wc...))
		submit := []string{"submit", "-socket", sock, "-wait", "-app", "wordcount", "-size", "256k", "-chunk", "32k", "-seed", "3"}
		for _, v := range []struct {
			args []string
			must string // regexp the job report must match
		}{
			{nil, `state=done`},
			{[]string{"-memo"}, `memo: 0 hits`},
			{[]string{"-memo"}, `memo: [1-9]\d* hits`},
			{[]string{"-nodes", "2"}, `shuffle: 2 node\(s\), .* in [1-9]\d* frame`},
		} {
			out := supmrOut(t, append(slices.Clone(submit), v.args...)...)
			if got := digestTokens.FindString(out); got != want || !regexp.MustCompile(v.must).MatchString(out) {
				t.Fatalf("submit %v: digest %q (direct run %q) or no match for %q:\n%s", v.args, got, want, v.must, out)
			}
		}
		if got := digestTokens.FindString(supmrOut(t, append([]string{"submit", "-socket", sock, "-wait"}, invindex...)...)); got != invindexDigest {
			t.Fatalf("submit %v: digest %q, want %q", invindex, got, invindexDigest)
		}
		if out := supmrOut(t, "stats", "-socket", sock); !strings.Contains(out, "5 completed, 0 failed") {
			t.Fatalf("stats after five submissions:\n%s", out)
		}
	})
}

// TestShuffleLine: a -nodes report names the nodes, the wire bytes and
// the frames and stops there — the combiner's saving is the wire-byte
// difference to the -innode-combiner=off run, which must ship more.
func TestShuffleLine(t *testing.T) {
	line := regexp.MustCompile(`(?m)^shuffle: 4 node\(s\), \S+ in ([1-9]\d*) frame\(s\) on the wire$`)
	frames := func(extra ...string) int {
		out := supmrOut(t, append([]string{"-app", "wordcount", "-size", "256k", "-chunk", "32k", "-bw", "0", "-nodes", "4"}, extra...)...)
		m := line.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%v: no shuffle line of the documented shape:\n%s", extra, out)
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	if on, off := frames(), frames("-innode-combiner=off"); on >= off {
		t.Fatalf("combiner on sent %d frames, off %d; the ablation must send more", on, off)
	}
}

// TestBadSubmitKnobsExitUsage covers the submission path: `supmr
// submit` validates its knobs — the fair-share weight included — and
// exits 2 with a descriptive error before dialing the server socket,
// so no supmrd is needed for these cases.
func TestBadSubmitKnobsExitUsage(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"weight-zero", []string{"-weight", "0"}, "below minimum"},
		{"weight-negative", []string{"-weight", "-3"}, "below minimum"},
		{"weight-garbage", []string{"-weight", "heavy"}, "bad count"},
		{"io-lanes-zero", []string{"-io-lanes", "0"}, "below minimum"},
		{"budget-negative", []string{"-budget", "-1m"}, "negative size"},
		{"memo-key-without-memo", []string{"-memo-key", "k"}, "memo"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			args := append([]string{"submit", "-socket", "/nonexistent/supmrd.sock", "-app", "wordcount"}, tc.args...)
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Env = append(os.Environ(), "SUPMR_RUN_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("want exit 2, got %v; stderr:\n%s", err, stderr.String())
			}
			out := stderr.String()
			if !strings.HasPrefix(out, "supmr: ") || !strings.Contains(out, tc.want) {
				t.Fatalf("stderr %q does not explain the usage error (want %q)", out, tc.want)
			}
		})
	}
}

// TestReportLineShapes pins the plain report's line shapes, per
// application and per mode flag: each row's regexps must match whole
// lines of stdout, in order — or, for a row that exits non-zero, of
// stderr. Scripts read these lines, so the report keeps them whichever
// layer renders it.
func TestReportLineShapes(t *testing.T) {
	const (
		times = `total=\S+( [a-z+]+=\S+)+`
		wcSum = `distinct words: \d+  occurrences kept: \d+  map waves: \d+`
	)
	// -chunk is a single file's cut: the multi-file rows leave it unset,
	// and their header prints chunk=0.
	small := []string{"-size", "256k", "-bw", "0"}
	hdr := func(app string) string { return `app=` + app + ` runtime=supmr size=262144 chunk=32768 bw=0` }
	filesHdr := func(app string) string { return `app=` + app + ` runtime=supmr size=262144 chunk=0 bw=0` }
	cases := []struct {
		name  string
		args  []string
		lines []string
		code  int // the exit status; non-zero rows match stderr
	}{
		{"wordcount", []string{"-app", "wordcount"}, []string{hdr("wordcount"), times, wcSum}, 0},
		// The preset reads the input whole: chunk=0, whatever -chunk says.
		{"wordcount-traditional", []string{"-app", "wordcount", "-runtime", "traditional"},
			[]string{`app=wordcount runtime=traditional size=262144 chunk=0 bw=0`, times, `distinct words: \d+  occurrences kept: \d+  map waves: 1`}, 0},
		{"wordcount-whole-input", []string{"-app", "wordcount", "-chunk", "0", "-bw", "1g"},
			[]string{`app=wordcount runtime=supmr size=262144 chunk=0 bw=1073741824`, times, `distinct words: \d+  occurrences kept: \d+  map waves: 1`}, 0},
		{"wordcount-budget", []string{"-app", "wordcount", "-budget", "16k"},
			[]string{hdr("wordcount"), times, wcSum, `spill: [1-9]\d* runs, \d+ bytes written, merged in \d+ round\(s\) \(budget 16384\)`}, 0},
		// A budget cannot bound a memoized run: refused before any read.
		{"wordcount-memo-budget", []string{"-app", "wordcount", "-memo", "-budget", "16k", "-memo-budget", "1m"},
			[]string{`supmr: jobspec: MemoryBudget is incompatible with Memo: .*`}, 2},
		// A knob of a mode that is off, or of another input shape, is
		// refused before any read too: jobspec refuses the first, and the
		// stream builder, which knows the shape, the second.
		{"wordcount-memo-budget-without-memo", []string{"-app", "wordcount", "-memo-budget", "1m"},
			[]string{`supmr: jobspec: MemoBudget is incompatible with Memo off: .*`}, 2},
		{"wordcount-egress-extent-without-lanes", []string{"-app", "wordcount", "-egress-extent", "64k"},
			[]string{`supmr: jobspec: EgressExtentBytes is incompatible with EgressLanes 0: .*`}, 2},
		{"wordcount-files-per-chunk-one-file", []string{"-app", "wordcount", "-files-per-chunk", "2"},
			[]string{`supmr: FilesPerChunk is incompatible with a single-file input: .*`}, 2},
		{"wordcount-hybrid-one-file", []string{"-app", "wordcount", "-hybrid"},
			[]string{`supmr: jobspec: hybrid is incompatible with a single-file input: .*`}, 2},
		{"wordcount-files-memo", []string{"-app", "wordcount", "-files", "4", "-filesize", "16k", "-memo"},
			[]string{`supmr: Memo is incompatible with a multi-file input: .*`}, 2},
		{"wordcount-files-hybrid-memo", []string{"-app", "wordcount", "-files", "4", "-filesize", "16k", "-hybrid", "-memo"},
			[]string{`supmr: Memo is incompatible with a multi-file input: .*`}, 2},
		{"wordcount-files-adaptive", []string{"-app", "wordcount", "-files", "4", "-filesize", "16k", "-adaptive"},
			[]string{`supmr: AdaptiveChunks is incompatible with a multi-file input: .*`}, 2},
		{"wordcount-files-hybrid-adaptive", []string{"-app", "wordcount", "-files", "8", "-filesize", "1000", "-hybrid", "-adaptive"},
			[]string{`supmr: AdaptiveChunks is incompatible with a multi-file input: .*`}, 2},
		{"wordcount-files", []string{"-app", "wordcount", "-files", "4", "-filesize", "16k", "-files-per-chunk", "2", "-flatcombiner=off"},
			[]string{filesHdr("wordcount"), times, `distinct words: \d+  occurrences kept: \d+  map waves: 2`}, 0},
		// A multi-file input takes one cut: -chunk only as -hybrid's byte
		// cut, and invindex one file per chunk.
		{"wordcount-files-chunk", []string{"-files", "8", "-chunk", "64k"},
			[]string{`supmr: jobspec: chunk is incompatible with a multi-file input: .*`}, 2},
		{"invindex-chunk", []string{"-app", "invindex", "-chunk", "64k"},
			[]string{`supmr: jobspec: chunk is incompatible with a multi-file input: .*`}, 2},
		{"wordcount-files-hybrid-whole", []string{"-files", "8", "-hybrid", "-chunk", "0"},
			[]string{`supmr: jobspec: chunk is incompatible with a multi-file input: .*`}, 2},
		{"wordcount-files-hybrid-files-per-chunk", []string{"-files", "8", "-hybrid", "-files-per-chunk", "2"},
			[]string{`supmr: FilesPerChunk is incompatible with ChunkBytes: .*`}, 2},
		{"invindex-hybrid", []string{"-app", "invindex", "-hybrid"},
			[]string{`supmr: jobspec: hybrid is incompatible with invindex: .*`}, 2},
		{"invindex-files-per-chunk", []string{"-app", "invindex", "-files-per-chunk", "4"},
			[]string{`supmr: jobspec: files_per_chunk is incompatible with invindex: .*`}, 2},
		{"wordcount-faults", []string{"-app", "wordcount", "-faults", "seed=1,read-err-every=5", "-retries", "4"},
			[]string{hdr("wordcount"), times, wcSum, `faults: injected=[1-9]\d* \(transient=\d+ permanent=0\) .*retried=\d+ recovered=[1-9]\d*`}, 0},
		{"sort-modes", []string{"-app", "sort", "-nodes", "2", "-io-lanes", "2", "-prefetch-depth", "2", "-egress-lanes", "2", "-egress-extent", "64k"},
			[]string{hdr("sort"), times, `records sorted: 2621  map waves: \d+  merge rounds: \d+`,
				`sortpath: [1-9]\d* run\(s\) radix-sorted`,
				`shuffle: 2 node\(s\), \S+ in [1-9]\d* frame\(s\) on the wire`,
				`ingest: \d+ prefetch hits, \S+ stalled, lane bytes 0:\S+ 1:\S+`,
				`egress: \S+ in [1-9]\d* extent\(s\), \S+ stalled, lane bytes 0:\S+ 1:\S+`}, 0},
		{"histogram", []string{"-app", "histogram"}, []string{hdr("histogram"), times, `byte values seen: \d+  map waves: \d+`}, 0},
		{"invindex", []string{"-app", "invindex", "-files", "4", "-filesize", "16k"}, []string{filesHdr("invindex"), times, `indexed words: \d+  files: 4`}, 0},
		{"grep", []string{"-app", "grep", "-pattern", "ba,zu"},
			[]string{hdr("grep"), times, `  ba +\d+ matching lines`, `  zu +\d+ matching lines`}, 0},
		{"linreg", []string{"-app", "linreg"}, []string{hdr("linreg"), times, `fit: y = -?\d+\.\d{4}\*x \+ -?\d+\.\d\d over 131072 points`}, 0},
		{"kmeans", []string{"-app", "kmeans"},
			[]string{hdr("kmeans"), `k-means: \d+ iterations, \d+ total map waves, final movement \d+\.\d{4}`,
				`  cluster 0: \d+ points, centroid \(\d+\.\d, \d+\.\d\)`, `  cluster 3: \d+ points, centroid \(\d+\.\d, \d+\.\d\)`}, 0},
		{"trace-energy", []string{"-app", "wordcount", "-energy", "-bucket", "1ms", "-contexts", "2"},
			[]string{hdr("wordcount"), times, wcSum, ``, `100% \|.*\|`, ` +legend: u=user s=sys w=iowait  bucket=1ms`,
				`energy: \S+ J over \S+ \(avg \S+ W, peak \S+ W, E\*D \S+ J\*s\)`}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := slices.Clone(small)
			if !slices.Contains(tc.args, "-files") && !slices.Contains(tc.args, "invindex") {
				args = append(args, "-chunk", "32k")
			}
			cmd := exec.Command(os.Args[0], append(args, tc.args...)...)
			cmd.Env = append(os.Environ(), "SUPMR_RUN_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); cmd.ProcessState == nil {
				t.Fatal(err)
			}
			out := stdout.String()
			if tc.code != 0 {
				out = stderr.String()
			}
			if code := cmd.ProcessState.ExitCode(); code != tc.code {
				t.Fatalf("exit status %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			rest := strings.Split(out, "\n")
			for _, want := range tc.lines {
				re := regexp.MustCompile(`^` + want + `$`)
				i := slices.IndexFunc(rest, re.MatchString)
				if i < 0 {
					t.Fatalf("no line (in order) matching %q in:\n%s", want, out)
				}
				rest = rest[i+1:]
			}
		})
	}
}

// TestDigestIsAPrintMode: -digest prints a different line about the
// same run, so the flags a job server could not carry — they ride in
// spec.Solo — are accepted beside it and leave the digest where the
// bare -digest run put it.
func TestDigestIsAPrintMode(t *testing.T) {
	base := []string{"-digest", "-app", "wordcount", "-size", "256k", "-chunk", "32k", "-bw", "0", "-seed", "3"}
	want := regexp.MustCompile(`digest=\S+`).FindString(supmrOut(t, base...))
	if want == "" {
		t.Fatal("bare -digest run printed no digest")
	}
	for _, extra := range [][]string{
		{"-workers", "2"},
		{"-merge", "pairwise"},
		{"-flatcombiner=off"},
		{"-egress-lanes", "2", "-egress-extent", "64k"},
		{"-chunk", "0"},
	} {
		out := supmrOut(t, append(slices.Clone(base), extra...)...)
		if !strings.HasPrefix(out, "app=wordcount pairs=") || !strings.Contains(out, want) || strings.Count(out, "\n") != 1 {
			t.Errorf("-digest %v printed %q, want one digest line carrying %s", extra, out, want)
		}
	}
}

// TestAppModeMatrix feeds every (app x mode) cell to the plain CLI path
// — the spec parseFlags builds, run by the function main calls — and to
// jobspec with a hand-built spec, and requires one outcome from both:
// the digest of the app's plain run, or the same error text. What an
// app refuses is stated once, in its table entry, so the surfaces
// cannot disagree about it.
func TestAppModeMatrix(t *testing.T) {
	eng := supmr.NewEngine(supmr.EngineConfig{Workers: 2, MaxJobs: 2})
	defer eng.Close()
	upstream := []byte("0\t17\n1\t4\nbazu\t2\n")
	cells := []struct {
		name   string
		flags  []string
		set    func(*jobspec.Spec)
		engine bool
		piped  bool
	}{
		{name: "plain"},
		{name: "budget", flags: []string{"-budget", "8k"}, set: func(s *jobspec.Spec) { s.Budget = 8 << 10 }},
		{name: "memo", flags: []string{"-memo"}, set: func(s *jobspec.Spec) { s.Memo = true }},
		{name: "nodes", flags: []string{"-nodes", "2"}, set: func(s *jobspec.Spec) { s.Nodes = 2 }},
		{name: "engine", engine: true},
		{name: "piped", piped: true},
	}
	for _, app := range strings.Split(jobspec.Apps(), " | ") {
		plain := ""
		for _, c := range cells {
			t.Run(app+"/"+c.name, func(t *testing.T) {
				built := jobspec.Spec{App: app, Size: 96 << 10, ChunkBytes: 16 << 10, Seed: 7, Pattern: "ba,zu"}
				chunk := []string{"-chunk", "16k"}
				if built.MultiFile() { // cut by file count: a byte cut needs -hybrid
					built.ChunkBytes, chunk = 0, nil
				}
				cli, _, _ := parseFlags(append(append([]string{"-app", app, "-size", "96k", "-bw", "0", "-seed", "7", "-pattern", "ba,zu"}, chunk...), c.flags...))
				if c.set != nil {
					c.set(&built)
				}
				outcome := func(spec jobspec.Spec) string {
					var e *supmr.Engine
					if c.engine {
						e = eng
					}
					var in supmr.Input
					if c.piped {
						in = supmr.MemoryFile("up.out", upstream, supmr.NewClock())
					}
					res, _, err := jobspec.RunInput(context.Background(), spec, e, in)
					if err != nil {
						return "error: " + err.Error()
					}
					return fmt.Sprintf("%d pairs, digest %s", res.OutputPairs, res.Digest)
				}
				got, want := outcome(cli), outcome(built)
				if got != want {
					t.Fatalf("CLI path: %s\njobspec:  %s", got, want)
				}
				refusal := "error: jobspec: " + c.name + " is incompatible with " + app + ": "
				switch {
				case c.name == "plain":
					if plain = got; strings.HasPrefix(got, "error") {
						t.Fatalf("plain run failed: %s", got)
					}
				case c.piped: // another input, so another digest: accepted exactly by the apps that parse piped text
					if refused := strings.Contains(got, "cannot consume a piped input"); refused == jobspec.CanConsumePiped(app) {
						t.Fatalf("%s, but CanConsumePiped(%s) = %v", got, app, !refused)
					}
				case got != plain && !strings.HasPrefix(got, refusal):
					t.Fatalf("%s, neither the plain run's (%s) nor this app's refusal of %s", got, plain, c.name)
				}
			})
		}
	}
}

// TestNewAppsOnEverySurface: the apps jobspec did not know before the
// table — invindex, linreg, kmeans — print one digest from `supmr
// -digest`, jobspec.Run and `supmr submit -wait`, and each submission is
// a job `list` shows done.
func TestNewAppsOnEverySurface(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "d.sock")
	srv, err := server.New(server.Config{Socket: sock, Engine: supmr.EngineConfig{Workers: 2, MaxJobs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { srv.Serve(); close(served) }()
	defer func() { srv.Close(); <-served }()
	for _, app := range []string{"invindex", "linreg", "kmeans"} {
		spec := jobspec.Spec{App: app, Size: 96 << 10, ChunkBytes: 16 << 10, Seed: 7}
		knobs := []string{"-app", app, "-size", "96k", "-seed", "7", "-chunk", "16k"}
		if spec.MultiFile() { // invindex is cut by file count: a byte cut needs -hybrid
			spec.ChunkBytes, knobs = 0, knobs[:6]
		}
		direct := digestTokens.FindString(supmrOut(t, append([]string{"-digest", "-bw", "0"}, knobs...)...))
		res, err := jobspec.Run(context.Background(), spec, nil)
		if err != nil || direct != "digest="+res.Digest {
			t.Fatalf("%s: supmr -digest prints %q, jobspec.Run %v %v", app, direct, res, err)
		}
		cmd := exec.Command(os.Args[0], append([]string{"submit", "-socket", sock, "-wait"}, knobs...)...)
		cmd.Env = append(os.Environ(), "SUPMR_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		if got := digestTokens.FindString(string(out)); err != nil || got != direct {
			t.Fatalf("%s: submit -wait prints %q (%v), the direct run %q:\n%s", app, got, err, direct, out)
		}
	}
	if out := supmrOut(t, "list", "-socket", sock); strings.Count(out, "state=done") != 3 || !strings.Contains(out, "kmeans") {
		t.Fatalf("list after three runs:\n%s", out)
	}
}

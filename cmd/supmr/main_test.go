package main

import (
	"bytes"
	"context"
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
		// -digest runs a jobspec.Spec: a flag it cannot carry is a usage error.
		{"digest-workers", []string{"-digest", "-workers", "-3"}, "cannot carry -workers"},
		{"digest-merge", []string{"-digest", "-merge", "bogus"}, "cannot carry -merge"},
		{"digest-flatcombiner", []string{"-digest", "-flatcombiner=off"}, "cannot carry -flatcombiner"},
		{"digest-egress-extent", []string{"-digest", "-egress-lanes", "2", "-egress-extent", "7"}, "cannot carry -egress-extent"},
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
		if out := supmrOut(t, "stats", "-socket", sock); !strings.Contains(out, "4 completed, 0 failed") {
			t.Fatalf("stats after four submissions:\n%s", out)
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

package supmr

// Chaos harness for the fault-injection layer: sweep seeds x fault
// plans x runtimes and assert the safety invariant everywhere — a
// faulted run either produces output byte-identical to the fault-free
// run (transient faults absorbed by retries) or fails with an error
// wrapping ErrInjectedFault, with no goroutine leak either way. Each
// faulted configuration runs twice with fresh injectors to prove the
// schedule is deterministic: same seed + plan => same outcome.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"supmr/internal/storage"
)

// renderWC renders word-count output for byte-exact comparison.
func renderWC(pairs []Pair[string, int64]) string {
	var b strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&b, "%s=%d\n", p.Key, p.Val)
	}
	return b.String()
}

// chaosVariant is one runtime configuration under test.
type chaosVariant struct {
	name    string
	budget  int64 // spill budget (0 = unbudgeted)
	runtime Runtime
}

var chaosVariants = []chaosVariant{
	{name: "supmr", runtime: RuntimeSupMR},
	{name: "supmr-spill", runtime: RuntimeSupMR, budget: 48 << 10},
	{name: "traditional", runtime: RuntimeTraditional},
}

// chaosPlan builds the swept fault plans for one seed.
func chaosPlans(seed int64) map[string]FaultPlan {
	return map[string]FaultPlan{
		"transient-every": {Seed: seed, ReadErrEvery: 5},
		"mixed": {
			Seed:          seed,
			ReadErrProb:   0.08,
			WriteErrProb:  0.25,
			ShortReadProb: 0.2,
			Latency:       200 * time.Microsecond,
			LatencyProb:   0.1,
		},
		"permanent": {Seed: seed, ReadErrEvery: 4, Permanent: true},
	}
}

// runChaosWC executes one word-count configuration on a fresh virtual
// clock, returning the rendered output ("" on failure) and the error.
func runChaosWC(text []byte, v chaosVariant, inj *FaultInjector, retry RetryPolicy, clk Clock) (string, error) {
	cfg := Config{
		Runtime:    v.runtime,
		Workers:    4,
		ChunkBytes: 24 << 10,
		Clock:      clk,
		Faults:     inj,
		Retry:      retry,
	}
	if v.budget > 0 {
		cfg.MemoryBudget = v.budget
		cfg.SpillDevice = NewFastDevice(clk)
	}
	rep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), applyIngestEnv(cfg))
	if err != nil {
		return "", err
	}
	return renderWC(rep.Pairs), nil
}

// outcome flattens a run's result for determinism comparison.
func outcome(out string, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return "ok: " + out
}

func TestChaosWordCount(t *testing.T) {
	text := genText(t, 192<<10, 11)
	baseGoroutines := runtime.NumGoroutine()
	retry := RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}

	// Fault-free baselines, one per variant.
	baseline := make(map[string]string)
	for _, v := range chaosVariants {
		out, err := runChaosWC(text, v, nil, RetryPolicy{}, storage.NewFakeClock())
		if err != nil {
			t.Fatalf("%s: fault-free run failed: %v", v.name, err)
		}
		if out == "" {
			t.Fatalf("%s: fault-free run produced no output", v.name)
		}
		baseline[v.name] = out
	}

	recovered, failed := 0, 0
	for _, seed := range []int64{1, 7, 42} {
		for planName, plan := range chaosPlans(seed) {
			for _, v := range chaosVariants {
				name := fmt.Sprintf("seed%d/%s/%s", seed, planName, v.name)
				t.Run(name, func(t *testing.T) {
					run := func() (string, error) {
						// Fresh clock and injector per run: determinism must come
						// from the plan, not shared state.
						clk := storage.NewFakeClock()
						return runChaosWC(text, v, NewFaultInjector(plan, clk), retry, clk)
					}
					out1, err1 := run()
					out2, err2 := run()
					if o1, o2 := outcome(out1, err1), outcome(out2, err2); o1 != o2 {
						t.Fatalf("nondeterministic outcome:\n  first:  %.200s\n  second: %.200s", o1, o2)
					}
					if err1 != nil {
						failed++
						if !errors.Is(err1, ErrInjectedFault) {
							t.Fatalf("faulted run failed with a non-injected error: %v", err1)
						}
						return
					}
					recovered++
					if out1 != baseline[v.name] {
						t.Fatalf("faulted run succeeded with output differing from the fault-free run (%d vs %d bytes)",
							len(out1), len(baseline[v.name]))
					}
				})
			}
		}
	}
	if recovered == 0 {
		t.Error("no faulted configuration recovered to baseline output; the sweep is not exercising the retry path")
	}
	if failed == 0 {
		t.Error("no faulted configuration failed; the sweep is not exercising the error path")
	}
	checkNoGoroutineLeak(t, baseGoroutines)
}

// TestChaosDeterministicCounters pins down the stronger reproducibility
// claim: same seed + plan => the same fault sequence, observable as
// identical injection counters, not merely the same outcome.
func TestChaosDeterministicCounters(t *testing.T) {
	text := genText(t, 96<<10, 5)
	plan := FaultPlan{Seed: 9, ReadErrEvery: 3, ShortReadProb: 0.3, LatencyProb: 0.2, Latency: 50 * time.Microsecond}
	retry := RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Microsecond}
	run := func() (FaultStats, string, error) {
		clk := storage.NewFakeClock()
		inj := NewFaultInjector(plan, clk)
		out, err := runChaosWC(text, chaosVariants[0], inj, retry, clk)
		return inj.Counters().Snapshot(), out, err
	}
	s1, out1, err1 := run()
	s2, out2, err2 := run()
	if outcome(out1, err1) != outcome(out2, err2) {
		t.Fatalf("outcomes differ: %v vs %v", err1, err2)
	}
	if s1 != s2 {
		t.Fatalf("fault counters differ across identical runs:\n  first:  %s\n  second: %s", s1.String(), s2.String())
	}
	if !s1.Any() {
		t.Fatal("plan injected nothing; the determinism check is vacuous")
	}
}

// TestChaosLaneRequests runs an ingest fault plan with retries at two
// IO lanes and 512 KiB chunks, so every lane's share of a read goes out
// as several requests and faults, short reads and retries strike inside
// a lane's group. The output must be the clean run's, byte for byte,
// and the fault counters must be the same on every run: requests are
// issued in an order the input alone decides.
func TestChaosLaneRequests(t *testing.T) {
	text := genText(t, 1536<<10, 13)
	plan := FaultPlan{Seed: 21, ReadErrEvery: 4, ShortReadProb: 0.25, LatencyProb: 0.1, Latency: 50 * time.Microsecond}
	retry := RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond}
	run := func(plan *FaultPlan) (FaultStats, string) {
		clk := storage.NewFakeClock()
		cfg := Config{Runtime: RuntimeSupMR, Workers: 4, ChunkBytes: 512 << 10, IOLanes: 2, PrefetchDepth: 2, Clock: clk}
		var inj *FaultInjector
		if plan != nil {
			inj = NewFaultInjector(*plan, clk)
			cfg.Faults, cfg.Retry = inj, retry
		}
		rep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), cfg)
		if err != nil {
			t.Fatalf("faults %v: %v", plan != nil, err)
		}
		var stats FaultStats
		if inj != nil {
			stats = inj.Counters().Snapshot()
		}
		return stats, renderWC(rep.Pairs)
	}
	_, clean := run(nil)
	var first FaultStats
	for i := 0; i < 3; i++ {
		stats, out := run(&plan)
		if out != clean {
			t.Fatalf("run %d: faulted output differs from the clean run (%d vs %d bytes)", i, len(out), len(clean))
		}
		if i == 0 {
			first = stats
			if stats.Injected == 0 || stats.ShortReads == 0 || stats.Recovered == 0 {
				t.Fatalf("plan did not exercise errors, short reads and retries: %s", stats.String())
			}
		} else if stats != first {
			t.Fatalf("fault counters differ across identical runs:\n  first: %s\n  run %d: %s", first.String(), i, stats.String())
		}
	}
}

// TestChaosSpillDeterministicCounters holds the out-of-core finish to
// the same claim at four workers: the external merge reads its runs a
// block ahead on the IO lanes while the workers drain in groups, and
// still every chaos plan must give the same outcome text and the same
// fault counters on a second run — the spill device is one fault site,
// so its reads are issued in an order the input alone decides.
func TestChaosSpillDeterministicCounters(t *testing.T) {
	text := genText(t, 192<<10, 11)
	retry := RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}
	spill := chaosVariants[1]
	if spill.budget == 0 {
		t.Fatal("chaosVariants[1] is not the budgeted variant")
	}
	injected := false
	for _, seed := range []int64{1, 7, 42} {
		for planName, plan := range chaosPlans(seed) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, planName), func(t *testing.T) {
				run := func() (FaultStats, string) {
					clk := storage.NewFakeClock()
					inj := NewFaultInjector(plan, clk)
					out, err := runChaosWC(text, spill, inj, retry, clk)
					return inj.Counters().Snapshot(), outcome(out, err)
				}
				s1, o1 := run()
				s2, o2 := run()
				if o1 != o2 {
					t.Fatalf("nondeterministic outcome:\n  first:  %.200s\n  second: %.200s", o1, o2)
				}
				if s1 != s2 {
					t.Fatalf("fault counters differ across identical runs:\n  first:  %s\n  second: %s", s1.String(), s2.String())
				}
				injected = injected || s1.Any()
			})
		}
	}
	if !injected {
		t.Error("no plan injected anything; the determinism check is vacuous")
	}
}

// TestChaosHDFS drives the fault plan through the HDFS substrate: the
// injector is attached to the cluster only (HDFSConfig.Faults), so the
// datanode disks are the fault sites, block fetches fail first-class,
// and ingest-level retries absorb the transient ones.
func TestChaosHDFS(t *testing.T) {
	const size = 192 << 10
	baseGoroutines := runtime.NumGoroutine()
	runHDFS := func(inj *FaultInjector, retry RetryPolicy) (string, FaultStats, error) {
		clk := storage.NewFakeClock()
		cluster, err := NewHDFS(HDFSConfig{
			Nodes:     4,
			BlockSize: 32 << 10,
			DiskBW:    400e6,
			LinkBW:    GigabitLinkBW,
			Faults:    inj,
		}, clk)
		if err != nil {
			return "", FaultStats{}, err
		}
		f, err := cluster.Create("chaos.txt", size, TextFill(11))
		if err != nil {
			return "", FaultStats{}, err
		}
		cfg := Config{
			Runtime:    RuntimeSupMR,
			Workers:    4,
			ChunkBytes: 24 << 10,
			Clock:      clk,
			Retry:      retry,
		}
		rep, err := RunFile[string, int64](WordCountJob(), f, WordCountContainer(16), applyIngestEnv(cfg))
		stats := inj.Counters().Snapshot()
		if err != nil {
			return "", stats, err
		}
		return renderWC(rep.Pairs), stats, nil
	}

	base, _, err := runHDFS(NewFaultInjector(FaultPlan{}, nil), RetryPolicy{})
	if err != nil {
		t.Fatalf("fault-free HDFS run failed: %v", err)
	}
	retry := RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}

	t.Run("transient-recovers", func(t *testing.T) {
		plan := FaultPlan{Seed: 3, ReadErrEvery: 3, Latency: 100 * time.Microsecond, LatencyEvery: 4}
		run := func() (string, FaultStats, error) {
			clk := storage.NewFakeClock()
			return runHDFS(NewFaultInjector(plan, clk), retry)
		}
		out1, stats1, err1 := run()
		out2, stats2, err2 := run()
		if outcome(out1, err1) != outcome(out2, err2) || stats1 != stats2 {
			t.Fatalf("nondeterministic HDFS outcome: %v (%s) vs %v (%s)", err1, stats1.String(), err2, stats2.String())
		}
		if err1 != nil {
			t.Fatalf("transient plan with retries failed: %v", err1)
		}
		if stats1.Injected == 0 {
			t.Fatal("plan injected nothing into the datanode disks; the recovery check is vacuous")
		}
		if out1 != base {
			t.Fatal("faulted HDFS output differs from fault-free baseline")
		}
	})

	t.Run("permanent-fails", func(t *testing.T) {
		plan := FaultPlan{Seed: 3, ReadErrEvery: 3, Permanent: true}
		clk := storage.NewFakeClock()
		_, _, err := runHDFS(NewFaultInjector(plan, clk), retry)
		if err == nil {
			t.Fatal("permanent plan succeeded")
		}
		if !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("error does not wrap ErrInjectedFault: %v", err)
		}
		if !strings.Contains(err.Error(), "hdfs:") {
			t.Fatalf("error does not attribute the failing block fetch: %v", err)
		}
	})
	checkNoGoroutineLeak(t, baseGoroutines)
}

// checkNoGoroutineLeak polls for the goroutine count to settle back to
// near the baseline; a faulted run must not leave workers behind.
func checkNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	const slack = 4 // test runner internals fluctuate a little
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d now vs %d at start\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

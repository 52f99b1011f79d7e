package supmr

// Chaos harness for the multi-node shuffle: sweep seeds x fault plans x
// cluster shapes (node count, in-node combiner on/off) with the fault
// seams armed on the inter-node wires — latency spikes and torn frame
// transfers — and assert the safety invariant everywhere: a faulted run
// either produces output byte-identical to the fault-free SINGLE-node
// run (transient tears absorbed by whole-frame resends) or fails with
// an error wrapping ErrInjectedFault, with no goroutine leak either
// way. Every faulted configuration runs twice with fresh injectors to
// prove the schedule is deterministic.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"supmr/internal/storage"
)

// shuffleChaosPlans builds the swept fault plans for one seed. The
// shuffle wires are write-op fault sites, so write faults land on frame
// transfers; latency lands on them as link delay spikes.
func shuffleChaosPlans(seed int64) map[string]FaultPlan {
	return map[string]FaultPlan{
		"torn-every": {Seed: seed, WriteErrEvery: 2},
		"mixed": {
			Seed:         seed,
			WriteErrProb: 0.3,
			Latency:      200 * time.Microsecond,
			LatencyProb:  0.2,
		},
		"torn-permanent": {Seed: seed, WriteErrEvery: 2, Permanent: true},
	}
}

// runChaosShuffle executes one multi-node word-count configuration on a
// fresh virtual clock, returning the rendered output ("" on failure),
// the injector's counter snapshot, and the error.
func runChaosShuffle(text []byte, nodes int, combinerOff bool, inj *FaultInjector, retry RetryPolicy, clk Clock) (string, FaultStats, error) {
	cfg := Config{
		Runtime:    RuntimeSupMR,
		Workers:    4,
		ChunkBytes: 16 << 10,
		Clock:      clk,
		Faults:     inj,
		Retry:      retry,
		Nodes:      nodes,
	}
	if combinerOff {
		off := false
		cfg.InNodeCombiner = &off
	}
	rep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), applyIngestEnv(cfg))
	var stats FaultStats
	if inj != nil {
		stats = inj.Counters().Snapshot()
	}
	if err != nil {
		return "", stats, err
	}
	return renderWC(rep.Pairs), stats, nil
}

func TestChaosShuffle(t *testing.T) {
	text := genText(t, 128<<10, 13)
	baseGoroutines := runtime.NumGoroutine()
	retry := RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}

	// The reference output is the fault-free single-node pipeline: chaos
	// must not merely be self-consistent across the cluster, it must
	// reproduce the scale-up result bit for bit.
	baseCfg := applyIngestEnv(Config{Runtime: RuntimeSupMR, Workers: 4, ChunkBytes: 16 << 10})
	baseRep, err := RunBytes[string, int64](WordCountJob(), text, WordCountContainer(16), baseCfg)
	if err != nil {
		t.Fatalf("fault-free single-node run failed: %v", err)
	}
	baseline := renderWC(baseRep.Pairs)
	if baseline == "" {
		t.Fatal("fault-free run produced no output")
	}

	recovered, failed := 0, 0
	for _, seed := range []int64{1, 7, 42} {
		for planName, plan := range shuffleChaosPlans(seed) {
			for _, nodes := range []int{2, 4} {
				for _, combOff := range []bool{false, true} {
					name := fmt.Sprintf("seed%d/%s/nodes%d/combOff=%v", seed, planName, nodes, combOff)
					t.Run(name, func(t *testing.T) {
						run := func() (string, FaultStats, error) {
							// Fresh clock and injector per run: determinism must
							// come from the plan, not shared state.
							clk := storage.NewFakeClock()
							return runChaosShuffle(text, nodes, combOff, NewFaultInjector(plan, clk), retry, clk)
						}
						out1, stats1, err1 := run()
						out2, stats2, err2 := run()
						if o1, o2 := outcome(out1, err1), outcome(out2, err2); o1 != o2 {
							t.Fatalf("nondeterministic outcome:\n  first:  %.200s\n  second: %.200s", o1, o2)
						}
						if stats1 != stats2 {
							t.Fatalf("fault counters differ across identical runs:\n  first:  %s\n  second: %s",
								stats1.String(), stats2.String())
						}
						if err1 != nil {
							failed++
							if !errors.Is(err1, ErrInjectedFault) {
								t.Fatalf("faulted run failed with a non-injected error: %v", err1)
							}
							if !strings.Contains(err1.Error(), "shuffle:") {
								t.Fatalf("shuffle-chaos failure not attributed to the shuffle: %v", err1)
							}
							return
						}
						recovered++
						if stats1.Injected > 0 && stats1.Retried == 0 {
							t.Fatalf("run absorbed %d injected faults with no recorded retries: %s",
								stats1.Injected, stats1.String())
						}
						if out1 != baseline {
							t.Fatalf("faulted multi-node run succeeded with output differing from the fault-free single-node run (%d vs %d bytes)",
								len(out1), len(baseline))
						}
					})
				}
			}
		}
	}
	if recovered == 0 {
		t.Error("no faulted cluster recovered to baseline output; the sweep is not exercising the resend path")
	}
	if failed == 0 {
		t.Error("no faulted cluster failed; the sweep is not exercising the error path")
	}
	checkNoGoroutineLeak(t, baseGoroutines)
}

// TestChaosShuffleTornFramesResent pins the torn-transfer mechanics: a
// transient tear delivers a prefix of the frame, the receiver rejects
// it as truncated (never decodes it as data), and the retrier resends
// the whole frame — so the run recovers with injections actually on
// the books.
func TestChaosShuffleTornFramesResent(t *testing.T) {
	text := genText(t, 96<<10, 19)
	retry := RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Microsecond}
	plan := FaultPlan{Seed: 3, WriteErrEvery: 2}

	clk := storage.NewFakeClock()
	inj := NewFaultInjector(plan, clk)
	out, stats, err := runChaosShuffle(text, 4, true, inj, retry, clk)
	if err != nil {
		t.Fatalf("transient torn-frame plan with retries failed: %v", err)
	}
	if stats.Injected == 0 {
		t.Fatal("plan injected nothing into the wires; the resend check is vacuous")
	}
	if stats.Retried == 0 {
		t.Fatal("torn frames were never retried")
	}

	base, _, err := runChaosShuffle(text, 4, true, nil, RetryPolicy{}, storage.NewFakeClock())
	if err != nil {
		t.Fatal(err)
	}
	if out != base {
		t.Fatal("recovered output differs from the fault-free run")
	}
}

// TestChaosShuffleNoRetryFails: the same transient tears without a
// retry policy must surface as a typed failure, not silent corruption
// or a hang.
func TestChaosShuffleNoRetryFails(t *testing.T) {
	text := genText(t, 96<<10, 19)
	clk := storage.NewFakeClock()
	inj := NewFaultInjector(FaultPlan{Seed: 3, WriteErrEvery: 2}, clk)
	_, stats, err := runChaosShuffle(text, 4, true, inj, RetryPolicy{}, clk)
	if err == nil {
		t.Fatal("torn transfers without retries succeeded")
	}
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("error does not wrap ErrInjectedFault: %v", err)
	}
	if stats.Injected == 0 {
		t.Fatal("no faults on the books despite the failure")
	}
}

// TestChaosShuffleMidJobFailures: a node's container lives from its
// first map wave to the exchange, so a job that dies in between — a
// mapper panic, an ingest read that fails for good, a wire that stays
// torn — dies with node containers full. Each must fail with its own
// error, release every chunk buffer the stream handed out, leave no
// goroutine behind, and book exactly the faults the per-chunk-drain
// pipeline (PR 22) booked under the same plan: the fault sites and the
// issue order on them did not move.
func TestChaosShuffleMidJobFailures(t *testing.T) {
	text := genText(t, 256<<10, 83)
	retry := RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond}
	for _, tc := range []struct {
		name     string
		plan     FaultPlan
		mapLimit int64 // map calls before the mapper panics
		wantErr  string
		injected bool
		want     FaultStats
	}{
		// Wire-only plan: the panic lands three waves in, before any
		// frame exists, so nothing may be on the books.
		{name: "map-panic", plan: FaultPlan{Seed: 5, WriteErrEvery: 2}, mapLimit: 3 * 4,
			wantErr: "mapper exploded mid-stream"},
		{name: "ingest-read", plan: FaultPlan{Seed: 5, ReadErrEvery: 9, Permanent: true}, mapLimit: 1 << 30,
			wantErr: "ingest failed", injected: true, want: FaultStats{Injected: 1, Permanent: 1}},
		{name: "wire", plan: FaultPlan{Seed: 5, WriteErrProb: 0.4, PermanentEvery: 3}, mapLimit: 1 << 30,
			wantErr: "shuffle: n", injected: true, want: FaultStats{Injected: 3, Transient: 2, Permanent: 1, Retried: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseGoroutines := runtime.NumGoroutine()
			clk := storage.NewFakeClock()
			inj := NewFaultInjector(tc.plan, clk)
			cfg := Config{Runtime: RuntimeSupMR, Workers: 2, Splits: 4, ChunkBytes: 8 << 10, Nodes: 4,
				Clock: clk, Faults: inj, Retry: retry}
			inner, err := StreamFile(MemoryFile("in", text, clk), cfg)
			if err != nil {
				t.Fatal(err)
			}
			stream := track(inner)
			job := panicAfter{Job: WordCountJob(), calls: new(atomic.Int64), limit: tc.mapLimit}
			_, err = Run[string, int64](job, stream, WordCountContainer(8), cfg)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
			if tc.injected != errors.Is(err, ErrInjectedFault) {
				t.Fatalf("err = %v; wraps ErrInjectedFault: %v, want %v", err, !tc.injected, tc.injected)
			}
			if len(stream.seen) < 4 {
				t.Fatalf("only %d chunks were read before the failure; no node container held anything", len(stream.seen))
			}
			for i, c := range stream.seen {
				if c.Data != nil {
					t.Errorf("chunk read #%d was never released (%d bytes still held)", i, len(c.Data))
				}
			}
			if got := inj.Counters().Snapshot(); got != tc.want {
				t.Errorf("fault counters %s, the per-chunk-drain pipeline booked %s", got.String(), tc.want.String())
			}
			checkNoGoroutineLeak(t, baseGoroutines)
		})
	}
}

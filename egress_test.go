package supmr

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"supmr/internal/egress"
)

// Facade-level tests of the parallel egress path: Config.EgressLanes
// materializes the merged output, byte-identical at any lane count,
// with the egress phase and counters surfaced in the report.

func egressInput(t *testing.T) []byte {
	t.Helper()
	data := make([]byte, 512<<10)
	TextFill(11)(0, data)
	return data
}

func runEgressWC(t *testing.T, data []byte, cfg Config) *Report[string, int64] {
	t.Helper()
	cfg.Runtime = RuntimeSupMR
	if cfg.ChunkBytes == 0 {
		cfg.ChunkBytes = 64 << 10
	}
	rep, err := RunBytes[string, int64](WordCountJob(), data, WordCountContainer(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func pairDigest[K comparable, V any](pairs []Pair[K, V]) [32]byte {
	h := sha256.New()
	for _, p := range pairs {
		fmt.Fprintf(h, "%v\t%v\n", p.Key, p.Val)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestEgressBytesHashToOutputDigest(t *testing.T) {
	data := egressInput(t)
	rep := runEgressWC(t, data, Config{EgressLanes: 2, EgressExtentBytes: 8 << 10})
	if rep.Egress == nil {
		t.Fatal("EgressLanes set but Report.Egress is nil")
	}
	out, err := rep.Egress.Bytes()
	if err != nil {
		t.Fatalf("Egress.Bytes: %v", err)
	}
	if sha256.Sum256(out) != pairDigest(rep.Pairs) {
		t.Fatal("egressed bytes do not hash to the pair digest")
	}
	if rep.Stats.EgressBytes != int64(len(out)) {
		t.Errorf("EgressBytes = %d, egressed %d", rep.Stats.EgressBytes, len(out))
	}
	if rep.Stats.EgressExtents != rep.Egress.Extents() || rep.Stats.EgressExtents < 2 {
		t.Errorf("EgressExtents = %d, output extents = %d", rep.Stats.EgressExtents, rep.Egress.Extents())
	}
	if !strings.Contains(rep.Times.String(), "egress") {
		t.Errorf("phase times missing egress: %s", rep.Times)
	}
	if eg := rep.Times.Get(PhaseEgress); eg <= 0 || rep.Times.Total < eg {
		t.Errorf("total %v does not cover egress %v", rep.Times.Total, eg)
	}
}

func TestEgressLaneCountsByteIdentical(t *testing.T) {
	data := egressInput(t)
	var ref []byte
	var refMan egress.Manifest
	for _, lanes := range []int{1, 2, 4} {
		rep := runEgressWC(t, data, Config{EgressLanes: lanes, EgressExtentBytes: 8 << 10})
		out, err := rep.Egress.Bytes()
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		man := rep.Egress.Manifest()
		if lanes == 1 {
			ref, refMan = out, man
			continue
		}
		if !bytes.Equal(out, ref) {
			t.Fatalf("lanes=%d: egress differs from the serial writer", lanes)
		}
		if !reflect.DeepEqual(man, refMan) {
			t.Fatalf("lanes=%d: manifest differs from the serial writer", lanes)
		}
	}
}

func TestEgressLaneAttribution(t *testing.T) {
	data := egressInput(t)
	rep := runEgressWC(t, data, Config{IOLanes: 2, EgressLanes: 4, EgressExtentBytes: 4 << 10})
	var sum int64
	for _, b := range rep.Stats.EgressLaneBytes {
		sum += b
	}
	if sum != rep.Stats.EgressBytes {
		t.Errorf("lane bytes sum %d, egressed %d (per-lane: %v)", sum, rep.Stats.EgressBytes, rep.Stats.EgressLaneBytes)
	}
	if len(rep.Stats.EgressLaneBytes) != 4 {
		t.Errorf("lane count = %d, want the widened pool's 4", len(rep.Stats.EgressLaneBytes))
	}
	if rep.Stats.EgressBusy <= 0 {
		t.Errorf("EgressBusy = %v, want > 0", rep.Stats.EgressBusy)
	}
	checkEgressTasks(t, rep.Stats)
	// The ingest lane snapshot is taken before egress writes: the same
	// run without egress carries the same ingest bytes. Which IO worker
	// picks up each read is scheduling, so the lanes' sums are compared.
	plain := runEgressWC(t, data, Config{IOLanes: 2})
	if got, want := sumLanes(rep.Stats.IngestLaneBytes), sumLanes(plain.Stats.IngestLaneBytes); got != want || want == 0 {
		t.Errorf("IngestLaneBytes sum %d with egress, %d without (per-lane: %v vs %v)", got, want, rep.Stats.IngestLaneBytes, plain.Stats.IngestLaneBytes)
	}
}

func sumLanes(lanes []int64) (sum int64) {
	for _, b := range lanes {
		sum += b
	}
	return sum
}

// checkEgressTasks asserts the egress counters are the job's "egress"
// task stats, stamped once when egress finished.
func checkEgressTasks(t *testing.T, st Stats) {
	t.Helper()
	et := st.Tasks["egress"]
	if st.EgressBusy != et.Busy || st.EgressStall != et.QueueWait {
		t.Errorf("EgressBusy/EgressStall = %v/%v, Tasks[\"egress\"] Busy/QueueWait = %v/%v", st.EgressBusy, st.EgressStall, et.Busy, et.QueueWait)
	}
}

func TestEgressUnderChaosMatchesClean(t *testing.T) {
	data := egressInput(t)
	clean := runEgressWC(t, data, Config{EgressLanes: 4, EgressExtentBytes: 8 << 10})
	cleanBytes, err := clean.Egress.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	clock := NewClock()
	faulted := runEgressWC(t, data, Config{
		EgressLanes: 4, EgressExtentBytes: 8 << 10, Clock: clock,
		Faults: NewFaultInjector(FaultPlan{Seed: 9, WriteErrProb: 0.2, ReadErrEvery: 7}, clock),
		Retry:  RetryPolicy{MaxAttempts: 8},
	})
	fb, err := faulted.Egress.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb, cleanBytes) {
		t.Fatal("faulted egress diverged from clean run")
	}
	if faulted.Stats.Faults.Injected == 0 || faulted.Stats.Faults.Recovered == 0 {
		t.Errorf("chaos run exercised no faults: %+v", faulted.Stats.Faults)
	}
}

func TestEgressOnEngine(t *testing.T) {
	data := egressInput(t)
	solo := runEgressWC(t, data, Config{EgressLanes: 2, EgressExtentBytes: 8 << 10})
	soloBytes, err := solo.Egress.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineConfig{Workers: 4, MaxJobs: 2})
	defer e.Close()
	eng := runEgressWC(t, data, Config{Engine: e, EgressLanes: 2, EgressExtentBytes: 8 << 10})
	engBytes, err := eng.Egress.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(engBytes, soloBytes) {
		t.Fatal("engine-mode egress differs from solo")
	}
	if eng.Stats.EgressBytes != solo.Stats.EgressBytes {
		t.Errorf("engine EgressBytes %d, solo %d", eng.Stats.EgressBytes, solo.Stats.EgressBytes)
	}
	checkEgressTasks(t, solo.Stats)
	checkEgressTasks(t, eng.Stats)
}

func TestEgressConfigValidation(t *testing.T) {
	data := []byte("a b c\n")
	// Bad egress knobs are rejected before anything is ingested, not
	// after the job has run to the egress phase.
	for _, bad := range []Config{{EgressLanes: -1}, {EgressLanes: 1, EgressExtentBytes: -5}} {
		inner, err := StreamFile(MemoryFile("in", data, NewClock()), Config{})
		if err != nil {
			t.Fatal(err)
		}
		s := track(inner)
		if _, err := Run[string, int64](WordCountJob(), s, WordCountContainer(2), bad); err == nil || s.nexts != 0 {
			t.Errorf("EgressLanes=%d EgressExtentBytes=%d: err = %v after %d stream reads, want a rejection before the first",
				bad.EgressLanes, bad.EgressExtentBytes, err, s.nexts)
		}
	}
	if _, err := RunBytes[string, int64](WordCountJob(), data, WordCountContainer(2), Config{EgressLanes: -1}); err == nil {
		t.Error("negative EgressLanes accepted")
	}
	if _, err := RunBytes[string, int64](WordCountJob(), data, WordCountContainer(2), Config{EgressLanes: 1, EgressExtentBytes: -5}); err == nil {
		t.Error("negative EgressExtentBytes accepted")
	}
	rep, err := RunBytes[string, int64](WordCountJob(), data, WordCountContainer(2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Egress != nil || rep.Stats.EgressBytes != 0 {
		t.Error("egress ran without EgressLanes")
	}
}

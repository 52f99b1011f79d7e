package perfmodel

import (
	"strings"
	"testing"
	"time"

	"supmr/internal/metrics"
)

// Tolerances for paper-vs-model agreement. Most cells land within a
// fraction of a percent; the word count 50 GB row is a known ~4%
// deviation (see EXPERIMENTS.md).
const (
	tightTol = 0.02
	looseTol = 0.05
)

func TestModelReproducesTable2(t *testing.T) {
	for _, r := range ModelTable2() {
		tol := tightTol
		if r.Paper.App == "wordcount" && r.Paper.Label == "50GB" {
			tol = looseTol
		}
		gotTotal := r.Model.Times.Total.Seconds()
		if e := RelErr(r.Paper.Total, gotTotal); e > tol {
			t.Errorf("%s/%s total: model %.2fs vs paper %.2fs (err %.1f%%)",
				r.Paper.App, r.Paper.Label, gotTotal, r.Paper.Total, e*100)
		}
		read, mp, red, mrg := modelPhase(r.Model, r.Paper.Fused)
		if e := RelErr(r.Paper.Read, read); e > tol {
			t.Errorf("%s/%s read: model %.2fs vs paper %.2fs", r.Paper.App, r.Paper.Label, read, r.Paper.Read)
		}
		if !r.Paper.Fused {
			if e := RelErr(r.Paper.Map, mp); e > tol {
				t.Errorf("%s/%s map: model %.2fs vs paper %.2fs", r.Paper.App, r.Paper.Label, mp, r.Paper.Map)
			}
		}
		if e := RelErr(r.Paper.Reduce, red); e > 0.3 { // sub-second cells
			t.Errorf("%s/%s reduce: model %.2fs vs paper %.2fs", r.Paper.App, r.Paper.Label, red, r.Paper.Reduce)
		}
		if e := RelErr(r.Paper.Merge, mrg); e > tol {
			t.Errorf("%s/%s merge: model %.2fs vs paper %.2fs", r.Paper.App, r.Paper.Label, mrg, r.Paper.Merge)
		}
	}
}

func TestModelSpeedupClaims(t *testing.T) {
	m := Testbed()
	claims := Claims()

	// Word count total speedup band 1.10x - 1.16x (paper §VI-B).
	wcBase := Baseline(WordCount(), m, int64(WordCountInputBytes))
	wc1 := SupMR(WordCount(), m, int64(WordCountInputBytes), 1*GB)
	sp := wcBase.Times.Total.Seconds() / wc1.Times.Total.Seconds()
	if sp < claims.WCTotalMin-0.02 || sp > claims.WCTotalMax+0.02 {
		t.Errorf("wc total speedup = %.3f, want in [%.2f, %.2f]", sp, claims.WCTotalMin, claims.WCTotalMax)
	}

	// Sort total 1.46x, merge ~3.13x.
	sBase := Baseline(Sort(), m, int64(SortInputBytes))
	s1 := SupMR(Sort(), m, int64(SortInputBytes), 1*GB)
	spTotal := sBase.Times.Total.Seconds() / s1.Times.Total.Seconds()
	if spTotal < 1.40 || spTotal > 1.52 {
		t.Errorf("sort total speedup = %.3f, want ~1.46", spTotal)
	}
	spMerge := sBase.Times.Get(metrics.PhaseMerge).Seconds() / s1.Times.Get(metrics.PhaseMerge).Seconds()
	if spMerge < 2.9 || spMerge > 3.4 {
		t.Errorf("sort merge speedup = %.3f, want ~3.13", spMerge)
	}
}

func TestModelChunkSizeOrdering(t *testing.T) {
	// Small chunks beat large chunks for word count (Fig. 5 conclusion),
	// and any chunking beats none.
	m := Testbed()
	p := WordCount()
	base := Baseline(p, m, int64(WordCountInputBytes)).Times.Total
	c1 := SupMR(p, m, int64(WordCountInputBytes), 1*GB).Times.Total
	c50 := SupMR(p, m, int64(WordCountInputBytes), 50*GB).Times.Total
	if !(c1 < c50 && c50 < base) {
		t.Errorf("ordering violated: 1GB=%v 50GB=%v none=%v", c1, c50, base)
	}
}

func TestModelPipelineDegenerate(t *testing.T) {
	m := Testbed()
	p := WordCount()
	// chunk >= input: single chunk, no overlap — read+map ~ read + map.
	j := SupMR(p, m, int64(WordCountInputBytes), 2*int64(WordCountInputBytes))
	if j.Waves != 1 {
		t.Errorf("oversized chunk ran %d waves", j.Waves)
	}
	fused := j.Times.Get(metrics.PhaseReadMap)
	want := p.readTime(m, int64(WordCountInputBytes)) + p.mapTime(int64(WordCountInputBytes))
	if d := fused - want; d < -time.Second || d > time.Second {
		t.Errorf("degenerate pipeline fused=%v, want ~%v", fused, want)
	}
	// chunk <= 0 behaves the same.
	j2 := SupMR(p, m, int64(WordCountInputBytes), 0)
	if j2.Waves != 1 {
		t.Errorf("zero chunk ran %d waves", j2.Waves)
	}
}

func TestModelMergeRoundsStructure(t *testing.T) {
	m := Testbed()
	base := Baseline(Sort(), m, int64(SortInputBytes))
	if base.Rounds != 8 { // 256 runs -> log2 = 8 rounds
		t.Errorf("baseline merge rounds = %d, want 8", base.Rounds)
	}
	sup := SupMR(Sort(), m, int64(SortInputBytes), GB)
	if sup.Rounds != 1 {
		t.Errorf("p-way merge rounds = %d, want 1", sup.Rounds)
	}
}

func TestModelFig7(t *testing.T) {
	base, sup, saved := ModelFig7()
	if saved < 4 || saved > 12 {
		t.Errorf("Fig 7 speedup = %.1fs, want ~7s", saved)
	}
	// Ingest dominates: the pipelined run is only slightly faster.
	if frac := saved / base.Times.Total.Seconds(); frac > 0.05 {
		t.Errorf("speedup fraction %.3f too large — map should be ≪ ingest", frac)
	}
	if sup.Times.Total >= base.Times.Total {
		t.Error("pipelined run should beat copy-then-compute")
	}
}

func TestModelFig3(t *testing.T) {
	mr, omp, computeDelta, totalDelta := Fig3Durations()
	// Paper: OpenMP total 192 s slower despite a faster compute phase.
	if d := totalDelta.Seconds(); d < 150 || d > 230 {
		t.Errorf("OpenMP total delta = %.1fs, want ~192s", d)
	}
	if computeDelta <= 0 {
		t.Error("MapReduce compute phase should be longer than OpenMP's sort")
	}
	if omp <= mr {
		t.Error("OpenMP total should exceed the MapReduce total")
	}
}

func TestTraceSynthesis(t *testing.T) {
	m := Testbed()
	j := Baseline(Sort(), m, int64(SortInputBytes))
	tr := j.Trace(m, 2*time.Second)
	if len(tr.Samples) == 0 {
		t.Fatal("empty trace")
	}
	// Early buckets: ingest — IO wait visible, low user.
	early := tr.Samples[5]
	if early.IOWait <= 0 {
		t.Error("ingest buckets show no IO wait")
	}
	if early.User > 10 {
		t.Errorf("ingest buckets show %.0f%% user", early.User)
	}
	// Merge "step" decay: find the max-user bucket after ingest and check
	// user% decreases towards the end (halving workers).
	maxIdx, maxUser := 0, 0.0
	for i, s := range tr.Samples {
		if s.User > maxUser {
			maxIdx, maxUser = i, s.User
		}
	}
	if maxUser < 90 {
		t.Errorf("peak utilization %.0f%%, want ~100%%", maxUser)
	}
	last := tr.Samples[len(tr.Samples)-2]
	if last.User >= maxUser/2 {
		t.Errorf("tail utilization %.0f%% does not show the merge step decay (peak %.0f%% at %d)",
			last.User, maxUser, maxIdx)
	}
}

func TestTraceFig5Density(t *testing.T) {
	// Smaller chunks -> higher mean utilization (denser spikes).
	m := Testbed()
	p := WordCount()
	small := SupMR(p, m, int64(WordCountInputBytes), 1*GB).Trace(m, 2*time.Second)
	large := SupMR(p, m, int64(WordCountInputBytes), 50*GB).Trace(m, 2*time.Second)
	if small.MeanUser() <= large.MeanUser() {
		t.Errorf("mean user: small=%.2f%% large=%.2f%% — small chunks should be denser",
			small.MeanUser(), large.MeanUser())
	}
}

func TestFormatComparison(t *testing.T) {
	out := FormatComparison(ModelTable2())
	for _, want := range []string{"wordcount", "sort", "(fused)", "471.75"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison output missing %q:\n%s", want, out)
		}
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(100, 102) != 0.02 {
		t.Errorf("RelErr(100,102) = %v", RelErr(100, 102))
	}
	// Sub-half-second cells compare absolutely.
	if RelErr(0.03, 0.05) > 0.021 {
		t.Errorf("RelErr small = %v", RelErr(0.03, 0.05))
	}
}

func TestPaperTableShape(t *testing.T) {
	if len(PaperTable2) != 5 {
		t.Fatalf("Table II has %d rows", len(PaperTable2))
	}
	// The transcription matches the published speedups.
	wcNone, wc1 := PaperTable2[0], PaperTable2[1]
	if sp := wcNone.Total / wc1.Total; sp < 1.15 || sp > 1.17 {
		t.Errorf("paper wc speedup = %.3f, expected ~1.16", sp)
	}
	sNone, s1 := PaperTable2[3], PaperTable2[4]
	if sp := sNone.Total / s1.Total; sp < 1.45 || sp > 1.47 {
		t.Errorf("paper sort speedup = %.3f, expected ~1.46", sp)
	}
	if sp := sNone.Merge / s1.Merge; sp < 3.1 || sp > 3.2 {
		t.Errorf("paper merge speedup = %.3f, expected ~3.13", sp)
	}
}

func TestModelFig5UtilizationGain(t *testing.T) {
	// §VIII: "50 - 100% more CPU utilization" for the optimized phases.
	// Compare mean utilization across the ingest/map interval: baseline
	// (read then map) vs the 1 GB pipelined run.
	m := Testbed()
	p := WordCount()
	base := Baseline(p, m, int64(WordCountInputBytes))
	sup := SupMR(p, m, int64(WordCountInputBytes), 1*GB)
	// Restrict to the ingest-dominated prefix: use each run's read(-map)
	// duration as the window.
	baseTr := metrics.BuildTrace(base.Segments, m.Contexts, 2*time.Second, 0, base.Times.Get(metrics.PhaseRead))
	supTr := metrics.BuildTrace(sup.Segments, m.Contexts, 2*time.Second, 0, sup.Times.Get(metrics.PhaseReadMap))
	gain := supTr.MeanTotal() / baseTr.MeanTotal()
	// The paper reports "50-100% more CPU utilization" without pinning
	// the interval; over the ingest window the model shows an even
	// larger relative gain (1 IO thread vs overlapped map bursts).
	// Assert the direction and that the gain is substantial.
	if gain < 1.5 {
		t.Errorf("ingest-interval utilization gain = %.2fx, want at least 1.5x", gain)
	}
}

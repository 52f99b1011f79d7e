package sortalgo

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"supmr/internal/exec"
	"supmr/internal/kv"
)

var u64Less = kv.Less[uint64](func(a, b uint64) bool { return a < b })

// uint64FixedKey encodes uint64 keys as 8 big-endian bytes: the exact
// codec of the tests' and benchmarks' integer keys.
func uint64FixedKey() kv.FixedKeyCodec[uint64] {
	return kv.FixedKeyCodec[uint64]{
		Width: 8,
		Put: func(dst []byte, k uint64) bool {
			binary.BigEndian.PutUint64(dst, k)
			return true
		},
	}
}

// randomRuns builds `runs` sorted runs totalling `total` pairs, plus the
// reference sorted key slice.
func randomRuns(t testing.TB, total, runs int, seed int64) ([][]kv.Pair[uint64, int], []uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	all := make([]uint64, 0, total)
	out := make([][]kv.Pair[uint64, int], runs)
	per := total / runs
	idx := 0
	for r := 0; r < runs; r++ {
		n := per
		if r == runs-1 {
			n = total - per*(runs-1)
		}
		run := make([]kv.Pair[uint64, int], n)
		for i := range run {
			k := uint64(rng.Intn(total * 2)) // deliberate duplicates
			run[i] = kv.Pair[uint64, int]{Key: k, Val: idx}
			all = append(all, k)
			idx++
		}
		kv.SortPairs(run, u64Less)
		out[r] = run
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return out, all
}

// pairwise / pway run a merge on a transient p-worker pool, failing the
// test on error.
func pairwise(t testing.TB, rs [][]kv.Pair[uint64, int], p int) []kv.Pair[uint64, int] {
	t.Helper()
	ex := exec.NewLocal(p)
	defer ex.Close()
	got, err := PairwiseMerge(rs, u64Less, ex)
	if err != nil {
		t.Fatalf("PairwiseMerge: %v", err)
	}
	return got
}

func pway(t testing.TB, rs [][]kv.Pair[uint64, int], p int) []kv.Pair[uint64, int] {
	t.Helper()
	ex := exec.NewLocal(p)
	defer ex.Close()
	got, err := PWayMergeWith(rs, u64Less, nil, ex)
	if err != nil {
		t.Fatalf("PWayMergeWith: %v", err)
	}
	return got
}

func checkMerged(t *testing.T, got []kv.Pair[uint64, int], want []uint64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: merged %d pairs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i] {
			t.Fatalf("%s: key %d = %d, want %d", label, i, got[i].Key, want[i])
		}
	}
	// Every original element appears exactly once.
	seen := make(map[int]bool, len(got))
	for _, p := range got {
		if seen[p.Val] {
			t.Fatalf("%s: element %d duplicated", label, p.Val)
		}
		seen[p.Val] = true
	}
}

func TestPairwiseMergeCorrect(t *testing.T) {
	for _, runs := range []int{1, 2, 3, 7, 16, 33} {
		rs, want := randomRuns(t, 5000, runs, int64(runs))
		got := pairwise(t, rs, 4)
		checkMerged(t, got, want, fmt.Sprintf("pairwise runs=%d", runs))
	}
}

func TestPWayMergeCorrect(t *testing.T) {
	for _, runs := range []int{1, 2, 3, 7, 16, 33, 200} {
		for _, p := range []int{1, 2, 4, 16} {
			rs, want := randomRuns(t, 5000, runs, int64(runs*31+p))
			got := pway(t, rs, p)
			checkMerged(t, got, want, fmt.Sprintf("pway runs=%d p=%d", runs, p))
		}
	}
}

func TestMergeEmptyAndSingleton(t *testing.T) {
	if got := pairwise(t, nil, 4); got != nil {
		t.Errorf("pairwise(nil) = %v", got)
	}
	if got := pway(t, nil, 4); got != nil {
		t.Errorf("pway(nil) = %v", got)
	}
	one := [][]kv.Pair[uint64, int]{{{Key: 1}, {Key: 2}}}
	if got := pway(t, one, 4); len(got) != 2 {
		t.Errorf("pway(single run) = %v", got)
	}
	// All-empty runs.
	empty := [][]kv.Pair[uint64, int]{{}, {}, {}}
	if got := pway(t, empty, 4); got != nil {
		t.Errorf("pway(empty runs) = %v", got)
	}
}

func TestPWayMergeSkewedRuns(t *testing.T) {
	// Highly uneven run sizes and disjoint key ranges stress the
	// splitter logic.
	runs := [][]kv.Pair[uint64, int]{
		make([]kv.Pair[uint64, int], 10000),
		make([]kv.Pair[uint64, int], 3),
		make([]kv.Pair[uint64, int], 500),
	}
	idx := 0
	for r := range runs {
		for i := range runs[r] {
			runs[r][i] = kv.Pair[uint64, int]{Key: uint64(r*1_000_000 + i), Val: idx}
			idx++
		}
	}
	got := pway(t, runs, 8)
	if len(got) != idx {
		t.Fatalf("merged %d, want %d", len(got), idx)
	}
	if !kv.IsSortedPairs(got, u64Less) {
		t.Error("skewed merge output unsorted")
	}
}

func TestPWayMergeAllEqualKeys(t *testing.T) {
	runs := make([][]kv.Pair[uint64, int], 8)
	idx := 0
	for r := range runs {
		runs[r] = make([]kv.Pair[uint64, int], 100)
		for i := range runs[r] {
			runs[r][i] = kv.Pair[uint64, int]{Key: 42, Val: idx}
			idx++
		}
	}
	got := pway(t, runs, 4)
	if len(got) != idx {
		t.Fatalf("merged %d of %d equal-key pairs", len(got), idx)
	}
}

// Property: both merges, the p-way one with comparison and with prefix
// heads, agree with each other and with a flat sort, and the parallel
// prefix merges hand every pooled arena back.
func TestMergesAgree(t *testing.T) {
	codec := uint64FixedKey()
	f := func(seed int64, runsRaw, pRaw uint8) bool {
		runs := int(runsRaw%20) + 1
		p := int(pRaw%8) + 1
		rs, want := randomRuns(t, 800, runs, seed)
		rs2 := make([][]kv.Pair[uint64, int], len(rs))
		for i := range rs {
			rs2[i] = append([]kv.Pair[uint64, int](nil), rs[i]...)
		}
		ex := exec.NewLocal(p)
		defer ex.Close()
		held := scratchHeld.Load()
		a, errA := PairwiseMerge(rs, u64Less, ex)
		b, errB := PWayMergeWith(rs2, u64Less, nil, ex)
		c, errC := PWayMergeWith(rs2, u64Less, &codec, ex)
		if errA != nil || errB != nil || errC != nil || scratchHeld.Load() != held {
			return false
		}
		if len(a) != len(want) || len(b) != len(want) || len(c) != len(want) {
			return false
		}
		for i := range want {
			if a[i].Key != want[i] || b[i].Key != want[i] || b[i] != c[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSortRuns(t *testing.T) {
	rs, _ := randomRuns(t, 2000, 8, 1)
	// Shuffle each run, then re-sort through SortRunsWith.
	rng := rand.New(rand.NewSource(2))
	for _, r := range rs {
		rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
	}
	ex := exec.NewLocal(4)
	defer ex.Close()
	if _, err := SortRunsWith(rs, u64Less, nil, ex); err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !kv.IsSortedPairs(r, u64Less) {
			t.Errorf("run %d unsorted after SortRunsWith", i)
		}
	}
}

func TestRounds(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 8: 3, 9: 4, 256: 8}
	for n, want := range cases {
		if got := Rounds(n); got != want {
			t.Errorf("Rounds(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMergeDispatchAndString(t *testing.T) {
	if MergePairwise.String() != "pairwise" || MergePWay.String() != "p-way" {
		t.Error("MergeAlgo String wrong")
	}
	if MergeAlgo(9).String() != "unknown" {
		t.Error("unknown algo string wrong")
	}
	rs, want := randomRuns(t, 500, 4, 3)
	ex := exec.NewLocal(2)
	defer ex.Close()
	got, err := MergeWith(MergePWay, rs, u64Less, nil, ex)
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, got, want, "dispatch")
}

func TestExecutorInstrumentation(t *testing.T) {
	// The executor's per-phase task stats replace the old Tracker: one
	// "sort" task per run, plus "merge" tasks from both algorithms.
	rs, _ := randomRuns(t, 1000, 8, 4)
	ex := exec.NewLocal(4)
	defer ex.Close()
	if _, err := SortRunsWith(rs, u64Less, nil, ex); err != nil {
		t.Fatal(err)
	}
	if got := ex.Record().TaskStats(exec.Mark{})["sort"].Tasks; got != 8 {
		t.Errorf("SortRunsWith ran %d sort tasks, want 8 (one per run)", got)
	}
	if _, err := PairwiseMerge(rs, u64Less, ex); err != nil {
		t.Fatal(err)
	}
	if got := ex.Record().TaskStats(exec.Mark{})["merge"].Tasks; got == 0 {
		t.Error("PairwiseMerge recorded no merge tasks")
	}
	ex2 := exec.NewLocal(4)
	defer ex2.Close()
	rs2, _ := randomRuns(t, 1000, 8, 5)
	if _, err := PWayMergeWith(rs2, u64Less, nil, ex2); err != nil {
		t.Fatal(err)
	}
	if got := ex2.Record().TaskStats(exec.Mark{})["merge"].Tasks; got == 0 {
		t.Error("PWayMergeWith recorded no merge tasks")
	}
}

func TestLoserTreeMergeDirect(t *testing.T) {
	// Exercise the merge tree through PWayMerge with p=1 so a single
	// worker merges many columns via the tree.
	for _, k := range []int{3, 4, 5, 6, 9, 17} {
		rs, want := randomRuns(t, 3000, k, int64(100+k))
		got := pway(t, rs, 1)
		checkMerged(t, got, want, fmt.Sprintf("tree k=%d", k))
	}
}

// Regression: duplicate-heavy runs make nearly every sampled splitter
// the same key, so uncorrected lower-bound cuts could go non-monotone;
// the clamp must keep every run's cut sequence ordered and the merge
// exact. Exercised across worker counts so the splitter count varies.
func TestPWayMergeDuplicateHeavySplitters(t *testing.T) {
	const total, runs = 6000, 12
	rng := rand.New(rand.NewSource(99))
	rs := make([][]kv.Pair[uint64, int], runs)
	var all []uint64
	idx := 0
	for r := range rs {
		n := total / runs
		run := make([]kv.Pair[uint64, int], n)
		for i := range run {
			// ~95% of keys are the single value 7; the rest spread thinly
			// on both sides so every splitter lands on the duplicate.
			k := uint64(7)
			if rng.Intn(20) == 0 {
				k = uint64(rng.Intn(15))
			}
			run[i] = kv.Pair[uint64, int]{Key: k, Val: idx}
			all = append(all, k)
			idx++
		}
		kv.SortPairs(run, u64Less)
		rs[r] = run
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, p := range []int{1, 2, 4, 8} {
		cp := make([][]kv.Pair[uint64, int], len(rs))
		for i := range rs {
			cp[i] = append([]kv.Pair[uint64, int](nil), rs[i]...)
		}
		got := pway(t, cp, p)
		checkMerged(t, got, all, fmt.Sprintf("dup-heavy p=%d", p))
	}
}

// inlineCuts is PWayMergeWith's splitter choice and cut as it was
// written inline before Sample, Splitters and Cut were factored out:
// the reference the factored code must reproduce exactly.
func inlineCuts(rs [][]kv.Pair[uint64, int], p int) [][]int {
	nSamples := 0
	for _, r := range rs {
		step := len(r) / 32
		if step == 0 {
			step = 1
		}
		nSamples += (len(r) + step - 1) / step
	}
	samples := make([]uint64, 0, nSamples)
	for _, r := range rs {
		step := len(r) / 32
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(r); i += step {
			samples = append(samples, r[i].Key)
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	splitters := make([]uint64, 0, p-1)
	for i := 1; i < p; i++ {
		splitters = append(splitters, samples[i*len(samples)/p])
	}
	cuts := make([][]int, len(rs))
	for ri, r := range rs {
		c := make([]int, len(splitters)+2)
		for si, sp := range splitters {
			c[si+1] = sort.Search(len(r), func(i int) bool { return r[i].Key >= sp })
		}
		c[len(splitters)+1] = len(r)
		for i := 1; i < len(c); i++ {
			if c[i] < c[i-1] {
				c[i] = c[i-1]
			}
		}
		cuts[ri] = c
	}
	return cuts
}

// TestPWayCutsMatchInlineReference: the p-way round's cut —
// Splitters(Sample(runs), p) and each run's Cut at them, as
// PWayMergeWith composes them — puts every run's cut points exactly
// where the pre-factoring inline code put them, on short and long runs,
// duplicate-heavy keys and more workers than samples.
func TestPWayCutsMatchInlineReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs := make([][]kv.Pair[uint64, int], 1+rng.Intn(9))
		for r := range rs {
			run := make([]kv.Pair[uint64, int], 1+rng.Intn(3000))
			universe := 1 + rng.Intn(5000)
			for i := range run {
				run[i].Key = uint64(rng.Intn(universe))
			}
			kv.SortPairs(run, u64Less)
			rs[r] = run
		}
		for _, p := range []int{1, 2, 3, 7, 16, 200} {
			splitters := Splitters(Sample(rs), p, u64Less)
			got := make([][]int, len(rs))
			for ri, r := range rs {
				got[ri] = Cut(r, splitters, u64Less)
			}
			want := inlineCuts(rs, p)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d p=%d: cuts %v, inline reference %v", seed, p, got, want)
			}
		}
	}
}

// TestCutMatchesLinearScan: Cut's range s of a run is exactly the pairs
// a linear scan assigns to s — those with s splitters at or below the
// key — whatever the splitters, duplicates included.
func TestCutMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		run := make([]kv.Pair[uint64, int], rng.Intn(200))
		for i := range run {
			run[i].Key = uint64(rng.Intn(50))
		}
		kv.SortPairs(run, u64Less)
		splitters := make([]uint64, rng.Intn(8))
		for i := range splitters {
			splitters[i] = uint64(rng.Intn(60))
		}
		slices.Sort(splitters)
		c := Cut(run, splitters, u64Less)
		if len(c) != len(splitters)+2 || c[0] != 0 || c[len(c)-1] != len(run) {
			t.Fatalf("trial %d: cut points %v over %d pairs and %d splitters", trial, c, len(run), len(splitters))
		}
		for s := 0; s+1 < len(c); s++ {
			if c[s] > c[s+1] {
				t.Fatalf("trial %d: cut points %v not monotone", trial, c)
			}
			for i := c[s]; i < c[s+1]; i++ {
				owner := 0
				for _, sp := range splitters {
					if sp <= run[i].Key {
						owner++
					}
				}
				if owner != s {
					t.Fatalf("trial %d: key %d in range %d, a scan of %v puts it in %d", trial, run[i].Key, s, splitters, owner)
				}
			}
		}
	}
}

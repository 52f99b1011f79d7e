package sortalgo

// ScatterSort against its two references — a stable sort of the runs
// concatenated in run order, and the SortRunsWith + PWayMergeWith path
// it replaces — plus its declines and the skew guard's task bound.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/metrics"
)

// scatterShapes are the key distributions the generator draws from.
var scatterShapes = []string{"random", "dup", "equal", "prefix", "skew"}

// scatterRuns builds k runs of fixed-width string keys in no particular
// order. Run lengths straddle radixMinLen and include empty runs; values
// number the pairs in run order, so any reordering of equal keys shows.
//
//   - random: keys over keyAlphabet;
//   - dup:    a two-letter alphabet, so keys repeat within and across runs;
//   - equal:  one key everywhere;
//   - prefix: every key shares its first k bytes (k drawn per call);
//   - skew:   ≥ 90 % of keys share one leading byte.
func scatterRuns(rng *rand.Rand, k, width int, shape string) [][]kv.Pair[string, int] {
	alpha := keyAlphabet
	if shape == "dup" {
		alpha = keyAlphabet[:2]
	}
	prefix := make([]byte, rng.Intn(width+1))
	for i := range prefix {
		prefix[i] = alpha[rng.Intn(len(alpha))]
	}
	equal := make([]byte, width)
	for i := range equal {
		equal[i] = alpha[rng.Intn(len(alpha))]
	}
	runs := make([][]kv.Pair[string, int], k)
	val := 0
	buf := make([]byte, width)
	for r := range runs {
		n := rng.Intn(3 * radixMinLen)
		if rng.Intn(4) == 0 {
			n = rng.Intn(4) // empty and near-empty runs
		}
		for i := 0; i < n; i++ {
			for j := range buf {
				buf[j] = alpha[rng.Intn(len(alpha))]
			}
			switch shape {
			case "prefix":
				copy(buf, prefix)
			case "skew":
				if rng.Intn(10) != 0 {
					buf[0] = 'a'
				}
			}
			key := string(buf)
			if shape == "equal" {
				key = string(equal)
			}
			runs[r] = append(runs[r], kv.Pair[string, int]{Key: key, Val: val})
			val++
		}
	}
	return runs
}

func copyRuns[K any, V any](runs [][]kv.Pair[K, V]) [][]kv.Pair[K, V] {
	cp := make([][]kv.Pair[K, V], len(runs))
	for i, r := range runs {
		cp[i] = slices.Clone(r)
	}
	return cp
}

// checkScatter runs ScatterSort on runs and holds it to both references.
// The merge reference sorts short runs with kv.SortPairs, which is not
// stable, so it is compared pair for pair only when no short run repeats
// a key; otherwise key for key. Under a prefix codec the call must
// decline, with the runs untouched, exactly when the tie guard applies:
// more than ⌈n/workers⌉ keys share one encoding.
func checkScatter[K comparable, V comparable](t *testing.T, runs [][]kv.Pair[K, V], less kv.Less[K],
	codec kv.FixedKeyCodec[K], workers int, label string) {
	t.Helper()
	ex := exec.NewLocal(workers)
	defer ex.Close()
	in := copyRuns(runs)
	var flat []kv.Pair[K, V]
	total := 0
	for _, r := range runs {
		flat = append(flat, r...)
		total += len(r)
	}

	got, ok, err := ScatterSort(runs, less, codec, ex)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i := range runs {
		samePairs(t, runs[i], in[i], fmt.Sprintf("%s: run %d after ScatterSort", label, i))
	}
	if total < radixMinLen {
		if ok {
			t.Fatalf("%s: accepted %d pairs, under radixMinLen", label, total)
		}
		return
	}
	if tied := largestTie(runs, codec); codec.Prefix && tied > (total+workers-1)/workers {
		if ok {
			t.Fatalf("%s: accepted %d of %d keys on one prefix with %d workers", label, tied, total, workers)
		}
		return
	}
	if !ok {
		t.Fatalf("%s: declined %d encodable pairs", label, total)
	}
	samePairs(t, got, stableRef(flat, less), label+" vs stable reference")

	merge := copyRuns(runs)
	if _, err := SortRunsWith(merge, less, &codec, ex); err != nil {
		t.Fatal(err)
	}
	want, err := PWayMergeWith(merge, less, &codec, ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, merge path %d", label, len(got), len(want))
	}
	exact := true
	for _, r := range runs {
		if len(r) < radixMinLen && hasDupKey(r) {
			exact = false
		}
	}
	for i := range got {
		if got[i].Key != want[i].Key || (exact && got[i] != want[i]) {
			t.Fatalf("%s: pair %d = %+v, merge path %+v", label, i, got[i], want[i])
		}
	}
}

// largestTie is the most keys of runs that share one encoding.
func largestTie[K any, V any](runs [][]kv.Pair[K, V], codec kv.FixedKeyCodec[K]) int {
	count := make(map[string]int)
	most := 0
	row := make([]byte, codec.Width)
	for _, r := range runs {
		for _, p := range r {
			codec.Put(row, p.Key)
			count[string(row)]++
			most = max(most, count[string(row)])
		}
	}
	return most
}

func hasDupKey[K comparable, V any](r []kv.Pair[K, V]) bool {
	seen := make(map[K]bool, len(r))
	for _, p := range r {
		if seen[p.Key] {
			return true
		}
		seen[p.Key] = true
	}
	return false
}

// TestScatterSortSkewGuard: with 90 % of the keys on one leading byte,
// no bucket-sort task may hold more than a p-way merge worker's share,
// ⌈n/workers⌉ pairs. A hot bucket whose keys are all equal cannot be
// split, and must not be a task at all: it is already in order.
func TestScatterSortSkewGuard(t *testing.T) {
	const workers, width = 4, 10
	ex := exec.NewLocal(workers)
	defer ex.Close()
	for _, hot := range []string{"random-tail", "equal"} {
		rng := rand.New(rand.NewSource(11))
		runs := make([][]kv.Pair[string, int], 16)
		n, val := 0, 0
		buf := make([]byte, width)
		for r := range runs {
			for i := 0; i < 1000; i++ {
				rng.Read(buf)
				if rng.Intn(10) != 0 {
					buf[0] = 0x42
					if hot == "equal" {
						copy(buf[1:], "hot-key!!")
					}
				}
				runs[r] = append(runs[r], kv.Pair[string, int]{Key: string(buf), Val: val})
				val++
			}
			n += len(runs[r])
		}
		limit := (n + workers - 1) / workers
		p, ok, err := scatter(runs, strLess, kv.StringFixedKey(width), ex)
		if !ok || err != nil {
			t.Fatalf("%s: ok=%v err=%v", hot, ok, err)
		}
		largest := 0
		for _, s := range p.tasks {
			largest = max(largest, s.hi-s.lo)
		}
		putScratchBytes(p.rows)
		if largest > limit {
			t.Errorf("%s: largest bucket-sort task holds %d pairs, over the share %d", hot, largest, limit)
		}
		if hot == "random-tail" && largest < 2 {
			t.Errorf("%s: no bucket-sort tasks; the bound is vacuous", hot)
		}
		checkScatter(t, runs, strLess, kv.StringFixedKey(width), workers, "skew/"+hot)
	}
}

// TestPrefixTieGuard: under the string prefix codec a bucket whose keys
// all share one 8-byte prefix cannot be split on a digit. When it holds
// more than a p-way merge worker's share, ⌈n/workers⌉ pairs, the scatter
// must decline — the comparison path splits such keys by sampled
// splitters — rather than sort it in one task; under the share it is
// one bucket-sort task, and no task exceeds the share.
func TestPrefixTieGuard(t *testing.T) {
	const workers = 4
	// shared gives every key one prefix; hot gives half of them one; spread
	// gives 64 prefixes to 16 keys each.
	for _, shape := range []string{"shared", "hot", "spread"} {
		rng := rand.New(rand.NewSource(3))
		runs := make([][]kv.Pair[string, int], 16)
		n, val := 0, 0
		for r := range runs {
			for i := 0; i < 64; i++ {
				stem := fmt.Sprintf("stem%04d", rng.Intn(64))
				if shape == "shared" || (shape == "hot" && rng.Intn(2) == 0) {
					stem = "http://w"
				}
				tail := make([]byte, 1+rng.Intn(12))
				for j := range tail {
					tail[j] = 'a' + byte(rng.Intn(26))
				}
				runs[r] = append(runs[r], kv.Pair[string, int]{Key: stem + string(tail), Val: val})
				val++
			}
			n += len(runs[r])
		}
		limit := (n + workers - 1) / workers
		ex := exec.NewLocal(workers)
		p, ok, err := scatter(runs, strLess, kv.StringPrefixKey(), ex)
		ex.Close()
		if err != nil {
			t.Fatal(err)
		}
		if shape != "spread" {
			if ok {
				putScratchBytes(p.rows)
				t.Errorf("%s: the scatter accepted a tie over the share %d", shape, limit)
			}
		} else {
			if !ok {
				t.Fatalf("%s: declined ties of at most %d keys", shape, largestTie(runs, kv.StringPrefixKey()))
			}
			largest := 0
			for _, s := range p.tasks {
				largest = max(largest, s.hi-s.lo)
			}
			putScratchBytes(p.rows)
			if largest > limit || largest < 2 {
				t.Errorf("%s: largest bucket-sort task holds %d pairs; want 2 to the share %d", shape, largest, limit)
			}
		}
		checkScatter(t, runs, strLess, kv.StringPrefixKey(), workers, "tie/"+shape)
		// On one worker the share is every pair: one task sorts them all.
		checkScatter(t, runs, strLess, kv.StringPrefixKey(), 1, "tie/"+shape+"/one worker")
	}
}

// countingEx counts the ForEach calls made through it.
type countingEx struct {
	exec.Executor
	calls []string
}

func (c *countingEx) ForEach(phase string, state metrics.WorkerState, n int, fn func(int) error) (time.Duration, error) {
	c.calls = append(c.calls, phase)
	return c.Executor.ForEach(phase, state, n, fn)
}

// When every key shares its prefix, the tie guard declines right after
// the encode, which found no digit that varies: the count, the scatter
// and its output array are never paid. On one worker the share is every
// pair, so the scatter goes on and sorts them in one task.
func TestPrefixTieGuardDeclinesAfterEncode(t *testing.T) {
	var runs [][]kv.Pair[string, int]
	for r := 0; r < 8; r++ {
		var run []kv.Pair[string, int]
		for i := 0; i < 64; i++ {
			run = append(run, kv.Pair[string, int]{Key: fmt.Sprintf("http://w/%d/%d", 63-i, r), Val: r*64 + i})
		}
		runs = append(runs, run)
	}
	for _, workers := range []int{4, 1} {
		pool := exec.NewLocal(workers)
		ex := &countingEx{Executor: pool}
		out, ok, err := ScatterSort(runs, strLess, kv.StringPrefixKey(), ex)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case workers > 1 && (ok || len(ex.calls) != 1):
			t.Errorf("%d workers: ok=%v after ForEach calls %v; want a decline after the encode alone", workers, ok, ex.calls)
		case workers == 1 && (!ok || len(out) != 8*64):
			t.Errorf("one worker: ok=%v with %d pairs; want the one-task sort", ok, len(out))
		}
	}
	checkScatter(t, runs, strLess, kv.StringPrefixKey(), 4, "one stem")
}

// FuzzScatterSortVsReference draws widths 1, 2, 8, 10 and 16 (and the
// int codec, and the string prefix codec over tieKeys runs), every key
// shape, run counts from none up, worker counts and, for mode ≥ 128, an
// unencodable key, and holds ScatterSort to both references — or to a
// clean decline with the runs untouched. The seeds cover every width ×
// shape pair, both declines, the int codec and the prefix codec.
func FuzzScatterSortVsReference(f *testing.F) {
	for w := uint8(0); w < 7; w++ {
		for shape := uint8(0); shape < uint8(len(scatterShapes)); shape++ {
			f.Add(int64(w)*10+int64(shape), w, shape, uint8(1+3*shape), w)
		}
	}
	f.Add(int64(6), uint8(3), uint8(0), uint8(5), uint8(200)) // unencodable key
	f.Add(int64(7), uint8(2), uint8(1), uint8(0), uint8(0))   // no runs
	f.Fuzz(func(t *testing.T, seed int64, widthRaw, shapeRaw, kRaw, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		widths := []int{1, 2, 8, 10, 16, 0, -1} // 0: the int codec; -1: the prefix codec
		width := widths[int(widthRaw)%len(widths)]
		shape := scatterShapes[int(shapeRaw)%len(scatterShapes)]
		k := int(kRaw % 20)
		workers := 1 + int(mode%4)
		label := fmt.Sprintf("fuzz w=%d %s k=%d", width, shape, k)
		if width < 0 {
			// The shape does not apply: tieKeys draws prefix collisions.
			runs := make([][]kv.Pair[string, int], k)
			val := 0
			for r := range runs {
				runs[r] = tieKeys(rng, rng.Intn(3*radixMinLen))
				for i := range runs[r] {
					runs[r][i].Val = val
					val++
				}
			}
			checkScatter(t, runs, strLess, kv.StringPrefixKey(), workers, fmt.Sprintf("fuzz prefix k=%d", k))
			return
		}
		if width == 0 {
			runs := scatterRuns(rng, k, 2, shape)
			ints := make([][]kv.Pair[int, int], len(runs))
			for r, run := range runs {
				for _, p := range run {
					key := (int(p.Key[0])<<8 | int(p.Key[1])) - 1<<15
					ints[r] = append(ints[r], kv.Pair[int, int]{Key: key, Val: p.Val})
				}
			}
			checkScatter(t, ints, func(a, b int) bool { return a < b }, kv.IntFixedKey(), workers, label)
			return
		}
		runs := scatterRuns(rng, k, width, shape)
		if mode >= 128 && k > 0 {
			// An unencodable key anywhere must decline the whole call.
			r := rng.Intn(k)
			runs[r] = append(runs[r], kv.Pair[string, int]{Key: string(make([]byte, width+1))})
			ex := exec.NewLocal(workers)
			defer ex.Close()
			in := copyRuns(runs)
			if _, ok, err := ScatterSort(runs, strLess, kv.StringFixedKey(width), ex); ok || err != nil {
				t.Fatalf("%s: unencodable key: ok=%v err=%v", label, ok, err)
			}
			for i := range runs {
				samePairs(t, runs[i], in[i], label+": run after a declined ScatterSort")
			}
			return
		}
		checkScatter(t, runs, strLess, kv.StringFixedKey(width), workers, label)
	})
}

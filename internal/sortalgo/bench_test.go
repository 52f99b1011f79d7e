package sortalgo

import (
	"fmt"
	"math/rand"
	"testing"

	"supmr/internal/exec"
	"supmr/internal/kv"
	"supmr/internal/workload"
)

// Micro-benchmarks of the two merge algorithms across run counts — the
// in-memory heart of the Conclusion 3 ablation, without runtime or
// device overheads.

func benchRuns(total, runs int) [][]kv.Pair[uint64, uint64] {
	per := total / runs
	out := make([][]kv.Pair[uint64, uint64], runs)
	x := uint64(99)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for r := range out {
		n := per
		if r == runs-1 {
			n = total - per*(runs-1)
		}
		run := make([]kv.Pair[uint64, uint64], n)
		for i := range run {
			run[i] = kv.Pair[uint64, uint64]{Key: next(), Val: uint64(i)}
		}
		kv.SortPairs(run, func(a, b uint64) bool { return a < b })
		out[r] = run
	}
	return out
}

func BenchmarkMerge(b *testing.B) {
	const total = 1 << 18
	less := kv.Less[uint64](func(a, c uint64) bool { return a < c })
	for _, runs := range []int{8, 64, 512} {
		base := benchRuns(total, runs)
		for _, algo := range []MergeAlgo{MergePairwise, MergePWay} {
			b.Run(fmt.Sprintf("%s/runs=%d", algo, runs), func(b *testing.B) {
				ex := exec.NewLocal(4)
				defer ex.Close()
				b.ReportAllocs()
				b.SetBytes(int64(total * 16))
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					rs := make([][]kv.Pair[uint64, uint64], len(base))
					for j := range base {
						rs[j] = append([]kv.Pair[uint64, uint64](nil), base[j]...)
					}
					b.StartTimer()
					out, err := MergeWith(algo, rs, less, nil, ex)
					if err != nil || len(out) != total {
						b.Fatal("bad merge", err)
					}
				}
			})
		}
	}
}

func BenchmarkSortRuns(b *testing.B) {
	const total = 1 << 17
	base := benchRuns(total, 32)
	less := kv.Less[uint64](func(a, c uint64) bool { return a < c })
	ex := exec.NewLocal(4)
	defer ex.Close()
	b.ReportAllocs()
	b.SetBytes(int64(total * 16))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rs := make([][]kv.Pair[uint64, uint64], len(base))
		for j := range base {
			rs[j] = append([]kv.Pair[uint64, uint64](nil), base[j]...)
		}
		b.StartTimer()
		if _, err := SortRunsWith(rs, less, nil, ex); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoserTreeWidth(b *testing.B) {
	// One worker merging k columns: the merge tree's log2(k) scaling,
	// with comparison heads and with the uint64 codec's prefix heads.
	const total = 1 << 17
	less := kv.Less[uint64](func(a, c uint64) bool { return a < c })
	prefix := uint64FixedKey()
	for _, heads := range []string{"compare", "prefix"} {
		codec := &prefix
		if heads == "compare" {
			codec = nil
		}
		for _, k := range []int{4, 16, 64, 256} {
			base := benchRuns(total, k)
			b.Run(fmt.Sprintf("%s/k=%d", heads, k), func(b *testing.B) {
				ex := exec.NewLocal(1)
				defer ex.Close()
				b.SetBytes(int64(total * 16))
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					rs := make([][]kv.Pair[uint64, uint64], len(base))
					for j := range base {
						rs[j] = append([]kv.Pair[uint64, uint64](nil), base[j]...)
					}
					b.StartTimer()
					out, err := PWayMergeWith(rs, less, codec, ex)
					if err != nil || len(out) != total {
						b.Fatal("bad merge", err)
					}
				}
			})
		}
	}
}

// BenchmarkFixedKeyFinish compares the two ways a job finishes unsorted
// runs into one sorted array: the single-round scatter, and the path it
// replaces. Three key shapes, each in 64 runs on two workers:
//
//   - tera: 2¹⁸ terasort-shaped 10-byte keys; the scatter against the
//     radix run sort plus the p-way merge on prefix heads;
//   - words: 50 000 distinct word-count keys of 4–6 bytes
//     (workload.Word), and
//   - stems: 50 000 distinct 12–20-byte keys, each one of 64 8-byte
//     stems plus a tail, so most keys tie on their prefix;
//
// the two string shapes under the string prefix codec, against the
// comparison path (SortRunsWith and PWayMergeWith with no codec).
func BenchmarkFixedKeyFinish(b *testing.B) {
	const runs = 64
	rng := rand.New(rand.NewSource(1))
	// spread deals keys to the runs at random, as hash partitions do.
	spread := func(keys []string) [][]kv.Pair[string, uint64] {
		base := make([][]kv.Pair[string, uint64], runs)
		for i, k := range keys {
			r := rng.Intn(runs)
			base[r] = append(base[r], kv.Pair[string, uint64]{Key: k, Val: uint64(i)})
		}
		return base
	}
	tera := make([]string, 1<<18)
	key := make([]byte, 10)
	for i := range tera {
		rng.Read(key)
		tera[i] = string(key)
	}
	words := make([]string, 50000)
	for i := range words {
		words[i] = workload.Word(i)
	}
	stems := make([]string, 0, 50000)
	for seen := map[string]bool{}; len(stems) < cap(stems); {
		k := []byte(fmt.Sprintf("stem%04d", rng.Intn(64)))
		for n := 4 + rng.Intn(9); n > 0; n-- {
			k = append(k, 'a'+byte(rng.Intn(26)))
		}
		if !seen[string(k)] {
			seen[string(k)] = true
			stems = append(stems, string(k))
		}
	}
	teraCodec, prefix := kv.StringFixedKey(10), kv.StringPrefixKey()
	for _, c := range []struct {
		name  string
		n     int
		base  [][]kv.Pair[string, uint64]
		codec kv.FixedKeyCodec[string]
		other string                    // the path the scatter replaces
		merge *kv.FixedKeyCodec[string] // its codec
	}{
		{"tera", len(tera), spread(tera), teraCodec, "sort+pway", &teraCodec},
		{"words", len(words), spread(words), prefix, "compare", nil},
		{"stems", len(stems), spread(stems), prefix, "compare", nil},
	} {
		for _, path := range []string{"scatter", c.other} {
			b.Run(c.name+"/"+path, func(b *testing.B) {
				ex := exec.NewLocal(2)
				defer ex.Close()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					rs := copyRuns(c.base)
					b.StartTimer()
					var out []kv.Pair[string, uint64]
					var err error
					if path == "scatter" {
						out, _, err = ScatterSort(rs, strLess, c.codec, ex)
					} else if _, err = SortRunsWith(rs, strLess, c.merge, ex); err == nil {
						out, err = PWayMergeWith(rs, strLess, c.merge, ex)
					}
					if err != nil || len(out) != c.n {
						b.Fatal("bad finish", err)
					}
				}
			})
		}
	}
}

package sortalgo

import (
	"fmt"
	"math/rand"
	"testing"

	"supmr/internal/exec"
	"supmr/internal/kv"
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
	prefix := kv.Uint64FixedKey()
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

// BenchmarkFixedKeyFinish compares the two ways a job finishes 64
// unsorted terasort-shaped runs (10-byte keys) into one sorted array:
// the single-round scatter, and the radix run sort plus the p-way merge
// on prefix heads it replaces.
func BenchmarkFixedKeyFinish(b *testing.B) {
	const total, width = 1 << 18, 10
	rng := rand.New(rand.NewSource(1))
	base := make([][]kv.Pair[string, uint64], 64)
	key := make([]byte, width)
	for r := range base {
		for i := 0; i < total/len(base); i++ {
			rng.Read(key)
			base[r] = append(base[r], kv.Pair[string, uint64]{Key: string(key), Val: uint64(i)})
		}
	}
	codec := kv.StringFixedKey(width)
	for _, path := range []string{"scatter", "sort+pway"} {
		b.Run(path, func(b *testing.B) {
			ex := exec.NewLocal(2)
			defer ex.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rs := copyRuns(base)
				b.StartTimer()
				var out []kv.Pair[string, uint64]
				var err error
				if path == "scatter" {
					out, _, err = ScatterSort(rs, codec, ex)
				} else if _, err = SortRunsWith(rs, strLess, &codec, ex); err == nil {
					out, err = PWayMergeWith(rs, strLess, &codec, ex)
				}
				if err != nil || len(out) != total {
					b.Fatal("bad finish", err)
				}
			}
		})
	}
}

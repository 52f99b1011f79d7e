package container

import (
	"fmt"
	"testing"

	"supmr/internal/kv"
	"supmr/internal/workload"
)

// Micro-benchmarks of insert throughput per container — the §V-B
// container-choice argument at the data-structure level.

func BenchmarkHashInsertCombine(b *testing.B) {
	for _, distinct := range []int{64, 65536} {
		b.Run(fmt.Sprintf("distinct=%d", distinct), func(b *testing.B) {
			h := NewHash[string, int64](64, StringHasher, func(a, c int64) int64 { return a + c })
			keys := make([]string, distinct)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%06d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			l := h.NewLocal()
			for i := 0; i < b.N; i++ {
				l.Emit(keys[i%distinct], 1)
			}
			l.Flush()
		})
	}
}

func BenchmarkKeyRangeInsert(b *testing.B) {
	c := NewKeyRange[string, uint64](64)
	b.ReportAllocs()
	l := c.NewLocal()
	key := "0123456789"
	for i := 0; i < b.N; i++ {
		l.Emit(key, uint64(i))
	}
	l.Flush()
}

// BenchmarkSortViaContainers compares inserting unique keys through the
// hash container (lookup per insert) vs the unlocked key-range container
// (plain append) — why sort picks the latter.
func BenchmarkSortViaContainers(b *testing.B) {
	const n = 100_000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("uniquekey-%08d", i)
	}
	b.Run("Hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := NewHash[string, uint64](64, StringHasher, nil)
			l := h.NewLocal()
			for j, k := range keys {
				l.Emit(k, uint64(j))
			}
			l.Flush()
		}
	})
	b.Run("KeyRange", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := NewKeyRange[string, uint64](64)
			l := c.NewLocal()
			for j, k := range keys {
				l.Emit(k, uint64(j))
			}
			l.Flush()
		}
	})
}

func BenchmarkArrayInsert(b *testing.B) {
	a := NewArray[int64](256, 8, func(x, y int64) int64 { return x + y })
	b.ReportAllocs()
	l := a.NewLocal()
	for i := 0; i < b.N; i++ {
		l.Emit(i&255, 1)
	}
	l.Flush()
}

func BenchmarkHashReduce(b *testing.B) {
	h := NewHash[string, int64](64, StringHasher, func(a, c int64) int64 { return a + c })
	l := h.NewLocal()
	for i := 0; i < 50_000; i++ {
		l.Emit(fmt.Sprintf("key-%05d", i%10_000), 1)
	}
	l.Flush()
	reduce := func(_ string, vs []int64) int64 { return vs[0] }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out []kv.Pair[string, int64]
		for p := 0; p < h.Partitions(); p++ {
			out = h.Reduce(p, reduce, out)
		}
		if len(out) != 10_000 {
			b.Fatal("bad reduce")
		}
	}
}

// flatVocabs are the two key sets of the FlatHash benchmarks: Zipf text
// words of up to 8 bytes for the most part, and long keys that share
// their first 8 bytes and their length, so a probe reaches the arena on
// every candidate entry.
func flatVocabs(distinct int) []flatVocab {
	words, docs := make([]string, distinct), make([]string, distinct)
	for i := range distinct {
		words[i] = workload.Word(i)
		docs[i] = fmt.Sprintf("document-%06d", i)
	}
	return []flatVocab{{"words", words}, {"shared-prefix", docs}}
}

type flatVocab struct {
	name string
	keys []string
}

// BenchmarkFlatFold folds a hit-dominated stream into a warm local
// through the word path: 256 KiB of text drawn from 4096 keys, Zipf
// text for "words" and every key in turn for "shared-prefix".
func BenchmarkFlatFold(b *testing.B) {
	for _, v := range flatVocabs(4096) {
		b.Run("vocab="+v.name, func(b *testing.B) {
			text := make([]byte, 256<<10)
			if v.name == "words" {
				workload.TextGen{Seed: 1, Vocab: len(v.keys)}.Fill()(0, text)
			} else {
				for at, i := 0, 0; at < len(text); i++ {
					at += copy(text[at:], v.keys[i%len(v.keys)]+" ")
				}
			}
			l := NewFlatHash[int64](64, sumInt64).NewLocal().(*flatLocal[int64])
			l.EmitWords(text, 1)
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				l.EmitWords(text, 1)
			}
		})
	}
}

// BenchmarkFlatFlush flushes a local holding 16 384 distinct keys into
// shards that already hold them: the steady state of a map wave's
// flush. Only Flush is timed.
func BenchmarkFlatFlush(b *testing.B) {
	for _, v := range flatVocabs(16384) {
		b.Run("vocab="+v.name, func(b *testing.B) {
			f := NewFlatHash[int64](64, sumInt64)
			fill := func() Local[string, int64] {
				l := f.NewLocal()
				for _, k := range v.keys {
					l.Emit(k, 1)
				}
				return l
			}
			fill().Flush()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				l := fill()
				b.StartTimer()
				l.Flush()
			}
		})
	}
}

package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
)

// sameAsFmt checks the encoder against the rendering it replaces, line
// by line: fmt.Sprintf("%v\t%v\n").
func sameAsFmt[K any, V any](t *testing.T, pairs []Pair[K, V]) {
	t.Helper()
	enc := NewTextEncoder[K, V]()
	var all, want bytes.Buffer
	for _, p := range pairs {
		line := fmt.Sprintf("%v\t%v\n", p.Key, p.Val)
		if got := enc.AppendText(nil, p.Key, p.Val); string(got) != line {
			t.Errorf("%T/%T: AppendText = %q, fmt = %q", p.Key, p.Val, got, line)
		}
		if got := enc.AppendText([]byte("kept"), p.Key, p.Val); string(got) != "kept"+line {
			t.Errorf("%T/%T: AppendText dropped its prefix: %q", p.Key, p.Val, got)
		}
		want.WriteString(line)
	}
	if err := WriteText(&all, pairs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all.Bytes(), want.Bytes()) {
		t.Errorf("%T/%T: WriteText wrote %d bytes, fmt %d, or they differ", *new(K), *new(V), all.Len(), want.Len())
	}
}

type accum struct {
	N   int64
	Sum []float64
}

type named string

// TestTextEncoderMatchesFmt covers every key/value type a bundled app
// emits, the strconv corners, and the types that fall back to fmt.
func TestTextEncoderMatchesFmt(t *testing.T) {
	sameAsFmt(t, []Pair[string, int64]{{"", 0}, {"the", 48211}, {"tab\tin\nkey", -1}, {"ü", math.MinInt64}, {"z", math.MaxInt64}})
	sameAsFmt(t, []Pair[string, uint64]{{"~sHd0jDv6X", 0}, {"AsfAGHM5om", math.MaxUint64}, {"k", 1 << 63}})
	sameAsFmt(t, []Pair[int, int64]{{0, 0}, {-7, 7}, {math.MinInt, -1}, {math.MaxInt, 1}})
	sameAsFmt(t, []Pair[int, float64]{
		{0, 0}, {1, math.Copysign(0, -1)}, {2, math.NaN()}, {3, math.Inf(1)}, {4, math.Inf(-1)},
		{5, 1e21}, {6, 1e20}, {7, 5e-324}, {8, math.MaxFloat64}, {9, 0.1}, {10, 1.0 / 3}, {11, 100000}, {12, 1e-5}, {13, 123456789.125},
	})
	sameAsFmt(t, []Pair[uint64, float64]{{math.MaxUint64, -2.5}})
	// The fmt fallback: inverted index postings, k-means accumulators,
	// raw bytes (which %v prints as a number list), named and pointer-free
	// composite types.
	sameAsFmt(t, []Pair[string, []string]{{"word", nil}, {"word", []string{"a.txt", "b c.txt"}}})
	sameAsFmt(t, []Pair[int, accum]{{3, accum{}}, {4, accum{N: 2, Sum: []float64{1.5, math.NaN()}}}})
	sameAsFmt(t, []Pair[string, []byte]{{"k", []byte("hi")}, {"k", nil}})
	sameAsFmt(t, []Pair[named, int32]{{"n", -3}})
	sameAsFmt(t, []Pair[[2]int, bool]{{[2]int{1, 2}, true}})
	sameAsFmt(t, []Pair[any, error]{{nil, nil}, {7, errors.New("boom")}})
}

// TestTextEncoderAllocs: the typed appenders box nothing — rendering
// into a buffer with room costs no allocation per pair.
func TestTextEncoderAllocs(t *testing.T) {
	ps := []Pair[string, uint64]{{"ASCII12345", 1 << 40}, {"~sHd0jDv6X", 7}}
	fs := []Pair[int, float64]{{12, 0.25}, {-3, 1e21}}
	es, ef := NewTextEncoder[string, uint64](), NewTextEncoder[int, float64]()
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		b := buf
		for _, p := range ps {
			b = es.AppendText(b, p.Key, p.Val)
		}
		for _, p := range fs {
			b = ef.AppendText(b, p.Key, p.Val)
		}
	}); n != 0 {
		t.Errorf("typed AppendText allocates %.0f objects per 4 pairs, want 0", n)
	}
}

type failAfter struct{ left int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.left--; w.left < 0 {
		return 0, errors.New("writer full")
	}
	return len(p), nil
}

// TestWriteTextFlushesInBlocksAndStops: the output goes out about 64 KiB
// at a time, all of it, and a write error ends the render.
func TestWriteTextFlushesInBlocksAndStops(t *testing.T) {
	ps := make([]Pair[int, int64], 40000) // ~430 KiB rendered
	for i := range ps {
		ps[i] = Pair[int, int64]{Key: i, Val: int64(i) * 1000}
	}
	w := &failAfter{left: 1 << 30}
	if err := WriteText(w, ps); err != nil {
		t.Fatal(err)
	}
	if writes := 1<<30 - w.left; writes < 4 || writes > 10 {
		t.Errorf("%d writes for ~430 KiB, want one per ~64 KiB", writes)
	}
	if err := WriteText(&failAfter{left: 2}, ps); err == nil {
		t.Error("a failing writer's error was swallowed")
	}
	if err := WriteText[int, int64](&failAfter{}, nil); err != nil {
		t.Errorf("no pairs, no write: %v", err)
	}
}

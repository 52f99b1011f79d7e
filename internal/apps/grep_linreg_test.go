package apps

import (
	"math"
	"testing"

	"supmr/internal/chunk"
	"supmr/internal/core"
	"supmr/internal/kv"
	"supmr/internal/storage"
)

func TestGrepMap(t *testing.T) {
	g := Grep{Patterns: []string{"ERROR", "WARN"}}
	text := []byte("ok line\nERROR something\nWARN minor\nERROR again ERROR twice-on-one-line\n")
	got := collectEmits[string, int64](g, text)
	counts := make(map[string]int64)
	for _, p := range got {
		counts[p.Key] += p.Val
	}
	// Per-line semantics: a line counts once per pattern it contains.
	if counts["ERROR"] != 2 || counts["WARN"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestGrepEndToEnd(t *testing.T) {
	g := Grep{Patterns: []string{"needle"}}
	text := []byte("hay\nneedle in hay\nhay hay\nanother needle\n")
	f := storage.BytesFile("in", text, storage.NewNullDevice(storage.NewFakeClock()))
	inter, err := chunk.NewInterFile(f, 16, chunk.NewlineBoundary{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run[string, int64](g, chunk.NewWholeInput(inter), g.NewContainer(),
		core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 || res.Pairs[0].Key != "needle" || res.Pairs[0].Val != 2 {
		t.Errorf("grep result = %v", res.Pairs)
	}
}

func TestGrepNoMatches(t *testing.T) {
	g := Grep{Patterns: []string{"absent"}}
	got := collectEmits[string, int64](g, []byte("nothing here\n"))
	if len(got) != 0 {
		t.Errorf("emitted %v for non-matching input", got)
	}
}

// synthPoints builds 2-byte (x, y) records on the line y = a*x + b.
func synthPoints(a, b float64, n int) []byte {
	buf := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		x := float64(i % 200)
		y := a*x + b
		if y < 0 {
			y = 0
		}
		if y > 255 {
			y = 255
		}
		buf = append(buf, byte(x), byte(y))
	}
	return buf
}

func TestLinearRegressionRecoversLine(t *testing.T) {
	lr := LinearRegression{}
	data := synthPoints(0.5, 20, 10000)
	got := collectEmits[int, float64](lr, data)
	// Fold emissions like the container would.
	stats := make(map[int]float64)
	for _, p := range got {
		stats[p.Key] += p.Val
	}
	var pairs []kv.Pair[int, float64]
	for k, v := range stats {
		pairs = append(pairs, kv.Pair[int, float64]{Key: k, Val: v})
	}
	slope, intercept, ok := lr.Fit(pairs)
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(slope-0.5) > 0.02 {
		t.Errorf("slope = %.3f, want 0.5", slope)
	}
	if math.Abs(intercept-20) > 1.5 {
		t.Errorf("intercept = %.2f, want 20", intercept)
	}
}

func TestLinearRegressionEndToEnd(t *testing.T) {
	lr := LinearRegression{}
	data := synthPoints(1.0, 10, 4000)
	f := storage.BytesFile("pts", data, storage.NewNullDevice(storage.NewFakeClock()))
	inter, err := chunk.NewInterFile(f, 512, lr.Boundary())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run[int, float64](lr, chunk.NewWholeInput(inter), lr.NewContainer(),
		core.Options{Workers: 2, Boundary: lr.Boundary()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 6 {
		t.Fatalf("expected 6 statistic cells, got %d", len(res.Pairs))
	}
	slope, intercept, ok := lr.Fit(res.Pairs)
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(slope-1.0) > 0.05 || math.Abs(intercept-10) > 3 {
		t.Errorf("fit = (%.3f, %.2f), want (1.0, 10)", slope, intercept)
	}
	// N statistic must equal the point count.
	for _, p := range res.Pairs {
		if p.Key == StatN && int(p.Val) != 4000 {
			t.Errorf("N = %v, want 4000", p.Val)
		}
	}
}

func TestLinearRegressionDegenerate(t *testing.T) {
	lr := LinearRegression{}
	if _, _, ok := lr.Fit(nil); ok {
		t.Error("fit of no statistics should fail")
	}
	// All x equal: vertical line, no unique fit.
	var pairs []kv.Pair[int, float64]
	pairs = append(pairs,
		kv.Pair[int, float64]{Key: StatN, Val: 3},
		kv.Pair[int, float64]{Key: StatSumX, Val: 9},
		kv.Pair[int, float64]{Key: StatSumXX, Val: 27},
	)
	if _, _, ok := lr.Fit(pairs); ok {
		t.Error("degenerate fit should fail")
	}
	// Empty split emits nothing.
	if got := collectEmits[int, float64](lr, nil); len(got) != 0 {
		t.Errorf("empty split emitted %v", got)
	}
}

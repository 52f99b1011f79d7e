package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"supmr"
	"supmr/internal/jobspec"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so helpers must sort
	}
	return xs
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd sample = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// 40 samples: p75 is the 30th value, with exactly ten beyond it.
	if got := percentile(seq(40), 75); got != 30 {
		t.Errorf("p75 of 1..40 = %v, want 30", got)
	}
	if got := samplesBeyond(40, 75); got != 10 {
		t.Errorf("samples beyond p75 of 40 = %d, want 10", got)
	}
	if got := percentile(seq(40), 100); got != 40 {
		t.Errorf("p100 of 1..40 = %v, want 40", got)
	}
}

// The reported tail is the highest percentile with ten samples beyond it.
func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{2, 50}, {19, 50}, {30, 66}, {39, 66}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99}} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 50 && samplesBeyond(c.n, got) < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves only %d samples beyond", c.n, got, samplesBeyond(c.n, got))
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the A/A acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles(seq(10))
	if !approx(q1, 2.75) || !approx(q2, 5.5) || !approx(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if !approx(q1, 1.75) || !approx(q2, 3.5) || !approx(q3, 5.25) {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := newTracer()
	root := tr.add("job", 0, ms(0), ms(100), 0, 0)
	a := tr.add("a", root, ms(10), ms(30), 0, 0)
	tr.add("b", root, ms(20), ms(50), 0, 0)  // overlaps a: counted once
	tr.add("c", root, ms(60), ms(120), 0, 0) // runs past the parent: clipped
	tr.add("grandchild", a, ms(12), ms(14), 0, 0)
	tr.add("other root", 0, ms(0), ms(100), 0, 0)
	spans := tr.snapshot()
	if got := selfTime(spans, root); got != ms(20) {
		t.Errorf("root self time = %v, want 20ms (100 - [10,50] - [60,100])", got)
	}
	if got := selfTime(spans, a); got != ms(18) {
		t.Errorf("a self time = %v, want 18ms", got)
	}
}

func TestPhaseSpansFromMarkers(t *testing.T) {
	tr := newTracer()
	root := tr.add("job", 0, 0, 100, 0, 0)
	tr.phaseSpans(root, []supmr.TraceMarker{
		{At: 0, Label: "read+map:start"}, {At: 40, Label: "read+map:end"},
		{At: 40, Label: "memo:start"}, {At: 45, Label: "ingest stall"}, {At: 50, Label: "memo:end"},
		{At: 50, Label: "read+map:start"}, {At: 90, Label: "read+map:end"},
	})
	var names []string
	for _, s := range tr.snapshot()[1:] {
		names = append(names, s.Name)
	}
	if want := []string{"phase.read+map", "phase.memo", "phase.read+map"}; !reflect.DeepEqual(names, want) {
		t.Errorf("phase spans = %v, want %v", names, want)
	}
	if got := selfTime(tr.snapshot(), root); got != 10 {
		t.Errorf("unattributed = %v, want 10", got)
	}
}

// The harness's own digest must render pairs exactly as the repository's
// digest does, for every key and value type the workloads use.
func TestDigestMatchesJobspec(t *testing.T) {
	words := []supmr.Pair[string, int64]{{Key: "baba", Val: 3}, {Key: "ka lu", Val: -1}}
	keys := []supmr.Pair[string, uint64]{{Key: "AAAAAAAAAA", Val: math.MaxUint64}, {Key: "zz", Val: 0}}
	hist := []supmr.Pair[int, int64]{{Key: 0, Val: 7}, {Key: 255, Val: 1 << 40}}
	if got, want := digestPairs(words), jobspec.Digest(words); got != want {
		t.Errorf("string/int64 digest %s, want %s", got, want)
	}
	if got, want := digestPairs(keys), jobspec.Digest(keys); got != want {
		t.Errorf("string/uint64 digest %s, want %s", got, want)
	}
	if got, want := digestPairs(hist), jobspec.Digest(hist); got != want {
		t.Errorf("int/int64 digest %s, want %s", got, want)
	}
	if got, want := digestBytes(renderPairs(hist)), jobspec.Digest(hist); got != want {
		t.Errorf("rendered digest %s, want %s", got, want)
	}
}

func TestReferences(t *testing.T) {
	text := []byte("ba be\tba\r\nbi  ba\n")
	counts := countWords(text)
	if want := map[string]int64{"ba": 3, "be": 1, "bi": 1}; !reflect.DeepEqual(counts, want) {
		t.Errorf("countWords = %v, want %v", counts, want)
	}
	got := digestCounts(counts, sortedKeys(counts), map[string]int64{"ba": 1, "aa": 2})
	want := digestBytes([]byte("aa\t2\nba\t4\nbe\t1\nbi\t1\n"))
	if got != want {
		t.Errorf("digestCounts with a delta = %s, want %s", got, want)
	}
	tera := teraBytes(9, 500)
	digest, check := sortReference(tera)
	if !check.Ordered || check.Records != 500 {
		t.Errorf("sort reference: ordered=%v records=%d", check.Ordered, check.Records)
	}
	rep, err := supmr.RunBytes[string, uint64](supmr.SortJob(), tera, supmr.SortContainer(),
		supmr.Config{Boundary: supmr.CRLFRecords})
	if err != nil {
		t.Fatal(err)
	}
	if d := jobspec.Digest(rep.Pairs); d != digest {
		t.Errorf("sort reference digest %s, traditional runtime's %s", digest, d)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is generated from the tables in schema.go
// (go run . -schema); this fails when one is edited without the other.
func TestSchemaGolden(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	generated, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(generated, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(onDisk, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the metric tables; regenerate it with: go run . -schema > ../BENCHMARK.json")
	}
	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q is outside the contract's alphabet", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name, "")
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end", m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("the contract requires a setup_s metric in s, lower is better")
	}
	for _, m := range perLayer {
		check("per-layer", m.Name, m.Unit)
	}
	if len(workloads) != 7 || len(perLayer) > 128 || len(onDisk) > 64<<10 {
		t.Errorf("%d workloads, %d per-layer metrics, %d bytes", len(workloads), len(perLayer), len(onDisk))
	}
}

// The all-workloads command at 1/16 size: every workload sets up, runs,
// verifies its digests, completes a traced pass with a chain whose
// output digest-equals the reference, and the whole thing is quick.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	out, spans := filepath.Join(dir, "run.json"), filepath.Join(dir, "spans.json")
	var stdout, stderr bytes.Buffer
	start := time.Now()
	if code := run([]string{"-smoke", "-seed", "5", "-out", out, "-trace-out", spans}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d: %s\n%s", code, stderr.String(), stdout.String())
	}
	if took := time.Since(start); took > 5*time.Second && !testing.Short() {
		t.Errorf("smoke run took %v, want under 5s", took)
	}
	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clock != "wall" || res.Seed != 5 || res.Scale != 16 || res.GoVersion == "" || res.GOMAXPROCS == 0 {
		t.Errorf("run metadata incomplete: %+v", res)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(res.Workloads), len(workloads))
	}
	for i, wr := range res.Workloads {
		if wr.Name != workloads[i].name {
			t.Errorf("workload %d is %s, want %s", i, wr.Name, workloads[i].name)
		}
		if wr.Failed != 0 || wr.Attempted == 0 || wr.Config == nil {
			t.Errorf("%s: %d failed of %d attempted", wr.Name, wr.Failed, wr.Attempted)
		}
		for _, m := range endToEnd {
			if st, ok := wr.EndToEnd[m.Name]; !ok || st.Value <= 0 || st.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", wr.Name, m.Name, st)
			}
		}
		for _, m := range perLayer {
			if _, ok := wr.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wr.Name, m.Name)
			}
		}
		// Every workload maps something, and the mode it exists for ran.
		if wr.PerLayer["mapreduce.map_s"] <= 0 || wr.PerLayer["chunk.next_s"] <= 0 {
			t.Errorf("%s: chain did not run: %v", wr.Name, wr.PerLayer)
		}
	}
	for name, metric := range map[string]string{"sort-ooc": "spill.runs", "wc-nodes4": "shuffle.frames",
		"wc-memo-append": "memo.hit_ratio", "engine-mix": "sched.job_latency_p50_s", "wc-disk": "storage.ingest_busy_s"} {
		for _, wr := range res.Workloads {
			if wr.Name == name && wr.PerLayer[metric] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, metric, wr.PerLayer[metric])
			}
		}
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name, Ph string
			Dur      float64
			Args     map[string]any
		}
	}
	if err := json.Unmarshal(data, &chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) < 7*4 {
		t.Errorf("only %d trace events exported", len(chrome.TraceEvents))
	}
	for _, e := range chrome.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Args["workload"] == "" {
			t.Fatalf("malformed trace event %+v", e)
		}
	}
}

// Phase closure: the harvested phases plus the unattributed line add up
// to the root span, and the root span's self time (its duration minus
// the phase spans the markers produced) is that same unattributed time.
func TestPhaseClosure(t *testing.T) {
	p := smokePlan(3)
	for _, name := range []string{"wc-disk", "sort-ooc", "wc-memo-append"} {
		s, err := prepare(findWorkload(name), p)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		err = tracedPass(s, p, tr)
		s.u.close()
		if err != nil {
			t.Fatal(err)
		}
		spans := tr.snapshot()
		root := spans[0] // the one traced iteration's job span
		if !strings.HasPrefix(root.Name, "job.") {
			t.Fatalf("%s: first span is %q", name, root.Name)
		}
		sum := s.layers["phase.unattributed_s"]
		for _, ph := range phases {
			sum += s.layers[ph.metric]
		}
		if want := root.dur().Seconds(); math.Abs(sum-want) > 0.01*want {
			t.Errorf("%s: phases + unattributed = %.6fs, root span %.6fs", name, sum, want)
		}
		self := selfTime(spans, root.ID).Seconds()
		if un := s.layers["phase.unattributed_s"]; math.Abs(self-un) > 0.01*root.dur().Seconds() {
			t.Errorf("%s: root self time %.6fs, unattributed %.6fs", name, self, un)
		}
		if s.failed != 0 {
			t.Errorf("%s: %d failures: %v", name, s.failed, s.firstErr)
		}
	}
}

// The driver's form: one workload, one JSON object on the last line with
// exactly the contract's keys and exactly the metrics of the chosen kind.
func TestDriverResultLine(t *testing.T) {
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-smoke", "--workload", "sort-ooc", "--seed", "2", "--seconds", "0", "--trace", c.trace}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		if len(raw) != 4 {
			t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", raw)
		}
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(c.defs) {
			t.Errorf("trace %s: %+v", c.trace, line)
		}
		for _, m := range c.defs {
			if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v", c.trace, m.Name, got)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nonsense"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "job_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "input_mbps", Better: "higher", Bound: 0.10}
	tight := func(v float64) stat { return stat{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 40} }
	wide := func(v float64) stat { return stat{Value: v, Q1: v * 0.9, Q3: v * 1.1, N: 40} }
	for _, c := range []struct {
		def  metricDef
		a, b stat
		want verdict
	}{
		{lower, tight(1), tight(1.05), ok},
		{lower, tight(1), tight(0.5), ok},
		{lower, tight(1), tight(1.2), regressed},
		{higher, tight(100), tight(80), regressed},
		{higher, tight(100), tight(120), ok},
		{lower, tight(1), wide(1.2), unresolved},
		{lower, wide(1), tight(1), unresolved},
	} {
		if got, _, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.def.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, job float64, failed int) string {
		e2e := map[string]stat{}
		for _, m := range endToEnd {
			e2e[m.Name] = tight(job)
		}
		res := resultFile{Schema: schemaVersion, Seed: 1, Scale: 1,
			Workloads: []workloadResult{{Name: "wc-cpu", EndToEnd: e2e, Attempted: 40, Failed: failed}}}
		data, _ := json.Marshal(res)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow, wrong := write("a.json", 1, 0), write("b.json", 1.02, 0), write("c.json", 1.5, 0), write("d.json", 1, 3)
	for _, c := range []struct {
		path string
		code int
	}{{same, 0}, {slow, 1}, {wrong, 1}} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-compare", base, c.path}, &stdout, &stderr); code != c.code {
			t.Errorf("-compare a %s exited %d, want %d\n%s%s", filepath.Base(c.path), code, c.code, stdout.String(), stderr.String())
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is -compare's finding for one workload and end-to-end metric.
type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved" // the samples spread wider than the bound
)

// judge compares a baseline metric a with a candidate b. worse is how
// much worse b's value is, as a share of a's; spread is the wider of the
// two runs' interquartile distances between rounds, as a share of their
// values. A metric whose spread exceeds its bound cannot be called
// either way.
func judge(def metricDef, a, b stat) (v verdict, worse, spread float64) {
	worse = ratio(b.Value-a.Value, math.Abs(a.Value))
	if def.Better == "higher" {
		worse = -worse
	}
	spread = max(ratio(a.Q3-a.Q1, math.Abs(a.Value)), ratio(b.Q3-b.Q1, math.Abs(b.Value)))
	switch {
	case spread > def.Bound:
		return unresolved, worse, spread
	case worse > def.Bound:
		return regressed, worse, spread
	}
	return ok, worse, spread
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %d, this build reads schema %d", path, r.Schema, schemaVersion)
	}
	return &r, nil
}

// compareFiles prints one row per workload and end-to-end metric — both
// medians, how much worse the second is, the bound, the verdict — and
// reports whether anything regressed. A failed iteration on the
// candidate side is a regression whatever the times say.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed || a.Scale != b.Scale {
		fmt.Fprintf(w, "note: runs differ in seed (%d vs %d) or scale (%d vs %d)\n", a.Seed, b.Seed, a.Scale, b.Scale)
	}
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	anyRegressed := false
	fmt.Fprintf(w, "%-16s %-18s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, found := byName[wa.Name]
		if !found {
			return false, fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		for _, def := range endToEnd {
			v, worse, spread := judge(def, wa.EndToEnd[def.Name], wb.EndToEnd[def.Name])
			anyRegressed = anyRegressed || v == regressed
			fmt.Fprintf(w, "%-16s %-18s %12.5g %12.5g %+7.1f%% %6.1f%% %6.0f%%  %s\n", wa.Name, def.Name,
				wa.EndToEnd[def.Name].Value, wb.EndToEnd[def.Name].Value, 100*worse, 100*spread, 100*def.Bound, v)
		}
		if wb.Failed > wa.Failed {
			anyRegressed = true
			fmt.Fprintf(w, "%-16s %-18s %12d %12d %43s\n", wa.Name, "failed", wa.Failed, wb.Failed, regressed)
		}
	}
	return anyRegressed, nil
}

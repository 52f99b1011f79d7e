package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestTablesPrintEveryRow: at small sizes both scaled tables print every
// Table II row with a complete phase breakdown — durations, except the
// fused map column of the SupMR rows — and close with a speedup line.
func TestTablesPrintEveryRow(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-wc-size", "1m", "-sort-size", "1m", "-workers", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	title, rows := "", map[string]string{} // rows: table title -> row labels seen, in order
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "word count:"), strings.HasPrefix(line, "sort:"):
			title, _, _ = strings.Cut(line, ":")
		case strings.HasPrefix(line, "speedup"):
			title = ""
		case title != "" && !strings.HasPrefix(line, "chunk"):
			if len(f) != 6 {
				t.Fatalf("%s row %q: want a label and five phase cells", title, line)
			}
			for i, cell := range f[1:] {
				_, err := strconv.ParseFloat(strings.TrimSuffix(cell, "s"), 64)
				if fused := i == 2 && f[0] != "none"; fused && cell != "(fused)" || !fused && err != nil {
					t.Errorf("%s row %q: bad cell %q", title, line, cell)
				}
			}
			rows[title] += f[0] + " "
		}
	}
	if rows["word count"] != "none 1/155 50/155 " || rows["sort"] != "none 1/60 " {
		t.Errorf("rows printed = %q\n%s", rows, out.String())
	}
	if o := out.String(); !strings.Contains(o, "Table II at paper scale") || strings.Count(o, "speedup (") != 3 {
		t.Errorf("model table or a speedup line missing:\n%s", o)
	}
}

// A misspelt -app is an error, not a model table and no runs.
func TestUnknownAppIsAnError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-app", "wordcnt", "-model=false"}, &out); err == nil || !strings.Contains(err.Error(), "wordcnt") {
		t.Fatalf("err = %v, want one naming the app; output:\n%s", err, out.String())
	}
}

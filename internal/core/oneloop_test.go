package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneMapLoop is a vet-style check that Run stays the only
// ingest→map loop: outside internal/mapreduce (which defines the map
// wave) and internal/core (which drives it), no non-test Go in the
// module refers to mapreduce.MapWave or MapWaveTimed, so a second loop
// cannot grow back beside this one. Drivers that call Run once per
// iteration are fine: apps.RunKMeans is one. bench/ is a separate
// module with its own layer timings and is not scanned.
func TestOneMapLoop(t *testing.T) {
	root := filepath.Join("..", "..")
	skip := map[string]bool{"bench": true, filepath.Join("internal", "mapreduce"): true, filepath.Join("internal", "core"): true}
	scanned := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if skip[rel] || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		scanned++
		name := "" // the file's name for the mapreduce package, if imported
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "supmr/internal/mapreduce" {
				name = "mapreduce"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == name && (sel.Sel.Name == "MapWave" || sel.Sel.Name == "MapWaveTimed") {
				t.Errorf("%s: %s.%s outside internal/core: drive map waves through core.Run", fset.Position(sel.Pos()), name, sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned only %d files; the walk is not covering the module", scanned)
	}
}

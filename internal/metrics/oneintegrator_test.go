package metrics

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

// TestOneTraceIntegrator keeps BuildTrace the only bucket integrator:
// outside internal/metrics, no non-test Go in the module builds a
// metrics.Sample or metrics.Trace literal, so a second trace builder
// cannot grow back beside it. bench/ is a separate module and is not
// scanned.
func TestOneTraceIntegrator(t *testing.T) {
	root := filepath.Join("..", "..")
	skip := map[string]bool{"bench": true, filepath.Join("internal", "metrics"): true}
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
		name := "" // the file's name for the metrics package, if imported
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "supmr/internal/metrics" {
				name = "metrics"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			typ := lit.Type
			if arr, ok := typ.(*ast.ArrayType); ok {
				typ = arr.Elt
			}
			if sel, ok := typ.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name && (sel.Sel.Name == "Sample" || sel.Sel.Name == "Trace") {
					t.Errorf("%s: %s.%s literal outside internal/metrics: build traces with metrics.BuildTrace", fset.Position(lit.Pos()), name, sel.Sel.Name)
				}
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

package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestOneMapLoop is a vet-style check that Run stays the only
// ingest→map loop and is reached one way: outside internal/mapreduce
// (which defines the map wave) and internal/core (which drives it), no
// non-test Go in the module refers to mapreduce.MapWave or MapWaveTimed,
// so a second loop cannot grow back beside this one; and outside package
// supmr (the module root), none refers to core.Run, so every job —
// an iterative driver's rounds included — is an ordinary run of the
// facade, solo or on an engine. bench/ is a separate module with its own
// layer timings and is not scanned.
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
		// banned maps the file's name for each watched package to the
		// selectors it may not use here.
		banned := map[string][]string{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			var sels []string
			switch {
			case p == "supmr/internal/mapreduce":
				sels = []string{"MapWave", "MapWaveTimed"}
			case p == "supmr/internal/core" && filepath.Dir(rel) != ".":
				sels = []string{"Run"}
			default:
				continue
			}
			name := filepath.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			banned[name] = sels
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && slices.Contains(banned[x.Name], sel.Sel.Name) {
				t.Errorf("%s: %s.%s: drive map waves through core.Run, and jobs through supmr.Run", fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
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

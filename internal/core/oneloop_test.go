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
// ingest→map loop and is reached one way. No Go file in the module,
// tests included, imports internal/mapreduce: it only forwards the phase
// primitives to bench/, a separate module with its own layer timings
// that is not scanned. Outside internal/core (which defines and drives
// them) and that shim, no non-test Go refers to core.MapWave or
// core.ReducePhase, so a second loop cannot grow back beside this one;
// and outside package supmr (the module root), none refers to core.Run,
// so every job — an iterative driver's rounds included — is an
// ordinary run of the facade, solo or on an engine.
func TestOneMapLoop(t *testing.T) {
	root := filepath.Join("..", "..")
	primitives := map[string]bool{filepath.Join("internal", "mapreduce"): true, filepath.Join("internal", "core"): true}
	scanned := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "bench" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		scanned++
		test := strings.HasSuffix(path, "_test.go")
		// banned maps the file's name for the core package to the
		// selectors it may not use here.
		banned := map[string][]string{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "supmr/internal/mapreduce" {
				t.Errorf("%s imports %s: only bench/ may; use internal/core", rel, p)
			}
			if p != "supmr/internal/core" || test || primitives[filepath.Dir(rel)] {
				continue
			}
			sels := []string{"MapWave", "ReducePhase"}
			if filepath.Dir(rel) != "." {
				sels = append(sels, "Run")
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
	if scanned < 100 {
		t.Fatalf("scanned only %d files; the walk is not covering the module", scanned)
	}
}

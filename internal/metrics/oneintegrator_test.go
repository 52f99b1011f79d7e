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

// walkModule parses every non-test Go file of the module (bench/ is a
// separate module and is not scanned) and hands each to visit with its
// directory relative to the module root and the name the file imports
// this package under ("" when it does not import it).
func walkModule(t *testing.T, visit func(dir string, fset *token.FileSet, f *ast.File, metricsName string)) {
	t.Helper()
	root := filepath.Join("..", "..")
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		scanned++
		name := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "supmr/internal/metrics" {
				name = "metrics"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		visit(filepath.Dir(rel), fset, f, name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned only %d files; the walk is not covering the module", scanned)
	}
}

// TestOneTraceIntegrator keeps BuildTrace the only bucket integrator:
// outside internal/metrics, no non-test Go in the module builds a
// metrics.Sample or metrics.Trace literal, so a second trace builder
// cannot grow back beside it.
func TestOneTraceIntegrator(t *testing.T) {
	walkModule(t, func(dir string, fset *token.FileSet, f *ast.File, name string) {
		if name == "" || dir == filepath.Join("internal", "metrics") {
			return
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
	})
}

// TestOnePhaseRecorder keeps a job's exec.Record the only recorder of
// phase times: no type outside internal/exec declares a StartPhase or
// EndPhase method, and no non-test Go outside internal/exec and
// internal/perfmodel (whose synthetic jobs are not recorded) fills a
// PhaseTimes with Add or Set. A call is recognised by a phase constant
// as its first argument — metrics.PhaseX, or PhaseX inside this package.
func TestOnePhaseRecorder(t *testing.T) {
	execDir, modelDir := filepath.Join("internal", "exec"), filepath.Join("internal", "perfmodel")
	walkModule(t, func(dir string, fset *token.FileSet, f *ast.File, name string) {
		if dir == execDir {
			return
		}
		isPhase := func(e ast.Expr) bool {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				pkg, ok := x.X.(*ast.Ident)
				return ok && name != "" && pkg.Name == name && strings.HasPrefix(x.Sel.Name, "Phase")
			case *ast.Ident:
				return f.Name.Name == "metrics" && strings.HasPrefix(x.Name, "Phase")
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil && (n.Name.Name == "StartPhase" || n.Name.Name == "EndPhase") {
					t.Errorf("%s: a second phase recorder: %s outside internal/exec; bracket phases on the executor's Record", fset.Position(n.Pos()), n.Name.Name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && dir != modelDir && (sel.Sel.Name == "Add" || sel.Sel.Name == "Set") && len(n.Args) == 2 && isPhase(n.Args[0]) {
					t.Errorf("%s: PhaseTimes.%s outside internal/exec: read phase times from the executor's Record", fset.Position(n.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	})
}

package profipy

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

// walkProgramFiles parses every program file under root into fset —
// non-test Go files outside hidden directories, testdata, the directory
// own and, below the module root, the separately built bench/ module —
// and hands each to visit with the name it imports pkgPath under (""
// when it does not import it).
func walkProgramFiles(t *testing.T, fset *token.FileSet, root, pkgPath, own string, visit func(fset *token.FileSet, f *ast.File, pkgName string)) {
	t.Helper()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || path == "bench" || path == own) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		pkgName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == pkgPath {
				pkgName = filepath.Base(pkgPath)
				if imp.Name != nil {
					pkgName = imp.Name.Name
				}
			}
		}
		visit(fset, f, pkgName)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no program files scanned")
	}
}

// TestTreeWalkIsTestOnly keeps the tree-walk interpreter an oracle: no
// program file outside internal/interp (and the separately built bench/
// module) may construct one (interp.New) or load source into one
// (LoadSource). Production runs compiled programs only; a tree-walk
// reachable from the product is one refactor away from running
// experiments again.
func TestTreeWalkIsTestOnly(t *testing.T) {
	walkProgramFiles(t, token.NewFileSet(), ".", "profipy/internal/interp", filepath.Join("internal", "interp"), func(fset *token.FileSet, f *ast.File, pkgName string) {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); (ok && pkgName != "" && id.Name == pkgName && sel.Sel.Name == "New") ||
				sel.Sel.Name == "LoadSource" {
				t.Errorf("%s: program code uses the tree-walk (%s)", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	})
}

// TestOnlyCoverageRunsTheBasePass keeps the fault-free pass one per
// Runner: no program file outside internal/coverage (and bench/) may
// call workload.BuildPrefixes, so every Runner gets its verdicts and
// fork prefixes from the one coverage.Run that NewRunner makes.
func TestOnlyCoverageRunsTheBasePass(t *testing.T) {
	walkProgramFiles(t, token.NewFileSet(), ".", "profipy/internal/workload", filepath.Join("internal", "coverage"), func(fset *token.FileSet, f *ast.File, pkgName string) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fn := call.Fun.(type) {
			case *ast.SelectorExpr: // workload.BuildPrefixes
				if id, ok := fn.X.(*ast.Ident); !ok || pkgName == "" || id.Name != pkgName || fn.Sel.Name != "BuildPrefixes" {
					return true
				}
			case *ast.Ident: // BuildPrefixes inside package workload
				if f.Name.Name != "workload" || fn.Name != "BuildPrefixes" {
					return true
				}
			default:
				return true
			}
			t.Errorf("%s: program code runs its own fault-free pass (BuildPrefixes)", fset.Position(call.Pos()))
			return true
		})
	})
}

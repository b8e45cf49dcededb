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

// TestTreeWalkIsTestOnly keeps the tree-walk interpreter an oracle: no
// program file outside internal/interp (and the separately built bench/
// module) may construct one (interp.New) or load source into one
// (LoadSource). Production runs compiled programs only; a tree-walk
// reachable from the product is one refactor away from running
// experiments again.
func TestTreeWalkIsTestOnly(t *testing.T) {
	const interpPath = "profipy/internal/interp"
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "bench" ||
				path == filepath.Join("internal", "interp")) {
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
		files++
		pkgName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == interpPath {
				pkgName = "interp"
				if imp.Name != nil {
					pkgName = imp.Name.Name
				}
			}
		}
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no program files scanned")
	}
}

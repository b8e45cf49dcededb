package pattern

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
)

// CalleeName renders the callee of a call expression as a dotted path
// ("Execute", "utils.Execute", "c.conn.Do"). It returns "" for callees
// that are not identifier/selector chains (e.g. immediately-invoked
// function literals).
func CalleeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := CalleeName(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return CalleeName(x.X)
	default:
		return ""
	}
}

// PrintNode appends a node's source text, as go/printer normalises it,
// to buf: the rendering of every diagnostic and injection-point snippet.
func PrintNode(buf *bytes.Buffer, fset *token.FileSet, n ast.Node) {
	if fset == nil {
		fset = token.NewFileSet()
	}
	mark := buf.Len()
	if err := printer.Fprint(buf, fset, n); err != nil {
		buf.Truncate(mark)
		buf.WriteString("<unprintable>")
	}
}

// mentions walks the expression kinds conditions are made of by hand, so
// the $EXPR{var=...} test allocates nothing; the rest go through
// ast.Inspect.
func mentions(e ast.Expr, g *globSet) bool {
	switch x := e.(type) {
	case nil, *ast.BasicLit:
		return false
	case *ast.Ident:
		return g.match(x.Name)
	case *ast.ParenExpr:
		return mentions(x.X, g)
	case *ast.SelectorExpr:
		return mentions(x.X, g) || g.match(x.Sel.Name)
	case *ast.StarExpr:
		return mentions(x.X, g)
	case *ast.UnaryExpr:
		return mentions(x.X, g)
	case *ast.BinaryExpr:
		return mentions(x.X, g) || mentions(x.Y, g)
	case *ast.IndexExpr:
		return mentions(x.X, g) || mentions(x.Index, g)
	case *ast.CallExpr:
		for _, a := range x.Args {
			if mentions(a, g) {
				return true
			}
		}
		return mentions(x.Fun, g)
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && g.match(id.Name) {
			found = true
		}
		return !found
	})
	return found
}

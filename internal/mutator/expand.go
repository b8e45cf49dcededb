package mutator

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"

	"profipy/internal/pattern"
)

// Runtime hook names inserted by replacement directives. The sandbox
// registers these as host builtins in the interpreted target program.
const (
	HookTrigger = "__fault_enabled"
	HookCorrupt = "__corrupt"
	HookHog     = "__hog"
	HookDelay   = "__delay"
	HookExc     = "__exc"
)

// expander instantiates a meta-model's replacement template against the
// bindings captured by a match (the copier in clone.go does the walking).
// The first failure sticks in err.
type expander struct {
	b   pattern.Bindings
	err error
}

func (x *expander) fail(format string, args ...any) {
	if x != nil && x.err == nil {
		x.err = fmt.Errorf("mutator: "+format, args...)
	}
}

// expandStmts expands a replacement statement list.
func (x *expander) expandStmts(list []ast.Stmt) ([]ast.Stmt, error) {
	out := x.stmts(list)
	return out, x.err
}

// stmtDirective expands a directive standing alone as a statement;
// block directives yield several statements.
func (x *expander) stmtDirective(d *pattern.Directive) []ast.Stmt {
	switch d.Kind {
	case pattern.KindBlock, pattern.KindAny:
		bound, ok := x.b[d.Tag]
		if !ok {
			x.fail("replacement $%s references unbound tag %q", d.Kind, d.Tag)
		}
		return clonePlainStmts(bound.Stmts)
	case pattern.KindCall, pattern.KindCorrupt, pattern.KindHog, pattern.KindTimeout, pattern.KindPanic, pattern.KindNil:
		return []ast.Stmt{&ast.ExprStmt{X: x.directiveExpr(d)}}
	default:
		x.fail("directive $%s cannot appear in statement position of a replacement", d.Kind)
		return nil
	}
}

// directiveExpr expands a directive in expression position.
func (x *expander) directiveExpr(d *pattern.Directive) ast.Expr {
	switch d.Kind {
	case pattern.KindNil:
		return ast.NewIdent("nil")
	case pattern.KindCorrupt:
		return hookCall(HookCorrupt, x.directiveArgs(d)...)
	case pattern.KindHog:
		if d.HasArgs {
			return hookCall(HookHog, x.directiveArgs(d)...)
		}
		return hookCall(HookHog, strLit(attrOr(d, "res", "cpu")), intLit(attrOr(d, "amount", "1")))
	case pattern.KindTimeout:
		if d.HasArgs {
			return hookCall(HookDelay, x.directiveArgs(d)...)
		}
		return hookCall(HookDelay, intLit(attrOr(d, "ms", "1000")))
	case pattern.KindPanic:
		if d.HasArgs {
			return hookCall("panic", hookCall(HookExc, x.directiveArgs(d)...))
		}
		return hookCall("panic", hookCall(HookExc, strLit(attrOr(d, "type", "Error")), strLit(attrOr(d, "msg", "injected fault"))))
	case pattern.KindCall:
		return x.callRef(d)
	case pattern.KindExpr, pattern.KindVar, pattern.KindString, pattern.KindInt, pattern.KindAny:
		bound, ok := x.b[d.Tag]
		if !ok || bound.Expr == nil {
			x.fail("replacement $%s references unbound tag %q", d.Kind, d.Tag)
		}
		return clonePlainExpr(bound.Expr)
	default:
		x.fail("directive $%s cannot appear in expression position of a replacement", d.Kind)
		return nil
	}
}

func (x *expander) directiveArgs(d *pattern.Directive) []ast.Expr {
	out := make([]ast.Expr, 0, len(d.Args))
	for _, a := range d.Args {
		if a.Ellipsis {
			x.fail("'...' is not allowed in $%s replacement arguments", d.Kind)
			continue
		}
		out = append(out, x.expr(a.Expr))
	}
	return out
}

// callRef rebuilds a call bound to a $CALL tag, applying per-argument
// transformations written in the replacement (e.g. `$CALL#c(...,
// $CORRUPT($STRING#s), ...)` replaces the argument bound to tag s with a
// corruption of it, keeping all other arguments intact).
func (x *expander) callRef(d *pattern.Directive) ast.Expr {
	orig, ok := x.b[d.Tag].Expr.(*ast.CallExpr)
	if !ok {
		if x.b[d.Tag].Expr == nil {
			x.fail("replacement $CALL references unbound tag %q", d.Tag)
		} else {
			x.fail("bound node is not a call expression")
		}
		return nil
	}
	cloned := clonePlainExpr(orig).(*ast.CallExpr)
	if !d.HasArgs {
		return cloned
	}
	// Without an ellipsis the replacement arg list is exhaustive: the call
	// is rebuilt with exactly those arguments (this is how "missing
	// parameter" faults drop trailing arguments).
	hasEllipsis := false
	for _, a := range d.Args {
		hasEllipsis = hasEllipsis || a.Ellipsis
	}
	if !hasEllipsis {
		cloned.Args = x.directiveArgs(d)
		return cloned
	}
	for _, a := range d.Args {
		if a.Ellipsis {
			continue
		}
		anchor := x.anchorTag(a.Expr)
		if anchor == "" {
			x.fail("replacement $CALL#%s argument pattern must reference a tagged directive", d.Tag)
			continue
		}
		boundArg := x.b[anchor].Expr
		if boundArg == nil {
			x.fail("replacement references unbound argument tag %q", anchor)
			continue
		}
		idx := -1
		for i, arg := range orig.Args {
			if containsNode(arg, boundArg) {
				idx = i
				break
			}
		}
		if idx < 0 {
			x.fail("tag %q is not bound to an argument of $CALL#%s", anchor, d.Tag)
			continue
		}
		cloned.Args[idx] = x.expr(a.Expr)
	}
	return cloned
}

// anchorTag finds the first tagged directive reachable from a replacement
// argument pattern; its binding identifies which original argument the
// pattern transforms.
func (x *expander) anchorTag(e ast.Expr) string {
	tag := ""
	var visit func(ast.Expr)
	visit = func(e ast.Expr) {
		if tag != "" || e == nil {
			return
		}
		if d := pattern.HoleFor(e); d != nil {
			if d.Tag != "" && d.Kind != pattern.KindCorrupt && d.Kind != pattern.KindHog &&
				d.Kind != pattern.KindTimeout && d.Kind != pattern.KindPanic {
				tag = d.Tag
				return
			}
			for _, a := range d.Args {
				if a.Expr != nil {
					visit(a.Expr)
				}
			}
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if tag != "" {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if pattern.HoleFor(id) != nil {
					visit(id)
					return false
				}
			}
			return true
		})
	}
	visit(e)
	return tag
}

// containsNode reports whether needle appears within the subtree rooted
// at hay (pointer identity).
func containsNode(hay ast.Node, needle ast.Node) bool {
	if hay == nil {
		return false
	}
	found := false
	ast.Inspect(hay, func(n ast.Node) bool {
		if found {
			return false
		}
		if n == needle {
			found = true
			return false
		}
		return true
	})
	return found
}

func hookCall(name string, args ...ast.Expr) *ast.CallExpr {
	return &ast.CallExpr{Fun: ast.NewIdent(name), Args: args}
}

func strLit(s string) ast.Expr {
	return &ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(s)}
}

func intLit(s string) ast.Expr {
	if _, err := strconv.Atoi(s); err != nil {
		s = "0"
	}
	return &ast.BasicLit{Kind: token.INT, Value: s}
}

func attrOr(d *pattern.Directive, key, def string) string {
	if v, ok := d.Attrs[key]; ok && v != "" {
		return v
	}
	return def
}

// parenHeaderLits parenthesizes the composite literals of a named type
// that a substitution left bare in the header of an if, for, range or
// switch statement. The grammar reads `if T{} == x {` as a block
// following `T`, and go/printer — which does add the parentheses
// operator precedence calls for — adds none here, so without them the
// printed mutant would not parse while its tree compiles. Subtrees
// shared with the cached parse already carry theirs and are only read.
func parenHeaderLits(list []ast.Stmt) {
	for _, s := range list {
		ast.Inspect(s, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.IfStmt:
				parenStmt(st.Init)
				parenExpr(&st.Cond)
			case *ast.ForStmt:
				parenStmt(st.Init)
				parenExpr(&st.Cond)
				parenStmt(st.Post)
			case *ast.RangeStmt:
				parenExpr(&st.X)
			case *ast.SwitchStmt:
				parenStmt(st.Init)
				parenExpr(&st.Tag)
			}
			return true
		})
	}
}

func parenStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		parenExpr(&st.X)
	case *ast.IncDecStmt:
		parenExpr(&st.X)
	case *ast.AssignStmt:
		for i := range st.Lhs {
			parenExpr(&st.Lhs[i])
		}
		for i := range st.Rhs {
			parenExpr(&st.Rhs[i])
		}
	}
}

// parenExpr wraps the bare literals reachable from *e without passing
// through parentheses, brackets, braces or a function body.
func parenExpr(e *ast.Expr) {
	switch x := (*e).(type) {
	case *ast.CompositeLit:
		switch x.Type.(type) {
		case *ast.Ident, *ast.SelectorExpr:
			*e = &ast.ParenExpr{X: x}
		}
	case *ast.BinaryExpr:
		parenExpr(&x.X)
		parenExpr(&x.Y)
	case *ast.UnaryExpr:
		parenExpr(&x.X)
	case *ast.StarExpr:
		parenExpr(&x.X)
	case *ast.SelectorExpr:
		parenExpr(&x.X)
	case *ast.CallExpr:
		parenExpr(&x.Fun)
	case *ast.IndexExpr:
		parenExpr(&x.X)
	case *ast.SliceExpr:
		parenExpr(&x.X)
	case *ast.TypeAssertExpr:
		parenExpr(&x.X)
	}
}

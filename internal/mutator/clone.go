package mutator

import (
	"go/ast"

	"profipy/internal/pattern"
)

// The copier: one deep copy of statements and expressions with all
// positions zeroed, so the same subtree never appears twice in an output
// tree. On a nil *expander it copies target-program code as it stands
// (the clonePlain* helpers); on an expander it instantiates a replacement
// template on the way — a placeholder expression becomes what its
// directive expands to, and a bare block directive splices the
// statements it is bound to.

func clonePlainExpr(e ast.Expr) ast.Expr      { return (*expander)(nil).expr(e) }
func clonePlainStmts(l []ast.Stmt) []ast.Stmt { return (*expander)(nil).stmts(l) }

func (x *expander) block(b *ast.BlockStmt) *ast.BlockStmt {
	if b == nil {
		return nil
	}
	return &ast.BlockStmt{List: x.stmts(b.List)}
}

func (x *expander) expr(e ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	if x != nil {
		if d := pattern.HoleFor(e); d != nil {
			return x.directiveExpr(d)
		}
	}
	switch n := e.(type) {
	case *ast.Ident:
		return ast.NewIdent(n.Name)
	case *ast.BasicLit:
		return &ast.BasicLit{Kind: n.Kind, Value: n.Value}
	case *ast.SelectorExpr:
		return &ast.SelectorExpr{X: x.expr(n.X), Sel: ast.NewIdent(n.Sel.Name)}
	case *ast.CallExpr:
		return &ast.CallExpr{Fun: x.expr(n.Fun), Args: x.exprs(n.Args)}
	case *ast.BinaryExpr:
		return &ast.BinaryExpr{X: x.expr(n.X), Op: n.Op, Y: x.expr(n.Y)}
	case *ast.UnaryExpr:
		return &ast.UnaryExpr{Op: n.Op, X: x.expr(n.X)}
	case *ast.ParenExpr:
		return &ast.ParenExpr{X: x.expr(n.X)}
	case *ast.IndexExpr:
		return &ast.IndexExpr{X: x.expr(n.X), Index: x.expr(n.Index)}
	case *ast.SliceExpr:
		return &ast.SliceExpr{
			X: x.expr(n.X), Low: x.expr(n.Low),
			High: x.expr(n.High), Max: x.expr(n.Max), Slice3: n.Slice3,
		}
	case *ast.StarExpr:
		return &ast.StarExpr{X: x.expr(n.X)}
	case *ast.KeyValueExpr:
		return &ast.KeyValueExpr{Key: x.expr(n.Key), Value: x.expr(n.Value)}
	case *ast.CompositeLit:
		return &ast.CompositeLit{Type: x.expr(n.Type), Elts: x.exprs(n.Elts)}
	case *ast.FuncLit:
		return &ast.FuncLit{Type: x.funcType(n.Type), Body: x.block(n.Body)}
	case *ast.ArrayType:
		return &ast.ArrayType{Len: x.expr(n.Len), Elt: x.expr(n.Elt)}
	case *ast.MapType:
		return &ast.MapType{Key: x.expr(n.Key), Value: x.expr(n.Value)}
	case *ast.InterfaceType:
		return &ast.InterfaceType{Methods: &ast.FieldList{}}
	case *ast.Ellipsis:
		return &ast.Ellipsis{Elt: x.expr(n.Elt)}
	case *ast.TypeAssertExpr:
		return &ast.TypeAssertExpr{X: x.expr(n.X), Type: x.expr(n.Type)}
	default:
		// Unknown node kinds are returned as-is; they will print with
		// their original positions, which is harmless for single use.
		return e
	}
}

func (x *expander) exprs(es []ast.Expr) []ast.Expr {
	if es == nil {
		return nil
	}
	out := make([]ast.Expr, len(es))
	for i, e := range es {
		out[i] = x.expr(e)
	}
	return out
}

func (x *expander) funcType(ft *ast.FuncType) *ast.FuncType {
	if ft == nil {
		return nil
	}
	return &ast.FuncType{Params: x.fieldList(ft.Params), Results: x.fieldList(ft.Results)}
}

func (x *expander) fieldList(fl *ast.FieldList) *ast.FieldList {
	if fl == nil {
		return nil
	}
	out := &ast.FieldList{}
	for _, f := range fl.List {
		nf := &ast.Field{Type: x.expr(f.Type)}
		for _, n := range f.Names {
			nf.Names = append(nf.Names, ast.NewIdent(n.Name))
		}
		out.List = append(out.List, nf)
	}
	return out
}

func (x *expander) stmts(list []ast.Stmt) []ast.Stmt {
	out := make([]ast.Stmt, 0, len(list))
	for _, s := range list {
		if es, ok := s.(*ast.ExprStmt); ok && x != nil {
			// Bare directive in statement position.
			if d := pattern.HoleFor(es.X); d != nil {
				out = append(out, x.stmtDirective(d)...)
				continue
			}
		}
		out = append(out, x.stmt(s))
	}
	return out
}

// call copies the call of a defer or go statement.
func (x *expander) call(c *ast.CallExpr) *ast.CallExpr {
	out, ok := x.expr(c).(*ast.CallExpr)
	if !ok {
		x.fail("bound node is not a call expression")
	}
	return out
}

func (x *expander) stmt(s ast.Stmt) ast.Stmt {
	switch n := s.(type) {
	case nil:
		return nil
	case *ast.ExprStmt:
		return &ast.ExprStmt{X: x.expr(n.X)}
	case *ast.AssignStmt:
		return &ast.AssignStmt{Lhs: x.exprs(n.Lhs), Tok: n.Tok, Rhs: x.exprs(n.Rhs)}
	case *ast.ReturnStmt:
		return &ast.ReturnStmt{Results: x.exprs(n.Results)}
	case *ast.IfStmt:
		return &ast.IfStmt{Init: x.stmt(n.Init), Cond: x.expr(n.Cond), Body: x.block(n.Body), Else: x.stmt(n.Else)}
	case *ast.BlockStmt:
		return x.block(n)
	case *ast.ForStmt:
		return &ast.ForStmt{Init: x.stmt(n.Init), Cond: x.expr(n.Cond), Post: x.stmt(n.Post), Body: x.block(n.Body)}
	case *ast.RangeStmt:
		return &ast.RangeStmt{Key: x.expr(n.Key), Value: x.expr(n.Value), Tok: n.Tok, X: x.expr(n.X), Body: x.block(n.Body)}
	case *ast.BranchStmt:
		ns := &ast.BranchStmt{Tok: n.Tok}
		if n.Label != nil {
			ns.Label = ast.NewIdent(n.Label.Name)
		}
		return ns
	case *ast.DeferStmt:
		return &ast.DeferStmt{Call: x.call(n.Call)}
	case *ast.GoStmt:
		return &ast.GoStmt{Call: x.call(n.Call)}
	case *ast.IncDecStmt:
		return &ast.IncDecStmt{X: x.expr(n.X), Tok: n.Tok}
	case *ast.SwitchStmt:
		body := &ast.BlockStmt{}
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				body.List = append(body.List, &ast.CaseClause{List: x.exprs(cc.List), Body: x.stmts(cc.Body)})
			}
		}
		return &ast.SwitchStmt{Init: x.stmt(n.Init), Tag: x.expr(n.Tag), Body: body}
	case *ast.LabeledStmt:
		return &ast.LabeledStmt{Label: ast.NewIdent(n.Label.Name), Stmt: x.stmt(n.Stmt)}
	case *ast.EmptyStmt:
		return &ast.EmptyStmt{}
	default:
		// Declarations and the rarer statement kinds are shared, not
		// copied; they are only ever read.
		return s
	}
}

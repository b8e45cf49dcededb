package pattern

import (
	"go/ast"
	"go/token"
	"strconv"
)

// MatchPrefix tries to match the meta-model's code pattern against a prefix
// of stmts[start:]. On success it returns the number of target statements
// the pattern consumed and the tag bindings captured along the way.
//
// Block directives ($BLOCK{stmts=min,max}) are matched lazily (shortest run
// first) so that each concrete fault site yields exactly one canonical
// match instead of one match per possible block extent.
func (m *MetaModel) MatchPrefix(stmts []ast.Stmt, start int) (int, Bindings, bool) {
	if start < 0 || start > len(stmts) {
		return 0, nil, false
	}
	u := unifier{m: m, record: true}
	n, ok := u.seq(m.Pattern, stmts[start:], false)
	if !ok {
		return 0, nil, false
	}
	return n, u.bindings(), true
}

// unifier is the state of one match attempt. There is one unify routine;
// its two callers differ only in what they put here. MatchPrefix asks for
// bindings (record) and gets them on the trail; the scan does not, so a
// trial that fails allocates nothing and one that succeeds allocates
// nothing either. The scan of a block-led model also hands over what the
// list index knows (indexed): occ holds, ascending, the positions at or
// after start+min of the statements the model's lead anchor admits, so
// the leading block jumps from one to the next instead of trying every
// extent. Without an index the same loop asks the anchor per statement.
type unifier struct {
	m      *MetaModel
	record bool
	trail  []binding

	indexed bool
	start   int
	occ     []Pos
}

// binding is one trail entry. A later entry for the same tag shadows an
// earlier one; a choice point that fails cuts the trail back to where it
// stood (the block and "..." loops are the only choice points).
type binding struct {
	tag string
	val Bound
}

func (u *unifier) bind(tag string, v Bound) {
	if u.record && tag != "" {
		u.trail = append(u.trail, binding{tag, v})
	}
}

// bindings converts the trail to the public map form; nil when nothing
// was bound.
func (u *unifier) bindings() Bindings {
	if len(u.trail) == 0 {
		return nil
	}
	out := make(Bindings, len(u.trail))
	for _, b := range u.trail {
		out[b.tag] = b.val
	}
	return out
}

// seq matches a pattern statement sequence against target statements.
// When anchored, the pattern must consume the entire target list (used for
// nested bodies such as if/for blocks); otherwise a prefix match suffices.
// Only the top-level sequence of a model is unanchored.
func (u *unifier) seq(pat, tgt []ast.Stmt, anchored bool) (int, bool) {
	if len(pat) == 0 {
		return 0, !anchored || len(tgt) == 0
	}
	if d := stmtDirective(pat[0]); d != nil && d.Kind == KindBlock {
		return u.block(d, pat, tgt, anchored)
	}
	if len(tgt) == 0 || !u.stmt(pat[0], tgt[0]) {
		return 0, false
	}
	rest, ok := u.seq(pat[1:], tgt[1:], anchored)
	if !ok {
		return 0, false
	}
	return 1 + rest, true
}

// block matches pat, whose head is the block directive d, trying extents
// shortest first. An extent is tried only if the statement after it can
// open the next pattern element (its anchor).
func (u *unifier) block(d *Directive, pat, tgt []ast.Stmt, anchored bool) (int, bool) {
	hi := d.MaxStmts
	if hi < 0 || hi > len(tgt) {
		hi = len(tgt)
	}
	// Only the model's own sequence is unanchored, and its elements'
	// anchors are compiled; a nested body tries every extent.
	var next anchor
	if at := len(u.m.Pattern) - len(pat) + 1; !anchored && at < len(u.m.Pattern) {
		next = u.m.anchors[at]
	}
	jump := u.indexed && !anchored && len(pat) == len(u.m.Pattern)
	occ, mark := u.occ, len(u.trail)
	for k := d.MinStmts; k <= hi; k++ {
		switch {
		case !next.set():
		case jump:
			for len(occ) > 0 && int(occ[0].Start)-u.start < k {
				occ = occ[1:]
			}
			if len(occ) == 0 {
				return 0, false
			}
			if k = int(occ[0].Start) - u.start; k > hi {
				return 0, false
			}
		case k == len(tgt):
			return 0, false
		case !next.admits(tgt[k]):
			continue
		}
		// Full slice expression: consumers treat bound statement runs as
		// read-only, so aliasing the target list avoids a copy; the cap
		// guard keeps an appending consumer from clobbering the target.
		u.bind(d.Tag, Bound{Stmts: tgt[:k:k]})
		if rest, ok := u.seq(pat[1:], tgt[k:], anchored); ok {
			return k + rest, true
		}
		u.trail = u.trail[:mark]
	}
	return 0, false
}

// stmt matches a single pattern statement against a single target
// statement.
func (u *unifier) stmt(p, t ast.Stmt) bool {
	// A bare directive in statement position.
	if d := stmtDirective(p); d != nil {
		switch d.Kind {
		case KindCall:
			// Statement-position $CALL matches only statements whose
			// outermost expression is the call itself (G-SWFIT MFC rule:
			// the return value must be unused).
			es, ok := t.(*ast.ExprStmt)
			if !ok {
				return false
			}
			call, ok := es.X.(*ast.CallExpr)
			return ok && u.call(d, call)
		case KindAny:
			if u.record && d.Tag != "" {
				u.bind(d.Tag, Bound{Stmts: []ast.Stmt{t}})
			}
			return true
		default:
			return false
		}
	}

	switch ps := p.(type) {
	case *ast.ExprStmt:
		ts, ok := t.(*ast.ExprStmt)
		return ok && u.expr(ps.X, ts.X)
	case *ast.AssignStmt:
		ts, ok := t.(*ast.AssignStmt)
		return ok && ps.Tok == ts.Tok && u.exprs(ps.Lhs, ts.Lhs) && u.exprs(ps.Rhs, ts.Rhs)
	case *ast.ReturnStmt:
		ts, ok := t.(*ast.ReturnStmt)
		return ok && u.exprs(ps.Results, ts.Results)
	case *ast.IfStmt:
		ts, ok := t.(*ast.IfStmt)
		return ok && u.optStmt(ps.Init, ts.Init) && u.expr(ps.Cond, ts.Cond) &&
			u.body(ps.Body.List, ts.Body.List) && u.optStmt(ps.Else, ts.Else)
	case *ast.BlockStmt:
		ts, ok := t.(*ast.BlockStmt)
		return ok && u.body(ps.List, ts.List)
	case *ast.ForStmt:
		ts, ok := t.(*ast.ForStmt)
		return ok && u.optStmt(ps.Init, ts.Init) && u.optExpr(ps.Cond, ts.Cond) &&
			u.optStmt(ps.Post, ts.Post) && u.body(ps.Body.List, ts.Body.List)
	case *ast.RangeStmt:
		ts, ok := t.(*ast.RangeStmt)
		return ok && ps.Tok == ts.Tok && u.optExpr(ps.Key, ts.Key) && u.optExpr(ps.Value, ts.Value) &&
			u.expr(ps.X, ts.X) && u.body(ps.Body.List, ts.Body.List)
	case *ast.BranchStmt:
		ts, ok := t.(*ast.BranchStmt)
		return ok && ps.Tok == ts.Tok && (ps.Label == nil) == (ts.Label == nil) &&
			(ps.Label == nil || ps.Label.Name == ts.Label.Name)
	case *ast.DeferStmt:
		ts, ok := t.(*ast.DeferStmt)
		return ok && u.expr(ps.Call, ts.Call)
	case *ast.GoStmt:
		ts, ok := t.(*ast.GoStmt)
		return ok && u.expr(ps.Call, ts.Call)
	case *ast.IncDecStmt:
		ts, ok := t.(*ast.IncDecStmt)
		return ok && ps.Tok == ts.Tok && u.expr(ps.X, ts.X)
	case *ast.SwitchStmt:
		ts, ok := t.(*ast.SwitchStmt)
		if !ok || !u.optExpr(ps.Tag, ts.Tag) || len(ps.Body.List) != len(ts.Body.List) {
			return false
		}
		for i := range ps.Body.List {
			pc, okP := ps.Body.List[i].(*ast.CaseClause)
			tc, okT := ts.Body.List[i].(*ast.CaseClause)
			if !okP || !okT || !u.exprs(pc.List, tc.List) || !u.body(pc.Body, tc.Body) {
				return false
			}
		}
		return true
	case *ast.LabeledStmt:
		ts, ok := t.(*ast.LabeledStmt)
		return ok && ps.Label.Name == ts.Label.Name && u.stmt(ps.Stmt, ts.Stmt)
	case *ast.EmptyStmt:
		_, ok := t.(*ast.EmptyStmt)
		return ok
	default:
		return false
	}
}

// body matches a nested statement list, which the pattern must consume
// whole.
func (u *unifier) body(pat, tgt []ast.Stmt) bool {
	_, ok := u.seq(pat, tgt, true)
	return ok
}

// optStmt and optExpr match an optional child: both absent, or both
// present and unifying.
func (u *unifier) optStmt(p, t ast.Stmt) bool {
	return (p == nil) == (t == nil) && (p == nil || u.stmt(p, t))
}

func (u *unifier) optExpr(p, t ast.Expr) bool {
	return (p == nil) == (t == nil) && (p == nil || u.expr(p, t))
}

func (u *unifier) exprs(ps, ts []ast.Expr) bool {
	if len(ps) != len(ts) {
		return false
	}
	for i := range ps {
		if !u.expr(ps[i], ts[i]) {
			return false
		}
	}
	return true
}

// expr matches a pattern expression (which may be a directive
// placeholder) against a target expression.
func (u *unifier) expr(p, t ast.Expr) bool {
	p, t = ast.Unparen(p), ast.Unparen(t)
	if d := HoleFor(p); d != nil {
		return u.directive(d, t)
	}

	switch pe := p.(type) {
	case *ast.Ident:
		te, ok := t.(*ast.Ident)
		return ok && pe.Name == te.Name
	case *ast.BasicLit:
		te, ok := t.(*ast.BasicLit)
		return ok && pe.Kind == te.Kind && pe.Value == te.Value
	case *ast.SelectorExpr:
		te, ok := t.(*ast.SelectorExpr)
		return ok && pe.Sel.Name == te.Sel.Name && u.expr(pe.X, te.X)
	case *ast.CallExpr:
		// A raw-Go argument list has exact arity but still honours
		// placeholders inside individual arguments.
		te, ok := t.(*ast.CallExpr)
		return ok && u.expr(pe.Fun, te.Fun) && u.exprs(pe.Args, te.Args)
	case *ast.BinaryExpr:
		te, ok := t.(*ast.BinaryExpr)
		return ok && pe.Op == te.Op && u.expr(pe.X, te.X) && u.expr(pe.Y, te.Y)
	case *ast.UnaryExpr:
		te, ok := t.(*ast.UnaryExpr)
		return ok && pe.Op == te.Op && u.expr(pe.X, te.X)
	case *ast.IndexExpr:
		te, ok := t.(*ast.IndexExpr)
		return ok && u.expr(pe.X, te.X) && u.expr(pe.Index, te.Index)
	case *ast.SliceExpr:
		te, ok := t.(*ast.SliceExpr)
		return ok && u.expr(pe.X, te.X) && u.optExpr(pe.Low, te.Low) &&
			u.optExpr(pe.High, te.High) && u.optExpr(pe.Max, te.Max)
	case *ast.StarExpr:
		te, ok := t.(*ast.StarExpr)
		return ok && u.expr(pe.X, te.X)
	case *ast.KeyValueExpr:
		te, ok := t.(*ast.KeyValueExpr)
		return ok && u.expr(pe.Key, te.Key) && u.expr(pe.Value, te.Value)
	case *ast.CompositeLit:
		te, ok := t.(*ast.CompositeLit)
		return ok && len(pe.Elts) == len(te.Elts) && u.optExpr(pe.Type, te.Type) && u.exprs(pe.Elts, te.Elts)
	case *ast.MapType:
		te, ok := t.(*ast.MapType)
		return ok && u.expr(pe.Key, te.Key) && u.expr(pe.Value, te.Value)
	case *ast.ArrayType:
		te, ok := t.(*ast.ArrayType)
		return ok && u.optExpr(pe.Len, te.Len) && u.expr(pe.Elt, te.Elt)
	default:
		return false
	}
}

// directive matches a directive placeholder in expression context.
func (u *unifier) directive(d *Directive, t ast.Expr) bool {
	switch d.Kind {
	case KindCall:
		call, ok := t.(*ast.CallExpr)
		return ok && u.call(d, call)
	case KindExpr:
		if d.glob != nil && !mentions(t, d.glob) {
			return false
		}
	case KindVar:
		id, ok := t.(*ast.Ident)
		if !ok || id.Name == "nil" || !d.glob.match(id.Name) {
			return false
		}
	case KindString:
		lit, ok := t.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return false
		}
		// Unquoted only when there is something to compare it with.
		if !d.glob.all() {
			val, err := strconv.Unquote(lit.Value)
			if err != nil || !d.glob.match(val) {
				return false
			}
		}
	case KindInt:
		lit, ok := t.(*ast.BasicLit)
		if !ok || lit.Kind != token.INT || !d.glob.match(lit.Value) {
			return false
		}
	case KindNil:
		id, ok := t.(*ast.Ident)
		return ok && id.Name == "nil"
	case KindAny:
	default:
		// Replacement-only directives never match in pattern position.
		return false
	}
	u.bind(d.Tag, Bound{Expr: t})
	return true
}

// call matches a $CALL directive against a call expression: the callee
// name must match the name glob (against either the full dotted path or
// its final segment) and, when an argument pattern was written, the
// arguments must match it.
func (u *unifier) call(d *Directive, call *ast.CallExpr) bool {
	if !d.glob.matchCallee(call.Fun) || d.HasArgs && !u.args(d.Args, call.Args) {
		return false
	}
	u.bind(d.Tag, Bound{Expr: call})
	return true
}

// args matches a $CALL argument pattern (with "..." wildcards) against
// concrete call arguments, lazily and with backtracking.
func (u *unifier) args(pats []ArgPat, args []ast.Expr) bool {
	if len(pats) == 0 {
		return len(args) == 0
	}
	if pats[0].Ellipsis {
		mark := len(u.trail)
		for k := 0; k <= len(args); k++ {
			if u.args(pats[1:], args[k:]) {
				return true
			}
			u.trail = u.trail[:mark]
		}
		return false
	}
	return len(args) > 0 && u.expr(pats[0].Expr, args[0]) && u.args(pats[1:], args[1:])
}

package pattern

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// This file is what makes a scan cost nothing where a model cannot act:
// the anchor a pattern element demands of a statement before a unify is
// worth trying, the per-file Index that answers "where are the statements
// an anchor admits" once for every model, and Scan, which walks a model
// over an Index. The index may only skip work: every candidate still goes
// through the one unify routine of match.go, so it can never add a match
// or lose one that MatchPrefix at every start would find.

// stmtKind is the statement kind an anchor or an index entry records.
// stNone constrains nothing; stOther collects the kinds no pattern
// statement unifies with.
type stmtKind uint8

const (
	stNone stmtKind = iota
	stExpr
	stAssign
	stReturn
	stIf
	stBlock
	stFor
	stRange
	stBranch
	stDefer
	stGo
	stIncDec
	stSwitch
	stLabeled
	stEmpty
	stOther
	numStmtKinds
)

func kindOf(s ast.Stmt) stmtKind {
	switch s.(type) {
	case *ast.ExprStmt:
		return stExpr
	case *ast.AssignStmt:
		return stAssign
	case *ast.ReturnStmt:
		return stReturn
	case *ast.IfStmt:
		return stIf
	case *ast.BlockStmt:
		return stBlock
	case *ast.ForStmt:
		return stFor
	case *ast.RangeStmt:
		return stRange
	case *ast.BranchStmt:
		return stBranch
	case *ast.DeferStmt:
		return stDefer
	case *ast.GoStmt:
		return stGo
	case *ast.IncDecStmt:
		return stIncDec
	case *ast.SwitchStmt:
		return stSwitch
	case *ast.LabeledStmt:
		return stLabeled
	case *ast.EmptyStmt:
		return stEmpty
	}
	return stOther
}

// stmtCall returns the statement-level call of a statement — `f(...)`,
// `v := f(...)`, `defer f(...)`, `go f(...)` — or nil. It reads pattern
// and target statements alike.
func stmtCall(s ast.Stmt) *ast.CallExpr {
	var e ast.Expr
	switch x := s.(type) {
	case *ast.ExprStmt:
		e = x.X
	case *ast.AssignStmt:
		if len(x.Rhs) != 1 {
			return nil
		}
		e = x.Rhs[0]
	case *ast.DeferStmt:
		return x.Call
	case *ast.GoStmt:
		return x.Call
	default:
		return nil
	}
	call, _ := ast.Unparen(e).(*ast.CallExpr)
	return call
}

// stmtOperands returns the expressions a statement-level string literal
// can stand in: the arguments of the statement-level call, else the single
// right-hand side of an assignment.
func stmtOperands(s ast.Stmt) []ast.Expr {
	if call := stmtCall(s); call != nil {
		return call.Args
	}
	if as, ok := s.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
		return as.Rhs
	}
	return nil
}

// stringLit returns the value of an expression that is a string literal.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	val, err := strconv.Unquote(lit.Value)
	return val, err == nil
}

// lastSegment returns the name a callee ends in ("Do" of c.conn.Do, of
// f().Do), or "" when it ends in none: what the index files a
// statement-level call under.
func lastSegment(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// calleeLast returns the final segment of a callee that is an
// identifier/selector chain all the way down ("Do" of c.conn.Do), or ""
// for any other callee — the ones CalleeName renders as "".
func calleeLast(e ast.Expr) string {
	last := ""
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if last == "" {
				last = x.Name
			}
			return last
		case *ast.SelectorExpr:
			if last == "" {
				last = x.Sel.Name
			}
			e = x.X
		default:
			return ""
		}
	}
}

// calleeIs reports whether CalleeName(e) == name, without building it.
func calleeIs(e ast.Expr, name string) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x.Name == name
		case *ast.SelectorExpr:
			cut := len(name) - len(x.Sel.Name)
			if cut < 2 || name[cut-1] != '.' || name[cut:] != x.Sel.Name {
				return false
			}
			name, e = name[:cut-1], x.X
		default:
			return false
		}
	}
}

// matchCallee is the $CALL name test: the set must match the callee's
// dotted path or its final segment. Only a real glob against a dotted
// callee builds the path.
func (g *globSet) matchCallee(fun ast.Expr) bool {
	last := calleeLast(fun)
	if last == "" {
		return false
	}
	if g.all() {
		return true
	}
	for _, l := range g.lits {
		if l == last || calleeIs(fun, l) {
			return true
		}
	}
	if len(g.globs) == 0 {
		return false
	}
	name := CalleeName(fun)
	for _, p := range g.globs {
		if Glob(p, name) || Glob(p, last) {
			return true
		}
	}
	return false
}

// anchor is what a pattern element demands of the statement it unifies
// with, as far as the pattern fixes it: the statement kind and, if the
// element names one, the final segment of the literal callee of its
// statement-level call and a string literal among its operands. The zero
// anchor admits every statement.
type anchor struct {
	kind        stmtKind
	callee, lit string
}

func (a anchor) set() bool { return a.kind != stNone }

// admits applies the anchor to one statement, for lists nobody indexed.
func (a anchor) admits(s ast.Stmt) bool {
	if a.kind != stNone && a.kind != kindOf(s) {
		return false
	}
	if a.callee != "" {
		if call := stmtCall(s); call == nil || lastSegment(call.Fun) != a.callee {
			return false
		}
	}
	if a.lit == "" {
		return true
	}
	for _, e := range stmtOperands(s) {
		if v, ok := stringLit(e); ok && v == a.lit {
			return true
		}
	}
	return false
}

// anchorOf derives the anchor of a pattern statement. $ANY and $BLOCK
// take any statement; the other directives that are no statement never
// match one, which unify finds out as cheaply as an anchor would.
func anchorOf(p ast.Stmt) anchor {
	if d := stmtDirective(p); d != nil && d.Kind != KindCall {
		return anchor{}
	}
	a := anchor{kind: kindOf(p)}
	operands := stmtOperands(p)
	if call := stmtCall(p); call != nil {
		if d := HoleFor(call); d == nil {
			// A raw call pattern unifies its callee node by node: unless
			// the callee is itself a placeholder, the target's ends alike.
			if HoleFor(ast.Unparen(call.Fun)) == nil {
				a.callee = lastSegment(call.Fun)
			}
		} else if d.Kind == KindCall {
			// name=a.b.c matches a callee that is a.b.c or whose final
			// segment is "a.b.c"; either way its final segment is c.
			lit := d.glob.literal()
			a.callee = lit[strings.LastIndexByte(lit, '.')+1:]
			operands = nil
			for _, arg := range d.Args {
				if !arg.Ellipsis {
					operands = append(operands, arg.Expr)
				}
			}
		}
	}
	// Every operand pattern that is no "..." takes one operand of the
	// target, so a $STRING that names its value fixes a literal there.
	for _, e := range operands {
		if d := HoleFor(ast.Unparen(e)); d != nil && d.Kind == KindString && d.glob.literal() != "" {
			a.lit = d.glob.literal()
			break
		}
	}
	return a
}

// lead returns the anchor that decides where a scan tries the model: the
// head element's own or, when the head is a $BLOCK (blockLed), that of
// the element the block must be followed by.
func (m *MetaModel) lead() (a anchor, blockLed bool) {
	if d := stmtDirective(m.Pattern[0]); d != nil && d.Kind == KindBlock && len(m.Pattern) > 1 {
		return m.anchors[1], true
	}
	return m.anchors[0], false
}

// Pos addresses one statement of an Index: list number, position in it.
type Pos struct{ List, Start int32 }

// Index is the feature index of one parsed file's statement lists, built
// once per parse and shared, read-only, by every model and every scan:
// the positions of the statements of each kind, of those whose
// statement-level call ends in a given name and of those with a given
// string literal among their operands, each in (list, start) order.
type Index struct {
	lists    [][]ast.Stmt
	byKind   [numStmtKinds][]Pos
	byCallee map[string]*[]Pos
	byLit    map[string]*[]Pos
}

// NewIndex indexes the given statement lists (scanner.CollectLists order).
func NewIndex(lists [][]ast.Stmt) *Index {
	ix := &Index{lists: lists, byCallee: make(map[string]*[]Pos), byLit: make(map[string]*[]Pos)}
	add := func(m map[string]*[]Pos, key string, p Pos) {
		occ := m[key]
		if occ == nil {
			occ = new([]Pos)
			m[key] = occ
		}
		// A statement can hold the same literal twice; it is listed once.
		if n := len(*occ); n == 0 || (*occ)[n-1] != p {
			*occ = append(*occ, p)
		}
	}
	for li, list := range lists {
		for si, s := range list {
			p := Pos{int32(li), int32(si)}
			k := kindOf(s)
			ix.byKind[k] = append(ix.byKind[k], p)
			if call := stmtCall(s); call != nil {
				if name := lastSegment(call.Fun); name != "" {
					add(ix.byCallee, name, p)
				}
			}
			for _, e := range stmtOperands(s) {
				if v, ok := stringLit(e); ok {
					add(ix.byLit, v, p)
				}
			}
		}
	}
	return ix
}

// occurrences lists the statements a set anchor admits, or a superset of
// them: by its most selective feature.
func (ix *Index) occurrences(a anchor) []Pos {
	occ := &ix.byKind[a.kind]
	if a.lit != "" {
		occ = ix.byLit[a.lit]
	} else if a.callee != "" {
		occ = ix.byCallee[a.callee]
	}
	if occ == nil {
		return nil
	}
	return *occ
}

// Scan calls emit for every match of the model in the indexed lists, in
// list order and, within a list, start order — the matches the loop
// "for list, for start: MatchPrefix" finds, without their bindings. A
// model tries only the starts its lead anchor leaves: the statements the
// index lists for it or, for a block-led model, the starts of the lists
// that hold such a statement at all; a model without an anchor sweeps.
func (m *MetaModel) Scan(ix *Index, emit func(list, start, n int)) {
	u := unifier{m: m}
	try := func(list, start int) {
		u.start = start
		if n, ok := u.seq(m.Pattern, ix.lists[list][start:], false); ok {
			emit(list, start, n)
		}
	}
	lead, blockLed := m.lead()
	if !lead.set() {
		for li, list := range ix.lists {
			for start := range list {
				try(li, start)
			}
		}
		return
	}
	occ := ix.occurrences(lead)
	if !blockLed {
		for _, p := range occ {
			try(int(p.List), int(p.Start))
		}
		return
	}
	u.indexed = true
	least := stmtDirective(m.Pattern[0]).MinStmts
	for len(occ) > 0 {
		li, n := int(occ[0].List), 1
		for n < len(occ) && occ[n].List == occ[0].List {
			n++
		}
		u.occ, occ = occ[:n], occ[n:]
		for start := range ix.lists[li] {
			for len(u.occ) > 0 && int(u.occ[0].Start) < start+least {
				u.occ = u.occ[1:]
			}
			if len(u.occ) == 0 {
				break
			}
			try(li, start)
		}
	}
}

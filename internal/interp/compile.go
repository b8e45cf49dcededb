// Closure compilation of minigo sources (the compile-once / execute-many
// front end). A one-time pass lowers each parsed file into a tree of Go
// closures (compiled statements and expressions) with lexical slot
// resolution done at compile time: locals become indexed slots in a flat
// frame array instead of map-based Scope chains, globals and builtins
// bind once through an interned symbol table, and constant literals fold.
//
// The compiled path preserves the tree-walk semantics EXACTLY, including
// step counts, virtual-clock advancement, error messages and the
// Python-style scoping quirks (":=" binds at function root; assignment
// walks the dynamic scope chain up to the globals). Unsupported
// constructs compile to thunks that raise the tree-walk's error when
// executed, never at compile time, so a program that the tree-walk would
// load-and-crash keeps the same observable behavior.
//
// Known (intentional) divergence: the tree-walk resolves bindings against
// the runtime scope chain, so a name assigned inside a function becomes a
// function-root local only if no enclosing binding exists *at that
// moment*. Compilation decides this statically from lexical structure,
// which matches the dynamic behavior for every program whose enclosing
// bindings are created before the nested code runs (all realistic
// targets; the equivalence suite in equiv_test.go locks this in).
package interp

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// cstmt is a compiled statement; cexpr a compiled expression. Both close
// over their resolved operands and execute against an interpreter (clock,
// steps, frames, globals) and the current slot frame.
type cstmt func(it *Interp, fr *cframe) (control, Value, error)
type cexpr func(it *Interp, fr *cframe) (Value, error)

// cassign stores a value through a compiled lvalue.
type cassign func(it *Interp, fr *cframe, v Value) error

// cell boxes a local variable captured by a nested function literal, so
// inner and outer frames share one mutable binding.
type cell struct{ v Value }

// unboundMarker is the sentinel occupying slots of locals that are
// declared (statically) but not yet assigned (dynamically); reading one
// raises UnboundLocalError, matching the tree-walk's missing-name path.
type unboundMarker struct{}

var unbound Value = unboundMarker{}

// vbind is one resolved local binding (function-root or block-scoped).
// cell is set when any nested function literal captures the binding; it
// is written during compilation and only read at run time, after the
// whole compile finished, so plain field access is safe.
type vbind struct {
	name string
	slot int
	cell bool
}

// capSource tells a closure where to fetch one captured cell from the
// creating frame: either a local slot of that frame or one of its own
// captures (for transitive capture).
type capSource struct {
	fromSlot int // >= 0: enclosing frame slot holding the *cell
	fromCap  int // >= 0: index into the enclosing frame's captures
}

// compiledFunc is the compile-once form of a function: parameters and
// receiver resolved to slots, the body lowered to closures, and the
// capture recipe for building closure values.
type compiledFunc struct {
	name      string
	params    []*vbind
	recv      *vbind // nil for plain functions
	nslots    int
	rootCells []int // slots that get a fresh *cell at frame setup
	caps      []capSource
	body      []cstmt
}

// compiledClosure is the runtime value of a compiled function, optionally
// bound to captured cells and a method receiver. It plays the role of
// *Closure on the compiled path.
type compiledClosure struct {
	fn   *compiledFunc
	caps []*cell
	recv Value
}

// cframe is the flat slot frame of one compiled call.
type cframe struct {
	slots []Value
	caps  []*cell
}

// runCstmts executes a compiled statement list (the analog of execBlock).
func runCstmts(it *Interp, fr *cframe, list []cstmt) (control, Value, error) {
	for _, s := range list {
		ctl, v, err := s(it, fr)
		if err != nil || ctl != ctlNone {
			return ctl, v, err
		}
	}
	return ctlNone, nil, nil
}

// ---------------------------------------------------------------------------
// Compilation context

// fnCtx is the per-function compile context: the slot scopes of one
// function being compiled, linked to its lexical parent.
type fnCtx struct {
	parent *fnCtx
	fn     *compiledFunc
	// blocks is the scope stack; blocks[0] is the function root scope.
	blocks []map[string]*vbind
	capIdx map[*vbind]int
}

func (fc *fnCtx) newSlot(name string) *vbind {
	b := &vbind{name: name, slot: fc.fn.nslots}
	fc.fn.nslots++
	return b
}

// compiler compiles one source unit against the program-wide symbol
// table and the set of statically known global names.
type compiler struct {
	file    string
	syms    *linker
	globals map[string]bool // top-level decls + builtins + import names
	// fns collects every compiledFunc produced while compiling the unit
	// (top-level functions, methods and nested literals); snapshot/fork
	// uses it as the unit's provenance set when translating closures
	// between a base program and a derived one.
	fns []*compiledFunc
}

// access is a resolved variable reference.
type access struct {
	kind int // accLocal, accCap, accGlobal
	b    *vbind
	cap  int
	gidx int
	name string
}

const (
	accLocal = iota
	accCap
	accGlobal
)

// lookupLocal finds a binding in the function's own scope stack.
func lookupLocal(fc *fnCtx, name string) (*vbind, bool) {
	for i := len(fc.blocks) - 1; i >= 0; i-- {
		if b, ok := fc.blocks[i][name]; ok {
			return b, true
		}
	}
	return nil, false
}

// capFor returns the capture index of an ancestor-owned binding in fc,
// threading the capture through every intermediate function.
func capFor(fc *fnCtx, b *vbind, owner *fnCtx) int {
	if idx, ok := fc.capIdx[b]; ok {
		return idx
	}
	var src capSource
	if fc.parent == owner {
		src = capSource{fromSlot: b.slot, fromCap: -1}
	} else {
		src = capSource{fromSlot: -1, fromCap: capFor(fc.parent, b, owner)}
	}
	idx := len(fc.fn.caps)
	fc.fn.caps = append(fc.fn.caps, src)
	fc.capIdx[b] = idx
	return idx
}

// resolve resolves a name at the current lexical position: own scopes,
// then enclosing functions (becoming a capture), then a global slot.
func (c *compiler) resolve(fc *fnCtx, name string) access {
	if fc != nil {
		if b, ok := lookupLocal(fc, name); ok {
			return access{kind: accLocal, b: b, name: name}
		}
		for anc := fc.parent; anc != nil; anc = anc.parent {
			if b, ok := lookupLocal(anc, name); ok {
				b.cell = true
				return access{kind: accCap, cap: capFor(fc, b, anc), name: name}
			}
		}
	}
	return access{kind: accGlobal, gidx: c.syms.intern(name), name: name}
}

// loadVar compiles a variable read.
func (c *compiler) loadVar(fc *fnCtx, name string) cexpr {
	acc := c.resolve(fc, name)
	switch acc.kind {
	case accLocal:
		b := acc.b
		slot := b.slot
		return func(it *Interp, fr *cframe) (Value, error) {
			v := fr.slots[slot]
			if b.cell {
				if cl, ok := v.(*cell); ok {
					v = cl.v
				}
			}
			if v == unbound {
				return nil, it.throw("UnboundLocalError",
					"local variable '"+name+"' referenced before assignment")
			}
			return v, nil
		}
	case accCap:
		idx := acc.cap
		return func(it *Interp, fr *cframe) (Value, error) {
			v := fr.caps[idx].v
			if v == unbound {
				return nil, it.throw("UnboundLocalError",
					"local variable '"+name+"' referenced before assignment")
			}
			return v, nil
		}
	default:
		gidx := acc.gidx
		return func(it *Interp, fr *cframe) (Value, error) {
			v := it.gslots[gidx]
			if v == unbound {
				return nil, it.throw("UnboundLocalError",
					"local variable '"+name+"' referenced before assignment")
			}
			return v, nil
		}
	}
}

// storeVar compiles a variable write. Both "=" and ":=" behave
// identically at run time in the tree-walk (assign if bound anywhere,
// else define at function root), which static resolution reproduces.
func (c *compiler) storeVar(fc *fnCtx, name string) cassign {
	if name == "_" {
		return func(it *Interp, fr *cframe, v Value) error { return nil }
	}
	acc := c.resolve(fc, name)
	switch acc.kind {
	case accLocal:
		b := acc.b
		slot := b.slot
		return func(it *Interp, fr *cframe, v Value) error {
			if b.cell {
				if cl, ok := fr.slots[slot].(*cell); ok {
					cl.v = v
				} else {
					fr.slots[slot] = &cell{v: v}
				}
			} else {
				fr.slots[slot] = v
			}
			return nil
		}
	case accCap:
		idx := acc.cap
		return func(it *Interp, fr *cframe, v Value) error {
			fr.caps[idx].v = v
			return nil
		}
	default:
		gidx := acc.gidx
		return func(it *Interp, fr *cframe, v Value) error {
			it.gslots[gidx] = v
			return nil
		}
	}
}

// ---------------------------------------------------------------------------
// Assigned-name collection (pass 1)

// collectAssigned gathers every identifier that a function body assigns
// (":=", "=", op-assign, ++/--, range binds, var/const decls), without
// descending into nested function literals: those names are the
// function-root binding candidates.
func collectAssigned(list []ast.Stmt, out map[string]bool) {
	var stmt func(ast.Stmt)
	addExpr := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			out[id.Name] = true
		}
	}
	stmt = func(s ast.Stmt) {
		switch st := s.(type) {
		case *ast.AssignStmt:
			for _, l := range st.Lhs {
				addExpr(l)
			}
		case *ast.IncDecStmt:
			addExpr(st.X)
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, n := range vs.Names {
							if n.Name != "_" {
								out[n.Name] = true
							}
						}
					}
				}
			}
		case *ast.RangeStmt:
			if st.Key != nil {
				addExpr(st.Key)
			}
			if st.Value != nil {
				addExpr(st.Value)
			}
			collectAssigned(st.Body.List, out)
		case *ast.IfStmt:
			if st.Init != nil {
				stmt(st.Init)
			}
			collectAssigned(st.Body.List, out)
			if st.Else != nil {
				stmt(st.Else)
			}
		case *ast.ForStmt:
			if st.Init != nil {
				stmt(st.Init)
			}
			if st.Post != nil {
				stmt(st.Post)
			}
			collectAssigned(st.Body.List, out)
		case *ast.BlockStmt:
			collectAssigned(st.List, out)
		case *ast.SwitchStmt:
			if st.Init != nil {
				stmt(st.Init)
			}
			for _, raw := range st.Body.List {
				if cc, ok := raw.(*ast.CaseClause); ok {
					collectAssigned(cc.Body, out)
				}
			}
		case *ast.LabeledStmt:
			stmt(st.Stmt)
		}
	}
	for _, s := range list {
		stmt(s)
	}
}

// resolvableAbove reports whether a name is bound in an enclosing
// function's scopes at the current lexical position.
func resolvableAbove(fc *fnCtx, name string) bool {
	for anc := fc; anc != nil; anc = anc.parent {
		if _, ok := lookupLocal(anc, name); ok {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Function compilation

// compileFunc lowers one function (top-level, method or literal).
func (c *compiler) compileFunc(parent *fnCtx, name string, ft *ast.FuncType,
	body *ast.BlockStmt, recvName string) *compiledFunc {

	fn := &compiledFunc{name: name}
	c.fns = append(c.fns, fn)
	fc := &fnCtx{
		parent: parent,
		fn:     fn,
		blocks: []map[string]*vbind{make(map[string]*vbind)},
		capIdx: make(map[*vbind]int),
	}
	root := fc.blocks[0]

	if recvName != "" && recvName != "_" {
		b := fc.newSlot(recvName)
		root[recvName] = b
		fn.recv = b
	}
	for _, p := range paramNames(ft) {
		if p == "_" {
			// Anonymous params still consume an argument position; bind a
			// throwaway slot so arity bookkeeping stays aligned.
			b := fc.newSlot("_")
			fn.params = append(fn.params, b)
			continue
		}
		if b, ok := root[p]; ok {
			fn.params = append(fn.params, b)
			continue
		}
		b := fc.newSlot(p)
		root[p] = b
		fn.params = append(fn.params, b)
	}

	// Function-root candidates: every assigned name that neither an
	// enclosing function scope nor a statically known global claims.
	assigned := make(map[string]bool)
	collectAssigned(body.List, assigned)
	names := make([]string, 0, len(assigned))
	for n := range assigned {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, ok := root[n]; ok {
			continue
		}
		if parent != nil && resolvableAbove(parent, n) {
			continue
		}
		if c.globals[n] {
			continue
		}
		root[n] = fc.newSlot(n)
	}

	fn.body = c.compileStmts(fc, body.List)

	for _, b := range root {
		if b.cell {
			fn.rootCells = append(fn.rootCells, b.slot)
		}
	}
	sort.Ints(fn.rootCells)
	return fn
}

// ---------------------------------------------------------------------------
// Statement compilation

func (c *compiler) compileStmts(fc *fnCtx, list []ast.Stmt) []cstmt {
	out := make([]cstmt, len(list))
	for i, s := range list {
		out[i] = c.compileStmt(fc, s)
	}
	return out
}

// compileBlockStmts compiles a nested statement list in its own block
// scope (the analog of execBlock with a fresh Scope: only var/const
// declarations are block-scoped).
func (c *compiler) compileBlockStmts(fc *fnCtx, list []ast.Stmt) []cstmt {
	fc.blocks = append(fc.blocks, make(map[string]*vbind))
	out := c.compileStmts(fc, list)
	fc.blocks = fc.blocks[:len(fc.blocks)-1]
	return out
}

// errStmt compiles to a statement that raises a plain error when
// executed, matching the tree-walk's lazily-reported unsupported forms.
func errStmt(format string, args ...any) cstmt {
	err := fmt.Errorf(format, args...)
	return func(it *Interp, fr *cframe) (control, Value, error) {
		if serr := it.step(); serr != nil {
			return ctlNone, nil, serr
		}
		return ctlNone, nil, err
	}
}

// compileStmt compiles one statement into its closure form.
func (c *compiler) compileStmt(fc *fnCtx, s ast.Stmt) cstmt {
	switch st := s.(type) {
	case *ast.ExprStmt:
		x := c.compileExpr(fc, st.X)
		return func(it *Interp, fr *cframe) (control, Value, error) {
			if err := it.step(); err != nil {
				return ctlNone, nil, err
			}
			_, err := x(it, fr)
			return ctlNone, nil, err
		}

	case *ast.AssignStmt:
		return c.compileAssign(fc, st)

	case *ast.IncDecStmt:
		x := c.compileExpr(fc, st.X)
		asn := c.compileAssignTarget(fc, st.X)
		delta := int64(1)
		if st.Tok == token.DEC {
			delta = -1
		}
		return func(it *Interp, fr *cframe) (control, Value, error) {
			if err := it.step(); err != nil {
				return ctlNone, nil, err
			}
			cur, err := x(it, fr)
			if err != nil {
				return ctlNone, nil, err
			}
			nv, err := it.binop(token.ADD, cur, delta)
			if err != nil {
				return ctlNone, nil, err
			}
			return ctlNone, nil, asn(it, fr, nv)
		}

	case *ast.ReturnStmt:
		switch len(st.Results) {
		case 0:
			return func(it *Interp, fr *cframe) (control, Value, error) {
				if err := it.step(); err != nil {
					return ctlNone, nil, err
				}
				return ctlReturn, nil, nil
			}
		case 1:
			x := c.compileExpr(fc, st.Results[0])
			return func(it *Interp, fr *cframe) (control, Value, error) {
				if err := it.step(); err != nil {
					return ctlNone, nil, err
				}
				v, err := x(it, fr)
				return ctlReturn, v, err
			}
		default:
			xs := make([]cexpr, len(st.Results))
			for i, r := range st.Results {
				xs[i] = c.compileExpr(fc, r)
			}
			return func(it *Interp, fr *cframe) (control, Value, error) {
				if err := it.step(); err != nil {
					return ctlNone, nil, err
				}
				vals := make([]Value, len(xs))
				for i, x := range xs {
					v, err := x(it, fr)
					if err != nil {
						return ctlNone, nil, err
					}
					vals[i] = v
				}
				return ctlReturn, &Tuple{Elems: vals}, nil
			}
		}

	case *ast.IfStmt:
		var initS cstmt
		if st.Init != nil {
			initS = c.compileStmt(fc, st.Init)
		}
		cond := c.compileExpr(fc, st.Cond)
		body := c.compileBlockStmts(fc, st.Body.List)
		var elseList []cstmt
		var elseS cstmt
		if st.Else != nil {
			if blk, ok := st.Else.(*ast.BlockStmt); ok {
				elseList = c.compileBlockStmts(fc, blk.List)
			} else {
				elseS = c.compileStmt(fc, st.Else)
			}
		}
		return func(it *Interp, fr *cframe) (control, Value, error) {
			if err := it.step(); err != nil {
				return ctlNone, nil, err
			}
			if initS != nil {
				if ctl, v, err := initS(it, fr); err != nil || ctl != ctlNone {
					return ctl, v, err
				}
			}
			cv, err := cond(it, fr)
			if err != nil {
				return ctlNone, nil, err
			}
			if Truthy(cv) {
				return runCstmts(it, fr, body)
			}
			if elseList != nil {
				return runCstmts(it, fr, elseList)
			}
			if elseS != nil {
				return elseS(it, fr)
			}
			return ctlNone, nil, nil
		}

	case *ast.BlockStmt:
		body := c.compileBlockStmts(fc, st.List)
		return func(it *Interp, fr *cframe) (control, Value, error) {
			if err := it.step(); err != nil {
				return ctlNone, nil, err
			}
			return runCstmts(it, fr, body)
		}

	case *ast.ForStmt:
		var initS, postS cstmt
		if st.Init != nil {
			initS = c.compileStmt(fc, st.Init)
		}
		var cond cexpr
		if st.Cond != nil {
			cond = c.compileExpr(fc, st.Cond)
		}
		body := c.compileBlockStmts(fc, st.Body.List)
		if st.Post != nil {
			postS = c.compileStmt(fc, st.Post)
		}
		return func(it *Interp, fr *cframe) (control, Value, error) {
			if err := it.step(); err != nil {
				return ctlNone, nil, err
			}
			if initS != nil {
				if ctl, v, err := initS(it, fr); err != nil || ctl != ctlNone {
					return ctl, v, err
				}
			}
			for {
				if err := it.step(); err != nil {
					return ctlNone, nil, err
				}
				if cond != nil {
					cv, err := cond(it, fr)
					if err != nil {
						return ctlNone, nil, err
					}
					if !Truthy(cv) {
						break
					}
				}
				ctl, v, err := runCstmts(it, fr, body)
				if err != nil {
					return ctlNone, nil, err
				}
				if ctl == ctlBreak {
					break
				}
				if ctl == ctlReturn {
					return ctl, v, nil
				}
				if postS != nil {
					if _, _, err := postS(it, fr); err != nil {
						return ctlNone, nil, err
					}
				}
			}
			return ctlNone, nil, nil
		}

	case *ast.RangeStmt:
		return c.compileRange(fc, st)

	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			return func(it *Interp, fr *cframe) (control, Value, error) {
				if err := it.step(); err != nil {
					return ctlNone, nil, err
				}
				return ctlBreak, nil, nil
			}
		case token.CONTINUE:
			return func(it *Interp, fr *cframe) (control, Value, error) {
				if err := it.step(); err != nil {
					return ctlNone, nil, err
				}
				return ctlContinue, nil, nil
			}
		default:
			return errStmt("interp: unsupported branch %s", st.Tok)
		}

	case *ast.SwitchStmt:
		return c.compileSwitch(fc, st)

	case *ast.DeclStmt:
		return c.compileDecl(fc, st)

	case *ast.DeferStmt:
		fnx := c.compileExpr(fc, st.Call.Fun)
		argxs := make([]cexpr, len(st.Call.Args))
		for i, a := range st.Call.Args {
			argxs[i] = c.compileExpr(fc, a)
		}
		return func(it *Interp, fr *cframe) (control, Value, error) {
			if err := it.step(); err != nil {
				return ctlNone, nil, err
			}
			frm := it.currentFrame()
			if frm == nil {
				return ctlNone, nil, fmt.Errorf("interp: defer outside a function")
			}
			fn, err := fnx(it, fr)
			if err != nil {
				return ctlNone, nil, err
			}
			args := make([]Value, len(argxs))
			for i, ax := range argxs {
				args[i], err = ax(it, fr)
				if err != nil {
					return ctlNone, nil, err
				}
			}
			frm.defers = append(frm.defers, deferredCall{fn: fn, args: args})
			return ctlNone, nil, nil
		}

	case *ast.GoStmt:
		// Goroutines run synchronously for determinism (see tree-walk).
		call := c.compileExpr(fc, st.Call)
		return func(it *Interp, fr *cframe) (control, Value, error) {
			if err := it.step(); err != nil {
				return ctlNone, nil, err
			}
			_, err := call(it, fr)
			return ctlNone, nil, err
		}

	case *ast.LabeledStmt:
		inner := c.compileStmt(fc, st.Stmt)
		return func(it *Interp, fr *cframe) (control, Value, error) {
			if err := it.step(); err != nil {
				return ctlNone, nil, err
			}
			return inner(it, fr)
		}

	case *ast.EmptyStmt:
		return func(it *Interp, fr *cframe) (control, Value, error) {
			if err := it.step(); err != nil {
				return ctlNone, nil, err
			}
			return ctlNone, nil, nil
		}

	default:
		return errStmt("interp: unsupported statement %T", s)
	}
}

// compileDecl compiles var/const declarations. Top-of-body declarations
// bind at the function root (same scope the tree-walk defines them in);
// declarations inside nested blocks are block-scoped and shadow.
func (c *compiler) compileDecl(fc *fnCtx, st *ast.DeclStmt) cstmt {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok || (gd.Tok != token.VAR && gd.Tok != token.CONST) {
		return errStmt("interp: unsupported declaration")
	}
	type declOne struct {
		init  cexpr // nil means zero-value nil
		store cassign
	}
	var ops []declOne
	atRoot := len(fc.blocks) == 1
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			var init cexpr
			if i < len(vs.Values) {
				init = c.compileExpr(fc, vs.Values[i])
			}
			var store cassign
			if name.Name == "_" {
				store = func(it *Interp, fr *cframe, v Value) error { return nil }
			} else if atRoot {
				// Root-level decl: same binding the pre-pass allocated.
				store = c.storeVar(fc, name.Name)
			} else {
				// Block-scoped: fresh binding shadowing outer ones. A
				// captured block variable gets a fresh cell every time the
				// declaration executes (per-iteration capture semantics).
				top := fc.blocks[len(fc.blocks)-1]
				b, exists := top[name.Name]
				if !exists {
					b = fc.newSlot(name.Name)
					top[name.Name] = b
				}
				slot := b.slot
				store = func(it *Interp, fr *cframe, v Value) error {
					if b.cell {
						fr.slots[slot] = &cell{v: v}
					} else {
						fr.slots[slot] = v
					}
					return nil
				}
			}
			ops = append(ops, declOne{init: init, store: store})
		}
	}
	return func(it *Interp, fr *cframe) (control, Value, error) {
		if err := it.step(); err != nil {
			return ctlNone, nil, err
		}
		for _, op := range ops {
			var v Value
			if op.init != nil {
				var err error
				v, err = op.init(it, fr)
				if err != nil {
					return ctlNone, nil, err
				}
			}
			if err := op.store(it, fr, v); err != nil {
				return ctlNone, nil, err
			}
		}
		return ctlNone, nil, nil
	}
}

func (c *compiler) compileRange(fc *fnCtx, st *ast.RangeStmt) cstmt {
	collx := c.compileExpr(fc, st.X)
	var bindKey, bindVal cassign
	if st.Key != nil {
		bindKey = c.compileAssignTarget(fc, st.Key)
	}
	if st.Value != nil {
		bindVal = c.compileAssignTarget(fc, st.Value)
	}
	body := c.compileBlockStmts(fc, st.Body.List)

	runIter := func(it *Interp, fr *cframe, k, v Value) (control, Value, bool, error) {
		if err := it.step(); err != nil {
			return ctlNone, nil, false, err
		}
		if bindKey != nil {
			if err := bindKey(it, fr, k); err != nil {
				return ctlNone, nil, false, err
			}
		}
		if bindVal != nil {
			if err := bindVal(it, fr, v); err != nil {
				return ctlNone, nil, false, err
			}
		}
		ctl, rv, err := runCstmts(it, fr, body)
		if err != nil {
			return ctlNone, nil, false, err
		}
		if ctl == ctlBreak {
			return ctlNone, nil, true, nil
		}
		if ctl == ctlReturn {
			return ctl, rv, true, nil
		}
		return ctlNone, nil, false, nil
	}

	return func(it *Interp, fr *cframe) (control, Value, error) {
		if err := it.step(); err != nil {
			return ctlNone, nil, err
		}
		coll, err := collx(it, fr)
		if err != nil {
			return ctlNone, nil, err
		}
		switch cv := coll.(type) {
		case *List:
			// Snapshot the elements up front: mutation during iteration is
			// invisible, exactly like the tree-walk's pair materialization.
			elems := append([]Value(nil), cv.Elems...)
			for i, e := range elems {
				ctl, rv, stop, err := runIter(it, fr, int64(i), e)
				if err != nil || ctl == ctlReturn {
					return ctl, rv, err
				}
				if stop {
					break
				}
			}
		case *Map:
			keys, vals := cv.pairs()
			for i, k := range keys {
				ctl, rv, stop, err := runIter(it, fr, k, vals[i])
				if err != nil || ctl == ctlReturn {
					return ctl, rv, err
				}
				if stop {
					break
				}
			}
		case string:
			for i := 0; i < len(cv); i++ {
				ctl, rv, stop, err := runIter(it, fr, int64(i), string(cv[i]))
				if err != nil || ctl == ctlReturn {
					return ctl, rv, err
				}
				if stop {
					break
				}
			}
		case int64:
			for i := int64(0); i < cv; i++ {
				ctl, rv, stop, err := runIter(it, fr, i, nil)
				if err != nil || ctl == ctlReturn {
					return ctl, rv, err
				}
				if stop {
					break
				}
			}
		case nil:
			return ctlNone, nil, it.throw("TypeError", "nil object is not iterable")
		default:
			return ctlNone, nil, it.throw("TypeError", TypeName(coll)+" object is not iterable")
		}
		return ctlNone, nil, nil
	}
}

func (c *compiler) compileSwitch(fc *fnCtx, st *ast.SwitchStmt) cstmt {
	var initS cstmt
	if st.Init != nil {
		initS = c.compileStmt(fc, st.Init)
	}
	var tagx cexpr
	if st.Tag != nil {
		tagx = c.compileExpr(fc, st.Tag)
	}
	type clause struct {
		exprs []cexpr
		body  []cstmt
	}
	var clauses []clause
	var defaultBody []cstmt
	hasDefault := false
	for _, raw := range st.Body.List {
		cc, ok := raw.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			defaultBody = c.compileBlockStmts(fc, cc.Body)
			hasDefault = true
			continue
		}
		cl := clause{body: c.compileBlockStmts(fc, cc.Body)}
		for _, ce := range cc.List {
			cl.exprs = append(cl.exprs, c.compileExpr(fc, ce))
		}
		clauses = append(clauses, cl)
	}
	hasTag := st.Tag != nil
	return func(it *Interp, fr *cframe) (control, Value, error) {
		if err := it.step(); err != nil {
			return ctlNone, nil, err
		}
		if initS != nil {
			if ctl, v, err := initS(it, fr); err != nil || ctl != ctlNone {
				return ctl, v, err
			}
		}
		var tag Value
		if tagx != nil {
			var err error
			tag, err = tagx(it, fr)
			if err != nil {
				return ctlNone, nil, err
			}
		}
		for _, cl := range clauses {
			for _, cx := range cl.exprs {
				cv, err := cx(it, fr)
				if err != nil {
					return ctlNone, nil, err
				}
				hit := false
				if hasTag {
					hit = Equal(tag, cv)
				} else {
					hit = Truthy(cv)
				}
				if hit {
					ctl, v, err := runCstmts(it, fr, cl.body)
					if ctl == ctlBreak {
						ctl = ctlNone
					}
					return ctl, v, err
				}
			}
		}
		if hasDefault {
			ctl, v, err := runCstmts(it, fr, defaultBody)
			if ctl == ctlBreak {
				ctl = ctlNone
			}
			return ctl, v, err
		}
		return ctlNone, nil, nil
	}
}

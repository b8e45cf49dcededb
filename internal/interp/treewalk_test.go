package interp

// The tree-walk reference interpreter: it evaluates the AST directly,
// with globals, locals and captures in map-based Scope chains and methods
// looked up by name per call. Production runs compiled programs only;
// this engine defines what running a program means for the oracle tests
// (runBothPaths, FuzzEngineEquivalence, FuzzForkEquivalence and, in the
// external test package, the kvclient corpus and every §V experiment).
// It shares the compiled engine's Interp for steps, clock, frames,
// defers, hooks and host environments, and the helpers in ops.go.

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
)

// Closure is a tree-walk function or method bound to its environment.
// It is the callable the compiled engine's call, Repr and TypeName take
// from outside that engine.
type Closure struct {
	tw     *TreeWalk
	Name   string
	Params []string
	Body   *ast.BlockStmt
	Env    *Scope
	Recv   Value  // bound receiver for methods, nil otherwise
	RecvN  string // receiver parameter name
}

func (f *Closure) callWith(args []Value) (Value, error) { return f.tw.callClosure(f, args) }

func (f *Closure) funcName() string { return f.Name }

// Scope is a lexical scope chain for variables. Function-body scopes are
// marked as funcRoot: plain assignment to an undeclared name defines it at
// the function root (Python-style), which is what makes the paper's
// "UnboundLocalError: local variable referenced before assignment" failure
// mode reproducible (§V-C).
type Scope struct {
	vars     map[string]Value
	parent   *Scope
	funcRoot bool
}

// NewScope returns a scope with the given parent (nil for globals).
func NewScope(parent *Scope) *Scope {
	return &Scope{vars: make(map[string]Value), parent: parent}
}

// Lookup finds a variable, walking the parent chain.
func (s *Scope) Lookup(name string) (Value, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// Define binds a name in this scope.
func (s *Scope) Define(name string, v Value) { s.vars[name] = v }

// DefineAtFuncRoot binds a name at the nearest enclosing function-root
// scope (or locally when there is none).
func (s *Scope) DefineAtFuncRoot(name string, v Value) {
	for sc := s; sc != nil; sc = sc.parent {
		if sc.funcRoot {
			sc.vars[name] = v
			return
		}
	}
	s.vars[name] = v
}

// Assign updates an existing binding, searching the parent chain; it
// reports whether the name was found.
func (s *Scope) Assign(name string, v Value) bool {
	for sc := s; sc != nil; sc = sc.parent {
		if _, ok := sc.vars[name]; ok {
			sc.vars[name] = v
			return true
		}
	}
	return false
}

// rootShape returns the interned field-less shape of a struct type. Each
// tree-walk interns its own, in the linker of its empty program.
func (tw *TreeWalk) rootShape(typeName string) *Shape { return tw.prog.ln.structShape(typeName) }

// callClosure executes a user function with defer/recover semantics.
func (tw *TreeWalk) callClosure(f *Closure, args []Value) (result Value, err error) {
	if len(tw.frames) > 200 {
		return nil, tw.throw("RecursionError", "maximum call depth exceeded in "+f.Name)
	}
	fr := &frame{name: f.Name}
	tw.frames = append(tw.frames, fr)
	defer func() { tw.frames = tw.frames[:len(tw.frames)-1] }()

	scope := NewScope(f.Env)
	scope.funcRoot = true
	if f.RecvN != "" {
		scope.Define(f.RecvN, f.Recv)
	}
	for i, p := range f.Params {
		var v Value
		if i < len(args) {
			v = args[i]
		}
		scope.Define(p, v)
	}
	// Extra args beyond declared params are dropped (emulating the
	// paper's "omitted parameters use defaults" semantics in reverse).

	var cerr error
	if tw.hook != nil {
		cerr = tw.hook.EnterCall(tw.Interp, f.Name)
	}
	if cerr == nil {
		var ctl control
		var ret Value
		ctl, ret, cerr = tw.execBlock(f.Body.List, scope)
		if ctl == ctlReturn {
			result = ret
		}
	}
	// Run defers (LIFO); a deferred recover() may squash a panic.
	err = tw.runDefers(fr, cerr)
	if err == nil && tw.hook != nil {
		result, err = tw.hook.LeaveCall(tw.Interp, f.Name, result)
	}
	return result, err
}

// execBlock executes a statement list in the given scope.
// execBlock executes a statement list in the given scope.
func (tw *TreeWalk) execBlock(list []ast.Stmt, sc *Scope) (control, Value, error) {
	for _, s := range list {
		ctl, v, err := tw.execStmt(s, sc)
		if err != nil || ctl != ctlNone {
			return ctl, v, err
		}
	}
	return ctlNone, nil, nil
}

func (tw *TreeWalk) execStmt(s ast.Stmt, sc *Scope) (control, Value, error) {
	if err := tw.step(); err != nil {
		return ctlNone, nil, err
	}
	switch st := s.(type) {
	case *ast.ExprStmt:
		_, err := tw.evalExpr(st.X, sc)
		return ctlNone, nil, err
	case *ast.AssignStmt:
		return ctlNone, nil, tw.execAssign(st, sc)
	case *ast.IncDecStmt:
		cur, err := tw.evalExpr(st.X, sc)
		if err != nil {
			return ctlNone, nil, err
		}
		delta := int64(1)
		if st.Tok == token.DEC {
			delta = -1
		}
		nv, err := tw.binop(token.ADD, cur, delta)
		if err != nil {
			return ctlNone, nil, err
		}
		return ctlNone, nil, tw.assignTo(st.X, nv, sc)
	case *ast.ReturnStmt:
		switch len(st.Results) {
		case 0:
			return ctlReturn, nil, nil
		case 1:
			v, err := tw.evalExpr(st.Results[0], sc)
			return ctlReturn, v, err
		default:
			vals := make([]Value, len(st.Results))
			for i, r := range st.Results {
				v, err := tw.evalExpr(r, sc)
				if err != nil {
					return ctlNone, nil, err
				}
				vals[i] = v
			}
			return ctlReturn, &Tuple{Elems: vals}, nil
		}
	case *ast.IfStmt:
		isc := NewScope(sc)
		if st.Init != nil {
			if ctl, v, err := tw.execStmt(st.Init, isc); err != nil || ctl != ctlNone {
				return ctl, v, err
			}
		}
		cond, err := tw.evalExpr(st.Cond, isc)
		if err != nil {
			return ctlNone, nil, err
		}
		if Truthy(cond) {
			return tw.execBlock(st.Body.List, NewScope(isc))
		}
		if st.Else != nil {
			if blk, ok := st.Else.(*ast.BlockStmt); ok {
				return tw.execBlock(blk.List, NewScope(isc))
			}
			return tw.execStmt(st.Else, isc)
		}
		return ctlNone, nil, nil
	case *ast.BlockStmt:
		return tw.execBlock(st.List, NewScope(sc))
	case *ast.ForStmt:
		fsc := NewScope(sc)
		if st.Init != nil {
			if ctl, v, err := tw.execStmt(st.Init, fsc); err != nil || ctl != ctlNone {
				return ctl, v, err
			}
		}
		for {
			if err := tw.step(); err != nil {
				return ctlNone, nil, err
			}
			if st.Cond != nil {
				cond, err := tw.evalExpr(st.Cond, fsc)
				if err != nil {
					return ctlNone, nil, err
				}
				if !Truthy(cond) {
					break
				}
			}
			ctl, v, err := tw.execBlock(st.Body.List, NewScope(fsc))
			if err != nil {
				return ctlNone, nil, err
			}
			if ctl == ctlBreak {
				break
			}
			if ctl == ctlReturn {
				return ctl, v, nil
			}
			if st.Post != nil {
				if _, _, err := tw.execStmt(st.Post, fsc); err != nil {
					return ctlNone, nil, err
				}
			}
		}
		return ctlNone, nil, nil
	case *ast.RangeStmt:
		return tw.execRange(st, sc)
	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			return ctlBreak, nil, nil
		case token.CONTINUE:
			return ctlContinue, nil, nil
		default:
			return ctlNone, nil, fmt.Errorf("interp: unsupported branch %s", st.Tok)
		}
	case *ast.SwitchStmt:
		return tw.execSwitch(st, sc)
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok || (gd.Tok != token.VAR && gd.Tok != token.CONST) {
			return ctlNone, nil, fmt.Errorf("interp: unsupported declaration")
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var v Value
				if i < len(vs.Values) {
					var err error
					v, err = tw.evalExpr(vs.Values[i], sc)
					if err != nil {
						return ctlNone, nil, err
					}
				}
				sc.Define(name.Name, v)
			}
		}
		return ctlNone, nil, nil
	case *ast.DeferStmt:
		fr := tw.currentFrame()
		if fr == nil {
			return ctlNone, nil, fmt.Errorf("interp: defer outside a function")
		}
		fn, err := tw.evalExpr(st.Call.Fun, sc)
		if err != nil {
			return ctlNone, nil, err
		}
		args := make([]Value, len(st.Call.Args))
		for i, a := range st.Call.Args {
			args[i], err = tw.evalExpr(a, sc)
			if err != nil {
				return ctlNone, nil, err
			}
		}
		fr.defers = append(fr.defers, deferredCall{fn: fn, args: args})
		return ctlNone, nil, nil
	case *ast.GoStmt:
		// minigo executes goroutines synchronously for determinism;
		// concurrency effects (CPU hogs) are modelled by the virtual clock.
		_, err := tw.evalExpr(st.Call, sc)
		return ctlNone, nil, err
	case *ast.LabeledStmt:
		return tw.execStmt(st.Stmt, sc)
	case *ast.EmptyStmt:
		return ctlNone, nil, nil
	default:
		return ctlNone, nil, fmt.Errorf("interp: unsupported statement %T", s)
	}
}

func (tw *TreeWalk) execRange(st *ast.RangeStmt, sc *Scope) (control, Value, error) {
	coll, err := tw.evalExpr(st.X, sc)
	if err != nil {
		return ctlNone, nil, err
	}
	var pairs [][2]Value
	switch c := coll.(type) {
	case *List:
		for i, e := range c.Elems {
			pairs = append(pairs, [2]Value{int64(i), e})
		}
	case *Map:
		for _, k := range c.Keys() {
			v, _ := c.Get(k)
			pairs = append(pairs, [2]Value{k, v})
		}
	case string:
		for i := 0; i < len(c); i++ {
			pairs = append(pairs, [2]Value{int64(i), string(c[i])})
		}
	case int64:
		for i := int64(0); i < c; i++ {
			pairs = append(pairs, [2]Value{i, nil})
		}
	case nil:
		return ctlNone, nil, tw.throw("TypeError", "nil object is not iterable")
	default:
		return ctlNone, nil, tw.throw("TypeError", TypeName(coll)+" object is not iterable")
	}
	for _, kv := range pairs {
		if err := tw.step(); err != nil {
			return ctlNone, nil, err
		}
		rsc := NewScope(sc)
		if st.Key != nil {
			if err := tw.bindRangeVar(st.Key, kv[0], st.Tok, rsc); err != nil {
				return ctlNone, nil, err
			}
		}
		if st.Value != nil {
			if err := tw.bindRangeVar(st.Value, kv[1], st.Tok, rsc); err != nil {
				return ctlNone, nil, err
			}
		}
		ctl, v, err := tw.execBlock(st.Body.List, rsc)
		if err != nil {
			return ctlNone, nil, err
		}
		if ctl == ctlBreak {
			break
		}
		if ctl == ctlReturn {
			return ctl, v, nil
		}
	}
	return ctlNone, nil, nil
}

func (tw *TreeWalk) bindRangeVar(e ast.Expr, v Value, tok token.Token, sc *Scope) error {
	id, ok := e.(*ast.Ident)
	if !ok {
		return tw.assignTo(e, v, sc)
	}
	if id.Name == "_" {
		return nil
	}
	if tok == token.DEFINE {
		// Loop variables are function-scoped (Python semantics).
		if !sc.Assign(id.Name, v) {
			sc.DefineAtFuncRoot(id.Name, v)
		}
		return nil
	}
	return tw.assignTo(id, v, sc)
}

func (tw *TreeWalk) execSwitch(st *ast.SwitchStmt, sc *Scope) (control, Value, error) {
	ssc := NewScope(sc)
	if st.Init != nil {
		if ctl, v, err := tw.execStmt(st.Init, ssc); err != nil || ctl != ctlNone {
			return ctl, v, err
		}
	}
	var tag Value
	hasTag := st.Tag != nil
	if hasTag {
		var err error
		tag, err = tw.evalExpr(st.Tag, ssc)
		if err != nil {
			return ctlNone, nil, err
		}
	}
	var defaultCase *ast.CaseClause
	for _, raw := range st.Body.List {
		cc, ok := raw.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			defaultCase = cc
			continue
		}
		for _, ce := range cc.List {
			cv, err := tw.evalExpr(ce, ssc)
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
				ctl, v, err := tw.execBlock(cc.Body, NewScope(ssc))
				if ctl == ctlBreak {
					ctl = ctlNone
				}
				return ctl, v, err
			}
		}
	}
	if defaultCase != nil {
		ctl, v, err := tw.execBlock(defaultCase.Body, NewScope(ssc))
		if ctl == ctlBreak {
			ctl = ctlNone
		}
		return ctl, v, err
	}
	return ctlNone, nil, nil
}

func (tw *TreeWalk) execAssign(st *ast.AssignStmt, sc *Scope) error {
	// Compound assignment: x op= y.
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return fmt.Errorf("interp: invalid compound assignment")
		}
		cur, err := tw.evalExpr(st.Lhs[0], sc)
		if err != nil {
			return err
		}
		rhs, err := tw.evalExpr(st.Rhs[0], sc)
		if err != nil {
			return err
		}
		op, ok := compoundOp(st.Tok)
		if !ok {
			return fmt.Errorf("interp: unsupported assignment operator %s", st.Tok)
		}
		nv, err := tw.binop(op, cur, rhs)
		if err != nil {
			return err
		}
		return tw.assignTo(st.Lhs[0], nv, sc)
	}

	// Evaluate RHS values first (parallel assignment semantics).
	var vals []Value
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		// Tuple unpack (multi-return) or comma-ok map read.
		if idx, ok := st.Rhs[0].(*ast.IndexExpr); ok && len(st.Lhs) == 2 {
			container, err := tw.evalExpr(idx.X, sc)
			if err != nil {
				return err
			}
			if m, ok := container.(*Map); ok {
				key, err := tw.evalExpr(idx.Index, sc)
				if err != nil {
					return err
				}
				v, found := m.Get(key)
				vals = []Value{v, found}
			}
		}
		if vals == nil {
			v, err := tw.evalExpr(st.Rhs[0], sc)
			if err != nil {
				return err
			}
			t, ok := v.(*Tuple)
			if !ok {
				return tw.throw("TypeError", "cannot unpack "+TypeName(v)+" into "+
					strconv.Itoa(len(st.Lhs))+" variables")
			}
			if len(t.Elems) != len(st.Lhs) {
				return tw.throw("ValueError", fmt.Sprintf("expected %d values, got %d", len(st.Lhs), len(t.Elems)))
			}
			vals = t.Elems
		}
	} else {
		if len(st.Lhs) != len(st.Rhs) {
			return fmt.Errorf("interp: assignment arity mismatch")
		}
		vals = make([]Value, len(st.Rhs))
		for i, r := range st.Rhs {
			v, err := tw.evalExpr(r, sc)
			if err != nil {
				return err
			}
			vals[i] = v
		}
	}

	for i, lhs := range st.Lhs {
		v := vals[i]
		if t, ok := v.(*Tuple); ok && len(st.Lhs) == 1 && len(t.Elems) > 0 {
			// Single-target assignment of a multi-return keeps the first value.
			v = t.Elems[0]
		}
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			if st.Tok == token.DEFINE {
				// minigo uses Python scoping: := binds at function scope,
				// not block scope. This is what makes trigger-wrapped
				// mutations (`if __fault_enabled() { x := ... } else
				// { x := ... }`) behave like EDFI's switchable faults in
				// Python — the binding survives the branch.
				if !sc.Assign(id.Name, v) {
					sc.DefineAtFuncRoot(id.Name, v)
				}
				continue
			}
			if !sc.Assign(id.Name, v) {
				// Writing an undeclared name defines it at function scope
				// (Python semantics); reading one raises UnboundLocalError
				// (see evalIdent).
				sc.DefineAtFuncRoot(id.Name, v)
			}
			continue
		}
		if err := tw.assignTo(lhs, v, sc); err != nil {
			return err
		}
	}
	return nil
}

// assignTo stores a value through an lvalue expression.
func (tw *TreeWalk) assignTo(lhs ast.Expr, v Value, sc *Scope) error {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return nil
		}
		if !sc.Assign(l.Name, v) {
			sc.DefineAtFuncRoot(l.Name, v)
		}
		return nil
	case *ast.SelectorExpr:
		base, err := tw.evalExpr(l.X, sc)
		if err != nil {
			return err
		}
		obj, ok := base.(*Object)
		if !ok {
			if base == nil {
				return tw.throw("AttributeError", "nil object has no attribute '"+l.Sel.Name+"'")
			}
			return tw.throw("TypeError", "cannot set attribute on "+TypeName(base))
		}
		obj.Set(l.Sel.Name, v)
		return nil
	case *ast.IndexExpr:
		container, err := tw.evalExpr(l.X, sc)
		if err != nil {
			return err
		}
		key, err := tw.evalExpr(l.Index, sc)
		if err != nil {
			return err
		}
		switch c := container.(type) {
		case *List:
			i, ok := key.(int64)
			if !ok {
				return tw.throw("TypeError", "list index must be int, not "+TypeName(key))
			}
			if i < 0 || int(i) >= len(c.Elems) {
				return tw.throw("IndexError", "list index out of range")
			}
			c.Elems[i] = v
			return nil
		case *Map:
			if !hashable(key) {
				return tw.throw("TypeError", "unhashable map key type "+TypeName(key))
			}
			c.Set(key, v)
			return nil
		case nil:
			return tw.throw("TypeError", "nil object does not support item assignment")
		default:
			return tw.throw("TypeError", TypeName(container)+" object does not support item assignment")
		}
	case *ast.StarExpr:
		return tw.assignTo(l.X, v, sc)
	default:
		return fmt.Errorf("interp: unsupported assignment target %T", lhs)
	}
}

// evalExpr evaluates an expression in the given scope.
func (tw *TreeWalk) evalExpr(e ast.Expr, sc *Scope) (Value, error) {
	switch x := e.(type) {
	case *ast.Ident:
		return tw.evalIdent(x, sc)
	case *ast.BasicLit:
		return evalLit(x)
	case *ast.ParenExpr:
		return tw.evalExpr(x.X, sc)
	case *ast.SelectorExpr:
		return tw.evalSelector(x, sc)
	case *ast.CallExpr:
		return tw.evalCall(x, sc)
	case *ast.BinaryExpr:
		return tw.evalBinary(x, sc)
	case *ast.UnaryExpr:
		return tw.evalUnary(x, sc)
	case *ast.IndexExpr:
		return tw.evalIndex(x, sc)
	case *ast.SliceExpr:
		return tw.evalSlice(x, sc)
	case *ast.CompositeLit:
		return tw.evalComposite(x, sc)
	case *ast.FuncLit:
		return &Closure{
			tw:     tw,
			Name:   "<func>",
			Params: paramNames(x.Type),
			Body:   x.Body,
			Env:    sc,
		}, nil
	case *ast.StarExpr:
		return tw.evalExpr(x.X, sc)
	case *ast.TypeAssertExpr:
		return tw.evalExpr(x.X, sc)
	default:
		return nil, fmt.Errorf("interp: unsupported expression %T", e)
	}
}

func (tw *TreeWalk) evalIdent(x *ast.Ident, sc *Scope) (Value, error) {
	switch x.Name {
	case "nil":
		return nil, nil
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	v, ok := sc.Lookup(x.Name)
	if !ok {
		return nil, tw.throw("UnboundLocalError",
			"local variable '"+x.Name+"' referenced before assignment")
	}
	return v, nil
}

func (tw *TreeWalk) evalSelector(x *ast.SelectorExpr, sc *Scope) (Value, error) {
	base, err := tw.evalExpr(x.X, sc)
	if err != nil {
		return nil, err
	}
	name := x.Sel.Name
	switch b := base.(type) {
	case *Module:
		v, ok := b.Member[name]
		if !ok {
			return nil, tw.throw("AttributeError", "module '"+b.Name+"' has no attribute '"+name+"'")
		}
		return v, nil
	case *Object:
		if v, ok := b.Get(name); ok {
			return v, nil
		}
		if decl, ok := tw.methods[b.TypeName()][name]; ok {
			_, recvName := recvInfo(decl)
			return &Closure{
				tw:     tw,
				Name:   b.TypeName() + "." + name,
				Params: paramNames(decl.Type),
				Body:   decl.Body,
				Env:    tw.globals,
				Recv:   b,
				RecvN:  recvName,
			}, nil
		}
		return nil, tw.throw("AttributeError", "'"+b.TypeName()+"' object has no attribute '"+name+"'")
	case *Exc:
		switch name {
		case "Type":
			return b.Type, nil
		case "Msg":
			return b.Msg, nil
		}
		return nil, tw.throw("AttributeError", "exception has no attribute '"+name+"'")
	case nil:
		// The Python "AttributeError: 'NoneType' object has no attribute"
		// analog — the key failure mode of wrong-input injections (§V-B).
		return nil, tw.throw("AttributeError", "nil object has no attribute '"+name+"'")
	default:
		return nil, tw.throw("AttributeError", "'"+TypeName(base)+"' object has no attribute '"+name+"'")
	}
}

func (tw *TreeWalk) evalCall(x *ast.CallExpr, sc *Scope) (Value, error) {
	// Language-level special forms.
	if id, ok := x.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "panic":
			if len(x.Args) != 1 {
				return nil, fmt.Errorf("interp: panic takes one argument")
			}
			v, err := tw.evalExpr(x.Args[0], sc)
			if err != nil {
				return nil, err
			}
			return nil, &PanicError{Val: v, Stack: tw.stackNames()}
		case "recover":
			return tw.evalRecover(), nil
		case "make":
			return tw.evalMake(x)
		case "new":
			if len(x.Args) == 1 {
				if tid, ok := x.Args[0].(*ast.Ident); ok {
					return tw.rootShape(tid.Name).alloc(), nil
				}
			}
			return nil, fmt.Errorf("interp: unsupported new() form")
		}
	}
	fn, err := tw.evalExpr(x.Fun, sc)
	if err != nil {
		return nil, err
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		args[i], err = tw.evalExpr(a, sc)
		if err != nil {
			return nil, err
		}
	}
	return tw.call(fn, args)
}

func (tw *TreeWalk) evalMake(x *ast.CallExpr) (Value, error) {
	if len(x.Args) == 0 {
		return nil, fmt.Errorf("interp: make requires a type argument")
	}
	switch x.Args[0].(type) {
	case *ast.MapType:
		return NewMap(), nil
	case *ast.ArrayType:
		return NewList(), nil
	default:
		return nil, fmt.Errorf("interp: unsupported make() type")
	}
}

func (tw *TreeWalk) evalBinary(x *ast.BinaryExpr, sc *Scope) (Value, error) {
	// Short-circuit logicals.
	switch x.Op {
	case token.LAND:
		l, err := tw.evalExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		if !Truthy(l) {
			return false, nil
		}
		r, err := tw.evalExpr(x.Y, sc)
		if err != nil {
			return nil, err
		}
		return Truthy(r), nil
	case token.LOR:
		l, err := tw.evalExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		if Truthy(l) {
			return true, nil
		}
		r, err := tw.evalExpr(x.Y, sc)
		if err != nil {
			return nil, err
		}
		return Truthy(r), nil
	}
	l, err := tw.evalExpr(x.X, sc)
	if err != nil {
		return nil, err
	}
	r, err := tw.evalExpr(x.Y, sc)
	if err != nil {
		return nil, err
	}
	return tw.binop(x.Op, l, r)
}

func (tw *TreeWalk) evalUnary(x *ast.UnaryExpr, sc *Scope) (Value, error) {
	v, err := tw.evalExpr(x.X, sc)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case token.SUB:
		switch n := v.(type) {
		case int64:
			return -n, nil
		case float64:
			return -n, nil
		}
		return nil, tw.throw("TypeError", "bad operand type for unary -: '"+TypeName(v)+"'")
	case token.ADD:
		return v, nil
	case token.NOT:
		return !Truthy(v), nil
	case token.AND:
		// &expr — minigo objects are reference values already.
		return v, nil
	default:
		return nil, fmt.Errorf("interp: unsupported unary operator %s", x.Op)
	}
}

func (tw *TreeWalk) evalIndex(x *ast.IndexExpr, sc *Scope) (Value, error) {
	container, err := tw.evalExpr(x.X, sc)
	if err != nil {
		return nil, err
	}
	key, err := tw.evalExpr(x.Index, sc)
	if err != nil {
		return nil, err
	}
	return indexValue(tw.Interp, container, key)
}

func (tw *TreeWalk) evalSlice(x *ast.SliceExpr, sc *Scope) (Value, error) {
	container, err := tw.evalExpr(x.X, sc)
	if err != nil {
		return nil, err
	}
	length := 0
	switch c := container.(type) {
	case *List:
		length = len(c.Elems)
	case string:
		length = len(c)
	case nil:
		return nil, tw.throw("TypeError", "nil object is not subscriptable")
	default:
		return nil, tw.throw("TypeError", TypeName(container)+" object is not sliceable")
	}
	lo, hi := int64(0), int64(length)
	if x.Low != nil {
		v, err := tw.evalExpr(x.Low, sc)
		if err != nil {
			return nil, err
		}
		n, ok := v.(int64)
		if !ok {
			return nil, tw.throw("TypeError", "slice bound must be int")
		}
		lo = n
	}
	if x.High != nil {
		v, err := tw.evalExpr(x.High, sc)
		if err != nil {
			return nil, err
		}
		n, ok := v.(int64)
		if !ok {
			return nil, tw.throw("TypeError", "slice bound must be int")
		}
		hi = n
	}
	if lo < 0 || hi > int64(length) || lo > hi {
		return nil, tw.throw("IndexError", "slice bounds out of range")
	}
	switch c := container.(type) {
	case *List:
		return NewList(append([]Value(nil), c.Elems[lo:hi]...)...), nil
	case string:
		return c[lo:hi], nil
	}
	return nil, nil
}

func (tw *TreeWalk) evalComposite(x *ast.CompositeLit, sc *Scope) (Value, error) {
	switch t := x.Type.(type) {
	case *ast.Ident:
		obj := tw.rootShape(t.Name).alloc()
		for _, elt := range x.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				return nil, fmt.Errorf("interp: struct literals require field: value elements")
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				return nil, fmt.Errorf("interp: struct literal keys must be identifiers")
			}
			v, err := tw.evalExpr(kv.Value, sc)
			if err != nil {
				return nil, err
			}
			obj.Set(key.Name, v)
		}
		return obj, nil
	case *ast.MapType:
		m := NewMap()
		for _, elt := range x.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				return nil, fmt.Errorf("interp: map literals require key: value elements")
			}
			k, err := tw.evalExpr(kv.Key, sc)
			if err != nil {
				return nil, err
			}
			if !hashable(k) {
				return nil, tw.throw("TypeError", "unhashable map key type "+TypeName(k))
			}
			v, err := tw.evalExpr(kv.Value, sc)
			if err != nil {
				return nil, err
			}
			m.Set(k, v)
		}
		return m, nil
	case *ast.ArrayType:
		l := NewList()
		for _, elt := range x.Elts {
			v, err := tw.evalExpr(elt, sc)
			if err != nil {
				return nil, err
			}
			l.Elems = append(l.Elems, v)
		}
		return l, nil
	default:
		return nil, fmt.Errorf("interp: unsupported composite literal type %T", x.Type)
	}
}

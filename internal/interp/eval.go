package interp

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

type control int

const (
	ctlNone control = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

// execBlock executes a statement list in the given scope.
func (it *Interp) execBlock(list []ast.Stmt, sc *Scope) (control, Value, error) {
	for _, s := range list {
		ctl, v, err := it.execStmt(s, sc)
		if err != nil || ctl != ctlNone {
			return ctl, v, err
		}
	}
	return ctlNone, nil, nil
}

func (it *Interp) execStmt(s ast.Stmt, sc *Scope) (control, Value, error) {
	if err := it.step(); err != nil {
		return ctlNone, nil, err
	}
	switch st := s.(type) {
	case *ast.ExprStmt:
		_, err := it.evalExpr(st.X, sc)
		return ctlNone, nil, err
	case *ast.AssignStmt:
		return ctlNone, nil, it.execAssign(st, sc)
	case *ast.IncDecStmt:
		cur, err := it.evalExpr(st.X, sc)
		if err != nil {
			return ctlNone, nil, err
		}
		delta := int64(1)
		if st.Tok == token.DEC {
			delta = -1
		}
		nv, err := it.binop(token.ADD, cur, delta)
		if err != nil {
			return ctlNone, nil, err
		}
		return ctlNone, nil, it.assignTo(st.X, nv, sc)
	case *ast.ReturnStmt:
		switch len(st.Results) {
		case 0:
			return ctlReturn, nil, nil
		case 1:
			v, err := it.evalExpr(st.Results[0], sc)
			return ctlReturn, v, err
		default:
			vals := make([]Value, len(st.Results))
			for i, r := range st.Results {
				v, err := it.evalExpr(r, sc)
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
			if ctl, v, err := it.execStmt(st.Init, isc); err != nil || ctl != ctlNone {
				return ctl, v, err
			}
		}
		cond, err := it.evalExpr(st.Cond, isc)
		if err != nil {
			return ctlNone, nil, err
		}
		if Truthy(cond) {
			return it.execBlock(st.Body.List, NewScope(isc))
		}
		if st.Else != nil {
			if blk, ok := st.Else.(*ast.BlockStmt); ok {
				return it.execBlock(blk.List, NewScope(isc))
			}
			return it.execStmt(st.Else, isc)
		}
		return ctlNone, nil, nil
	case *ast.BlockStmt:
		return it.execBlock(st.List, NewScope(sc))
	case *ast.ForStmt:
		fsc := NewScope(sc)
		if st.Init != nil {
			if ctl, v, err := it.execStmt(st.Init, fsc); err != nil || ctl != ctlNone {
				return ctl, v, err
			}
		}
		for {
			if err := it.step(); err != nil {
				return ctlNone, nil, err
			}
			if st.Cond != nil {
				cond, err := it.evalExpr(st.Cond, fsc)
				if err != nil {
					return ctlNone, nil, err
				}
				if !Truthy(cond) {
					break
				}
			}
			ctl, v, err := it.execBlock(st.Body.List, NewScope(fsc))
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
				if _, _, err := it.execStmt(st.Post, fsc); err != nil {
					return ctlNone, nil, err
				}
			}
		}
		return ctlNone, nil, nil
	case *ast.RangeStmt:
		return it.execRange(st, sc)
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
		return it.execSwitch(st, sc)
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
					v, err = it.evalExpr(vs.Values[i], sc)
					if err != nil {
						return ctlNone, nil, err
					}
				}
				sc.Define(name.Name, v)
			}
		}
		return ctlNone, nil, nil
	case *ast.DeferStmt:
		fr := it.currentFrame()
		if fr == nil {
			return ctlNone, nil, fmt.Errorf("interp: defer outside a function")
		}
		fn, err := it.evalExpr(st.Call.Fun, sc)
		if err != nil {
			return ctlNone, nil, err
		}
		args := make([]Value, len(st.Call.Args))
		for i, a := range st.Call.Args {
			args[i], err = it.evalExpr(a, sc)
			if err != nil {
				return ctlNone, nil, err
			}
		}
		fr.defers = append(fr.defers, deferredCall{fn: fn, args: args})
		return ctlNone, nil, nil
	case *ast.GoStmt:
		// minigo executes goroutines synchronously for determinism;
		// concurrency effects (CPU hogs) are modelled by the virtual clock.
		_, err := it.evalExpr(st.Call, sc)
		return ctlNone, nil, err
	case *ast.LabeledStmt:
		return it.execStmt(st.Stmt, sc)
	case *ast.EmptyStmt:
		return ctlNone, nil, nil
	default:
		return ctlNone, nil, fmt.Errorf("interp: unsupported statement %T", s)
	}
}

func (it *Interp) execRange(st *ast.RangeStmt, sc *Scope) (control, Value, error) {
	coll, err := it.evalExpr(st.X, sc)
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
		return ctlNone, nil, it.throw("TypeError", "nil object is not iterable")
	default:
		return ctlNone, nil, it.throw("TypeError", TypeName(coll)+" object is not iterable")
	}
	for _, kv := range pairs {
		if err := it.step(); err != nil {
			return ctlNone, nil, err
		}
		rsc := NewScope(sc)
		if st.Key != nil {
			if err := it.bindRangeVar(st.Key, kv[0], st.Tok, rsc); err != nil {
				return ctlNone, nil, err
			}
		}
		if st.Value != nil {
			if err := it.bindRangeVar(st.Value, kv[1], st.Tok, rsc); err != nil {
				return ctlNone, nil, err
			}
		}
		ctl, v, err := it.execBlock(st.Body.List, rsc)
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

func (it *Interp) bindRangeVar(e ast.Expr, v Value, tok token.Token, sc *Scope) error {
	id, ok := e.(*ast.Ident)
	if !ok {
		return it.assignTo(e, v, sc)
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
	return it.assignTo(id, v, sc)
}

func (it *Interp) execSwitch(st *ast.SwitchStmt, sc *Scope) (control, Value, error) {
	ssc := NewScope(sc)
	if st.Init != nil {
		if ctl, v, err := it.execStmt(st.Init, ssc); err != nil || ctl != ctlNone {
			return ctl, v, err
		}
	}
	var tag Value
	hasTag := st.Tag != nil
	if hasTag {
		var err error
		tag, err = it.evalExpr(st.Tag, ssc)
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
			cv, err := it.evalExpr(ce, ssc)
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
				ctl, v, err := it.execBlock(cc.Body, NewScope(ssc))
				if ctl == ctlBreak {
					ctl = ctlNone
				}
				return ctl, v, err
			}
		}
	}
	if defaultCase != nil {
		ctl, v, err := it.execBlock(defaultCase.Body, NewScope(ssc))
		if ctl == ctlBreak {
			ctl = ctlNone
		}
		return ctl, v, err
	}
	return ctlNone, nil, nil
}

func (it *Interp) execAssign(st *ast.AssignStmt, sc *Scope) error {
	// Compound assignment: x op= y.
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return fmt.Errorf("interp: invalid compound assignment")
		}
		cur, err := it.evalExpr(st.Lhs[0], sc)
		if err != nil {
			return err
		}
		rhs, err := it.evalExpr(st.Rhs[0], sc)
		if err != nil {
			return err
		}
		op, ok := compoundOp(st.Tok)
		if !ok {
			return fmt.Errorf("interp: unsupported assignment operator %s", st.Tok)
		}
		nv, err := it.binop(op, cur, rhs)
		if err != nil {
			return err
		}
		return it.assignTo(st.Lhs[0], nv, sc)
	}

	// Evaluate RHS values first (parallel assignment semantics).
	var vals []Value
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		// Tuple unpack (multi-return) or comma-ok map read.
		if idx, ok := st.Rhs[0].(*ast.IndexExpr); ok && len(st.Lhs) == 2 {
			container, err := it.evalExpr(idx.X, sc)
			if err != nil {
				return err
			}
			if m, ok := container.(*Map); ok {
				key, err := it.evalExpr(idx.Index, sc)
				if err != nil {
					return err
				}
				v, found := m.Get(key)
				vals = []Value{v, found}
			}
		}
		if vals == nil {
			v, err := it.evalExpr(st.Rhs[0], sc)
			if err != nil {
				return err
			}
			t, ok := v.(*Tuple)
			if !ok {
				return it.throw("TypeError", "cannot unpack "+TypeName(v)+" into "+
					strconv.Itoa(len(st.Lhs))+" variables")
			}
			if len(t.Elems) != len(st.Lhs) {
				return it.throw("ValueError", fmt.Sprintf("expected %d values, got %d", len(st.Lhs), len(t.Elems)))
			}
			vals = t.Elems
		}
	} else {
		if len(st.Lhs) != len(st.Rhs) {
			return fmt.Errorf("interp: assignment arity mismatch")
		}
		vals = make([]Value, len(st.Rhs))
		for i, r := range st.Rhs {
			v, err := it.evalExpr(r, sc)
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
		if err := it.assignTo(lhs, v, sc); err != nil {
			return err
		}
	}
	return nil
}

func compoundOp(tok token.Token) (token.Token, bool) {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD, true
	case token.SUB_ASSIGN:
		return token.SUB, true
	case token.MUL_ASSIGN:
		return token.MUL, true
	case token.QUO_ASSIGN:
		return token.QUO, true
	case token.REM_ASSIGN:
		return token.REM, true
	case token.OR_ASSIGN:
		return token.OR, true
	case token.AND_ASSIGN:
		return token.AND, true
	}
	return token.ILLEGAL, false
}

// assignTo stores a value through an lvalue expression.
func (it *Interp) assignTo(lhs ast.Expr, v Value, sc *Scope) error {
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
		base, err := it.evalExpr(l.X, sc)
		if err != nil {
			return err
		}
		obj, ok := base.(*Object)
		if !ok {
			if base == nil {
				return it.throw("AttributeError", "nil object has no attribute '"+l.Sel.Name+"'")
			}
			return it.throw("TypeError", "cannot set attribute on "+TypeName(base))
		}
		obj.Set(l.Sel.Name, v)
		return nil
	case *ast.IndexExpr:
		container, err := it.evalExpr(l.X, sc)
		if err != nil {
			return err
		}
		key, err := it.evalExpr(l.Index, sc)
		if err != nil {
			return err
		}
		switch c := container.(type) {
		case *List:
			i, ok := key.(int64)
			if !ok {
				return it.throw("TypeError", "list index must be int, not "+TypeName(key))
			}
			if i < 0 || int(i) >= len(c.Elems) {
				return it.throw("IndexError", "list index out of range")
			}
			c.Elems[i] = v
			return nil
		case *Map:
			if !hashable(key) {
				return it.throw("TypeError", "unhashable map key type "+TypeName(key))
			}
			c.Set(key, v)
			return nil
		case nil:
			return it.throw("TypeError", "nil object does not support item assignment")
		default:
			return it.throw("TypeError", TypeName(container)+" object does not support item assignment")
		}
	case *ast.StarExpr:
		return it.assignTo(l.X, v, sc)
	default:
		return fmt.Errorf("interp: unsupported assignment target %T", lhs)
	}
}

func hashable(v Value) bool {
	switch v.(type) {
	case nil, bool, int64, float64, string:
		return true
	}
	return false
}

// evalExpr evaluates an expression in the given scope.
func (it *Interp) evalExpr(e ast.Expr, sc *Scope) (Value, error) {
	switch x := e.(type) {
	case *ast.Ident:
		return it.evalIdent(x, sc)
	case *ast.BasicLit:
		return evalLit(x)
	case *ast.ParenExpr:
		return it.evalExpr(x.X, sc)
	case *ast.SelectorExpr:
		return it.evalSelector(x, sc)
	case *ast.CallExpr:
		return it.evalCall(x, sc)
	case *ast.BinaryExpr:
		return it.evalBinary(x, sc)
	case *ast.UnaryExpr:
		return it.evalUnary(x, sc)
	case *ast.IndexExpr:
		return it.evalIndex(x, sc)
	case *ast.SliceExpr:
		return it.evalSlice(x, sc)
	case *ast.CompositeLit:
		return it.evalComposite(x, sc)
	case *ast.FuncLit:
		return &Closure{
			Name:   "<func>",
			Params: paramNames(x.Type),
			Body:   x.Body,
			Env:    sc,
		}, nil
	case *ast.StarExpr:
		return it.evalExpr(x.X, sc)
	case *ast.TypeAssertExpr:
		return it.evalExpr(x.X, sc)
	default:
		return nil, fmt.Errorf("interp: unsupported expression %T", e)
	}
}

func (it *Interp) evalIdent(x *ast.Ident, sc *Scope) (Value, error) {
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
		return nil, it.throw("UnboundLocalError",
			"local variable '"+x.Name+"' referenced before assignment")
	}
	return v, nil
}

func evalLit(x *ast.BasicLit) (Value, error) {
	switch x.Kind {
	case token.INT:
		n, err := strconv.ParseInt(x.Value, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("interp: bad int literal %q", x.Value)
		}
		return n, nil
	case token.FLOAT:
		f, err := strconv.ParseFloat(x.Value, 64)
		if err != nil {
			return nil, fmt.Errorf("interp: bad float literal %q", x.Value)
		}
		return f, nil
	case token.STRING:
		s, err := strconv.Unquote(x.Value)
		if err != nil {
			return nil, fmt.Errorf("interp: bad string literal %s", x.Value)
		}
		return s, nil
	case token.CHAR:
		s, err := strconv.Unquote(x.Value)
		if err != nil || len(s) == 0 {
			return nil, fmt.Errorf("interp: bad char literal %s", x.Value)
		}
		return s, nil
	default:
		return nil, fmt.Errorf("interp: unsupported literal kind %s", x.Kind)
	}
}

func (it *Interp) evalSelector(x *ast.SelectorExpr, sc *Scope) (Value, error) {
	base, err := it.evalExpr(x.X, sc)
	if err != nil {
		return nil, err
	}
	name := x.Sel.Name
	switch b := base.(type) {
	case *Module:
		v, ok := b.Member[name]
		if !ok {
			return nil, it.throw("AttributeError", "module '"+b.Name+"' has no attribute '"+name+"'")
		}
		return v, nil
	case *Object:
		if v, ok := b.Get(name); ok {
			return v, nil
		}
		if decl, ok := it.methods[b.TypeName()][name]; ok {
			_, recvName := recvInfo(decl)
			return &Closure{
				Name:   b.TypeName() + "." + name,
				Params: paramNames(decl.Type),
				Body:   decl.Body,
				Env:    it.globals,
				Recv:   b,
				RecvN:  recvName,
			}, nil
		}
		return nil, it.throw("AttributeError", "'"+b.TypeName()+"' object has no attribute '"+name+"'")
	case *Exc:
		switch name {
		case "Type":
			return b.Type, nil
		case "Msg":
			return b.Msg, nil
		}
		return nil, it.throw("AttributeError", "exception has no attribute '"+name+"'")
	case nil:
		// The Python "AttributeError: 'NoneType' object has no attribute"
		// analog — the key failure mode of wrong-input injections (§V-B).
		return nil, it.throw("AttributeError", "nil object has no attribute '"+name+"'")
	default:
		return nil, it.throw("AttributeError", "'"+TypeName(base)+"' object has no attribute '"+name+"'")
	}
}

func (it *Interp) evalCall(x *ast.CallExpr, sc *Scope) (Value, error) {
	// Language-level special forms.
	if id, ok := x.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "panic":
			if len(x.Args) != 1 {
				return nil, fmt.Errorf("interp: panic takes one argument")
			}
			v, err := it.evalExpr(x.Args[0], sc)
			if err != nil {
				return nil, err
			}
			return nil, &PanicError{Val: v, Stack: it.stackNames()}
		case "recover":
			return it.evalRecover(), nil
		case "make":
			return it.evalMake(x)
		case "new":
			if len(x.Args) == 1 {
				if tid, ok := x.Args[0].(*ast.Ident); ok {
					return it.rootShape(tid.Name).alloc(), nil
				}
			}
			return nil, fmt.Errorf("interp: unsupported new() form")
		}
	}
	fn, err := it.evalExpr(x.Fun, sc)
	if err != nil {
		return nil, err
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		args[i], err = it.evalExpr(a, sc)
		if err != nil {
			return nil, err
		}
	}
	return it.call(fn, args)
}

func (it *Interp) evalRecover() Value {
	// recover() is valid when called (directly or transitively) from a
	// deferred function: the frame below the deferred call chain holds
	// the in-flight panic.
	for i := len(it.frames) - 2; i >= 0; i-- {
		if it.frames[i].panicking != nil {
			v := it.frames[i].panicking.Val
			it.frames[i].panicking = nil
			return v
		}
	}
	return nil
}

func (it *Interp) evalMake(x *ast.CallExpr) (Value, error) {
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

func (it *Interp) evalBinary(x *ast.BinaryExpr, sc *Scope) (Value, error) {
	// Short-circuit logicals.
	switch x.Op {
	case token.LAND:
		l, err := it.evalExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		if !Truthy(l) {
			return false, nil
		}
		r, err := it.evalExpr(x.Y, sc)
		if err != nil {
			return nil, err
		}
		return Truthy(r), nil
	case token.LOR:
		l, err := it.evalExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		if Truthy(l) {
			return true, nil
		}
		r, err := it.evalExpr(x.Y, sc)
		if err != nil {
			return nil, err
		}
		return Truthy(r), nil
	}
	l, err := it.evalExpr(x.X, sc)
	if err != nil {
		return nil, err
	}
	r, err := it.evalExpr(x.Y, sc)
	if err != nil {
		return nil, err
	}
	return it.binop(x.Op, l, r)
}

func (it *Interp) binop(op token.Token, l, r Value) (Value, error) {
	switch op {
	case token.EQL:
		return Equal(l, r), nil
	case token.NEQ:
		return !Equal(l, r), nil
	}

	switch lv := l.(type) {
	case int64:
		switch rv := r.(type) {
		case int64:
			return intOp(it, op, lv, rv)
		case float64:
			return floatOp(it, op, float64(lv), rv)
		}
	case float64:
		switch rv := r.(type) {
		case int64:
			return floatOp(it, op, lv, float64(rv))
		case float64:
			return floatOp(it, op, lv, rv)
		}
	case string:
		if rv, ok := r.(string); ok {
			return stringOp(it, op, lv, rv)
		}
	case *List:
		if rv, ok := r.(*List); ok && op == token.ADD {
			out := NewList()
			out.Elems = append(out.Elems, lv.Elems...)
			out.Elems = append(out.Elems, rv.Elems...)
			return out, nil
		}
	}
	return nil, it.throw("TypeError", fmt.Sprintf(
		"unsupported operand types for %s: '%s' and '%s'", op, TypeName(l), TypeName(r)))
}

func intOp(it *Interp, op token.Token, a, b int64) (Value, error) {
	switch op {
	case token.ADD:
		return a + b, nil
	case token.SUB:
		return a - b, nil
	case token.MUL:
		return a * b, nil
	case token.QUO:
		if b == 0 {
			return nil, it.throw("ZeroDivisionError", "integer division by zero")
		}
		return a / b, nil
	case token.REM:
		if b == 0 {
			return nil, it.throw("ZeroDivisionError", "integer modulo by zero")
		}
		return a % b, nil
	case token.LSS:
		return a < b, nil
	case token.LEQ:
		return a <= b, nil
	case token.GTR:
		return a > b, nil
	case token.GEQ:
		return a >= b, nil
	case token.AND:
		return a & b, nil
	case token.OR:
		return a | b, nil
	case token.XOR:
		return a ^ b, nil
	case token.SHL:
		return a << uint(b), nil
	case token.SHR:
		return a >> uint(b), nil
	}
	return nil, fmt.Errorf("interp: unsupported int operator %s", op)
}

func floatOp(it *Interp, op token.Token, a, b float64) (Value, error) {
	switch op {
	case token.ADD:
		return a + b, nil
	case token.SUB:
		return a - b, nil
	case token.MUL:
		return a * b, nil
	case token.QUO:
		if b == 0 {
			return nil, it.throw("ZeroDivisionError", "float division by zero")
		}
		return a / b, nil
	case token.LSS:
		return a < b, nil
	case token.LEQ:
		return a <= b, nil
	case token.GTR:
		return a > b, nil
	case token.GEQ:
		return a >= b, nil
	}
	return nil, fmt.Errorf("interp: unsupported float operator %s", op)
}

func stringOp(it *Interp, op token.Token, a, b string) (Value, error) {
	switch op {
	case token.ADD:
		return a + b, nil
	case token.LSS:
		return a < b, nil
	case token.LEQ:
		return a <= b, nil
	case token.GTR:
		return a > b, nil
	case token.GEQ:
		return a >= b, nil
	}
	return nil, fmt.Errorf("interp: unsupported string operator %s", op)
}

func (it *Interp) evalUnary(x *ast.UnaryExpr, sc *Scope) (Value, error) {
	v, err := it.evalExpr(x.X, sc)
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
		return nil, it.throw("TypeError", "bad operand type for unary -: '"+TypeName(v)+"'")
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

func (it *Interp) evalIndex(x *ast.IndexExpr, sc *Scope) (Value, error) {
	container, err := it.evalExpr(x.X, sc)
	if err != nil {
		return nil, err
	}
	key, err := it.evalExpr(x.Index, sc)
	if err != nil {
		return nil, err
	}
	return indexValue(it, container, key)
}

func (it *Interp) evalSlice(x *ast.SliceExpr, sc *Scope) (Value, error) {
	container, err := it.evalExpr(x.X, sc)
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
		return nil, it.throw("TypeError", "nil object is not subscriptable")
	default:
		return nil, it.throw("TypeError", TypeName(container)+" object is not sliceable")
	}
	lo, hi := int64(0), int64(length)
	if x.Low != nil {
		v, err := it.evalExpr(x.Low, sc)
		if err != nil {
			return nil, err
		}
		n, ok := v.(int64)
		if !ok {
			return nil, it.throw("TypeError", "slice bound must be int")
		}
		lo = n
	}
	if x.High != nil {
		v, err := it.evalExpr(x.High, sc)
		if err != nil {
			return nil, err
		}
		n, ok := v.(int64)
		if !ok {
			return nil, it.throw("TypeError", "slice bound must be int")
		}
		hi = n
	}
	if lo < 0 || hi > int64(length) || lo > hi {
		return nil, it.throw("IndexError", "slice bounds out of range")
	}
	switch c := container.(type) {
	case *List:
		return NewList(append([]Value(nil), c.Elems[lo:hi]...)...), nil
	case string:
		return c[lo:hi], nil
	}
	return nil, nil
}

func (it *Interp) evalComposite(x *ast.CompositeLit, sc *Scope) (Value, error) {
	switch t := x.Type.(type) {
	case *ast.Ident:
		obj := it.rootShape(t.Name).alloc()
		for _, elt := range x.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				return nil, fmt.Errorf("interp: struct literals require field: value elements")
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				return nil, fmt.Errorf("interp: struct literal keys must be identifiers")
			}
			v, err := it.evalExpr(kv.Value, sc)
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
			k, err := it.evalExpr(kv.Key, sc)
			if err != nil {
				return nil, err
			}
			if !hashable(k) {
				return nil, it.throw("TypeError", "unhashable map key type "+TypeName(k))
			}
			v, err := it.evalExpr(kv.Value, sc)
			if err != nil {
				return nil, err
			}
			m.Set(k, v)
		}
		return m, nil
	case *ast.ArrayType:
		l := NewList()
		for _, elt := range x.Elts {
			v, err := it.evalExpr(elt, sc)
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

// FormatValue renders a value using a printf-like verb subset; exposed for
// the fmt host module.
func FormatValue(format string, args []Value) string {
	var sb strings.Builder
	argi := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' || i+1 >= len(format) {
			sb.WriteByte(c)
			continue
		}
		i++
		verb := format[i]
		if verb == '%' {
			sb.WriteByte('%')
			continue
		}
		var arg Value
		if argi < len(args) {
			arg = args[argi]
			argi++
		}
		switch verb {
		case 'd', 's', 'v', 'q', 'f', 't':
			if verb == 'q' {
				sb.WriteString(strconv.Quote(Repr(arg)))
			} else {
				sb.WriteString(Repr(arg))
			}
		default:
			sb.WriteByte('%')
			sb.WriteByte(verb)
		}
	}
	return sb.String()
}

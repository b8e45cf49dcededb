package interp

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
)

// ---------------------------------------------------------------------------
// Assignment compilation

// compileAssignTarget compiles an lvalue (the analog of assignTo).
func (c *compiler) compileAssignTarget(fc *fnCtx, lhs ast.Expr) cassign {
	switch l := lhs.(type) {
	case *ast.Ident:
		return c.storeVar(fc, l.Name)
	case *ast.SelectorExpr:
		basex := c.compileExpr(fc, l.X)
		name := l.Sel.Name
		return func(it *Interp, fr *cframe, v Value) error {
			base, err := basex(it, fr)
			if err != nil {
				return err
			}
			obj, ok := base.(*Object)
			if !ok {
				if base == nil {
					return it.throw("AttributeError", "nil object has no attribute '"+name+"'")
				}
				return it.throw("TypeError", "cannot set attribute on "+TypeName(base))
			}
			obj.Set(name, v)
			return nil
		}
	case *ast.IndexExpr:
		contx := c.compileExpr(fc, l.X)
		keyx := c.compileExpr(fc, l.Index)
		return func(it *Interp, fr *cframe, v Value) error {
			container, err := contx(it, fr)
			if err != nil {
				return err
			}
			key, err := keyx(it, fr)
			if err != nil {
				return err
			}
			switch cv := container.(type) {
			case *List:
				i, ok := key.(int64)
				if !ok {
					return it.throw("TypeError", "list index must be int, not "+TypeName(key))
				}
				if i < 0 || int(i) >= len(cv.Elems) {
					return it.throw("IndexError", "list index out of range")
				}
				cv.Elems[i] = v
				return nil
			case *Map:
				if !hashable(key) {
					return it.throw("TypeError", "unhashable map key type "+TypeName(key))
				}
				cv.Set(key, v)
				return nil
			case nil:
				return it.throw("TypeError", "nil object does not support item assignment")
			default:
				return it.throw("TypeError", TypeName(container)+" object does not support item assignment")
			}
		}
	case *ast.StarExpr:
		return c.compileAssignTarget(fc, l.X)
	default:
		err := fmt.Errorf("interp: unsupported assignment target %T", lhs)
		return func(it *Interp, fr *cframe, v Value) error { return err }
	}
}

func (c *compiler) compileAssign(fc *fnCtx, st *ast.AssignStmt) cstmt {
	// Compound assignment: x op= y.
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return errStmt("interp: invalid compound assignment")
		}
		curx := c.compileExpr(fc, st.Lhs[0])
		rhsx := c.compileExpr(fc, st.Rhs[0])
		op, opOK := compoundOp(st.Tok)
		asn := c.compileAssignTarget(fc, st.Lhs[0])
		tok := st.Tok
		return func(it *Interp, fr *cframe) (control, Value, error) {
			if err := it.step(); err != nil {
				return ctlNone, nil, err
			}
			cur, err := curx(it, fr)
			if err != nil {
				return ctlNone, nil, err
			}
			rhs, err := rhsx(it, fr)
			if err != nil {
				return ctlNone, nil, err
			}
			if !opOK {
				return ctlNone, nil, fmt.Errorf("interp: unsupported assignment operator %s", tok)
			}
			nv, err := it.binop(op, cur, rhs)
			if err != nil {
				return ctlNone, nil, err
			}
			return ctlNone, nil, asn(it, fr, nv)
		}
	}

	// Plain and parallel assignment; compile all targets up front.
	targets := make([]cassign, len(st.Lhs))
	for i, l := range st.Lhs {
		targets[i] = c.compileAssignTarget(fc, l)
	}

	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		// Tuple unpack (multi-return) or comma-ok map read.
		nl := len(st.Lhs)
		fullx := c.compileExpr(fc, st.Rhs[0])
		var contx, keyx cexpr
		if idx, ok := st.Rhs[0].(*ast.IndexExpr); ok && nl == 2 {
			contx = c.compileExpr(fc, idx.X)
			keyx = c.compileExpr(fc, idx.Index)
		}
		return func(it *Interp, fr *cframe) (control, Value, error) {
			if err := it.step(); err != nil {
				return ctlNone, nil, err
			}
			var vals []Value
			if contx != nil {
				container, err := contx(it, fr)
				if err != nil {
					return ctlNone, nil, err
				}
				if m, ok := container.(*Map); ok {
					key, err := keyx(it, fr)
					if err != nil {
						return ctlNone, nil, err
					}
					v, found := m.Get(key)
					vals = []Value{v, found}
				}
			}
			if vals == nil {
				// Generic path re-evaluates the full RHS, container
				// included — the tree-walk does the same.
				v, err := fullx(it, fr)
				if err != nil {
					return ctlNone, nil, err
				}
				t, ok := v.(*Tuple)
				if !ok {
					return ctlNone, nil, it.throw("TypeError", "cannot unpack "+TypeName(v)+" into "+
						strconv.Itoa(nl)+" variables")
				}
				if len(t.Elems) != nl {
					return ctlNone, nil, it.throw("ValueError",
						fmt.Sprintf("expected %d values, got %d", nl, len(t.Elems)))
				}
				vals = t.Elems
			}
			for i, asn := range targets {
				if err := asn(it, fr, vals[i]); err != nil {
					return ctlNone, nil, err
				}
			}
			return ctlNone, nil, nil
		}
	}

	if len(st.Lhs) != len(st.Rhs) {
		return errStmt("interp: assignment arity mismatch")
	}
	rhsxs := make([]cexpr, len(st.Rhs))
	for i, r := range st.Rhs {
		rhsxs[i] = c.compileExpr(fc, r)
	}
	single := len(st.Lhs) == 1
	return func(it *Interp, fr *cframe) (control, Value, error) {
		if err := it.step(); err != nil {
			return ctlNone, nil, err
		}
		if single {
			v, err := rhsxs[0](it, fr)
			if err != nil {
				return ctlNone, nil, err
			}
			if t, ok := v.(*Tuple); ok && len(t.Elems) > 0 {
				// Single-target assignment of a multi-return keeps the
				// first value.
				v = t.Elems[0]
			}
			return ctlNone, nil, targets[0](it, fr, v)
		}
		vals := make([]Value, len(rhsxs))
		for i, rx := range rhsxs {
			v, err := rx(it, fr)
			if err != nil {
				return ctlNone, nil, err
			}
			vals[i] = v
		}
		for i, asn := range targets {
			if err := asn(it, fr, vals[i]); err != nil {
				return ctlNone, nil, err
			}
		}
		return ctlNone, nil, nil
	}
}

// ---------------------------------------------------------------------------
// Expression compilation

// constExpr wraps a compile-time constant.
func constExpr(v Value) cexpr {
	return func(it *Interp, fr *cframe) (Value, error) { return v, nil }
}

// errExpr compiles to an expression that raises a plain error when
// evaluated (lazy unsupported-form reporting, like the tree-walk).
func errExpr(format string, args ...any) cexpr {
	err := fmt.Errorf(format, args...)
	return func(it *Interp, fr *cframe) (Value, error) { return nil, err }
}

// constOf reports whether a compiled expression is a foldable constant.
// Only leaves produced by constExpr qualify; the compiler tracks them in
// the konst side table keyed by the closure it just built.
type foldInfo struct {
	ok  bool
	val Value
}

func (c *compiler) compileExprF(fc *fnCtx, e ast.Expr) (cexpr, foldInfo) {
	switch x := e.(type) {
	case *ast.Ident:
		// Keyword literals resolve before any scope lookup.
		switch x.Name {
		case "nil":
			return constExpr(nil), foldInfo{ok: true, val: nil}
		case "true":
			return constExpr(true), foldInfo{ok: true, val: true}
		case "false":
			return constExpr(false), foldInfo{ok: true, val: false}
		}
		return c.loadVar(fc, x.Name), foldInfo{}

	case *ast.BasicLit:
		v, err := evalLit(x)
		if err != nil {
			return func(it *Interp, fr *cframe) (Value, error) { return nil, err }, foldInfo{}
		}
		return constExpr(v), foldInfo{ok: true, val: v}

	case *ast.ParenExpr:
		return c.compileExprF(fc, x.X)

	case *ast.SelectorExpr:
		return c.compileSelector(fc, x), foldInfo{}

	case *ast.CallExpr:
		return c.compileCall(fc, x), foldInfo{}

	case *ast.BinaryExpr:
		return c.compileBinary(fc, x)

	case *ast.UnaryExpr:
		return c.compileUnary(fc, x)

	case *ast.IndexExpr:
		contx := c.compileExpr(fc, x.X)
		keyx := c.compileExpr(fc, x.Index)
		return func(it *Interp, fr *cframe) (Value, error) {
			container, err := contx(it, fr)
			if err != nil {
				return nil, err
			}
			key, err := keyx(it, fr)
			if err != nil {
				return nil, err
			}
			return indexValue(it, container, key)
		}, foldInfo{}

	case *ast.SliceExpr:
		return c.compileSlice(fc, x), foldInfo{}

	case *ast.CompositeLit:
		return c.compileComposite(fc, x), foldInfo{}

	case *ast.FuncLit:
		fn := c.compileFunc(fc, "<func>", x.Type, x.Body, "")
		return func(it *Interp, fr *cframe) (Value, error) {
			cl := &compiledClosure{fn: fn}
			if len(fn.caps) > 0 {
				caps := make([]*cell, len(fn.caps))
				for i, src := range fn.caps {
					if src.fromSlot >= 0 {
						caps[i] = fr.slots[src.fromSlot].(*cell)
					} else {
						caps[i] = fr.caps[src.fromCap]
					}
				}
				cl.caps = caps
			}
			return cl, nil
		}, foldInfo{}

	case *ast.StarExpr:
		return c.compileExprF(fc, x.X)

	case *ast.TypeAssertExpr:
		return c.compileExprF(fc, x.X)

	default:
		return errExpr("interp: unsupported expression %T", e), foldInfo{}
	}
}

func (c *compiler) compileExpr(fc *fnCtx, e ast.Expr) cexpr {
	x, _ := c.compileExprF(fc, e)
	return x
}

func (c *compiler) compileSelector(fc *fnCtx, x *ast.SelectorExpr) cexpr {
	basex := c.compileExpr(fc, x.X)
	name := x.Sel.Name
	return func(it *Interp, fr *cframe) (Value, error) {
		base, err := basex(it, fr)
		if err != nil {
			return nil, err
		}
		return it.attrValue(base, name)
	}
}

// attrValue implements selector reads. A method read yields a closure
// bound to its receiver.
func (it *Interp) attrValue(base Value, name string) (Value, error) {
	v, mfn, err := it.lookupAttr(base, name)
	if mfn != nil {
		return &compiledClosure{fn: mfn, recv: base}, nil
	}
	return v, err
}

// lookupAttr resolves base.name. A method of an object comes back
// unbound — mfn set, the receiver being base itself — so that a call
// site invoking it immediately need not allocate the bound closure.
func (it *Interp) lookupAttr(base Value, name string) (v Value, mfn *compiledFunc, err error) {
	switch b := base.(type) {
	case *Module:
		v, ok := b.Member[name]
		if !ok {
			return nil, nil, it.throw("AttributeError", "module '"+b.Name+"' has no attribute '"+name+"'")
		}
		return v, nil, nil
	case *Object:
		if i := b.shape.slot(name); i >= 0 {
			return b.slots[i], nil, nil
		}
		if it.prog != nil {
			if mfn, ok := it.prog.methods[b.shape.typeName][name]; ok {
				return nil, mfn, nil
			}
		}
		return nil, nil, it.throw("AttributeError", "'"+b.shape.typeName+"' object has no attribute '"+name+"'")
	case *Exc:
		switch name {
		case "Type":
			return b.Type, nil, nil
		case "Msg":
			return b.Msg, nil, nil
		}
		return nil, nil, it.throw("AttributeError", "exception has no attribute '"+name+"'")
	case nil:
		return nil, nil, it.throw("AttributeError", "nil object has no attribute '"+name+"'")
	default:
		return nil, nil, it.throw("AttributeError", "'"+TypeName(base)+"' object has no attribute '"+name+"'")
	}
}

func (c *compiler) compileCall(fc *fnCtx, x *ast.CallExpr) cexpr {
	// Language-level special forms, matched syntactically by identifier
	// name exactly like the tree-walk (even when shadowed).
	if id, ok := x.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "panic":
			if len(x.Args) != 1 {
				return errExpr("interp: panic takes one argument")
			}
			argx := c.compileExpr(fc, x.Args[0])
			return func(it *Interp, fr *cframe) (Value, error) {
				v, err := argx(it, fr)
				if err != nil {
					return nil, err
				}
				return nil, &PanicError{Val: v, Stack: it.stackNames()}
			}
		case "recover":
			// Arguments are not evaluated (tree-walk parity).
			return func(it *Interp, fr *cframe) (Value, error) {
				return it.evalRecover(), nil
			}
		case "make":
			if len(x.Args) == 0 {
				return errExpr("interp: make requires a type argument")
			}
			switch x.Args[0].(type) {
			case *ast.MapType:
				return func(it *Interp, fr *cframe) (Value, error) { return NewMap(), nil }
			case *ast.ArrayType:
				return func(it *Interp, fr *cframe) (Value, error) { return NewList(), nil }
			default:
				return errExpr("interp: unsupported make() type")
			}
		case "new":
			if len(x.Args) == 1 {
				if tid, ok := x.Args[0].(*ast.Ident); ok {
					sh := c.syms.rootShape(tid.Name)
					return func(it *Interp, fr *cframe) (Value, error) {
						return sh.alloc(), nil
					}
				}
			}
			return errExpr("interp: unsupported new() form")
		}
	}
	argxs := make([]cexpr, len(x.Args))
	for i, a := range x.Args {
		argxs[i] = c.compileExpr(fc, a)
	}
	// Arguments are evaluated onto the interpreter's argument stack and
	// popped when the call returns. The callee gets that window: a
	// compiled function binds it into its frame, a host function reads
	// it, and neither may keep the slice.
	evalArgs := func(it *Interp, fr *cframe) (int, error) {
		base := len(it.argStack)
		for _, ax := range argxs {
			v, err := ax(it, fr)
			if err != nil {
				it.popArgs(base)
				return 0, err
			}
			it.argStack = append(it.argStack, v)
		}
		return base, nil
	}
	if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
		// obj.method(args): the method runs straight off its receiver,
		// without materialising the bound closure a selector read yields.
		// Evaluation order is unchanged: callee lookup, arguments, call.
		basex := c.compileExpr(fc, sel.X)
		name := sel.Sel.Name
		return func(it *Interp, fr *cframe) (Value, error) {
			base, err := basex(it, fr)
			if err != nil {
				return nil, err
			}
			fn, mfn, err := it.lookupAttr(base, name)
			if err != nil {
				return nil, err
			}
			sp, err := evalArgs(it, fr)
			if err != nil {
				return nil, err
			}
			var v Value
			if mfn != nil {
				v, err = it.callMethod(mfn, base, it.argStack[sp:])
			} else {
				v, err = it.call(fn, it.argStack[sp:])
			}
			it.popArgs(sp)
			return v, err
		}
	}
	fnx := c.compileExpr(fc, x.Fun)
	return func(it *Interp, fr *cframe) (Value, error) {
		fn, err := fnx(it, fr)
		if err != nil {
			return nil, err
		}
		sp, err := evalArgs(it, fr)
		if err != nil {
			return nil, err
		}
		v, err := it.call(fn, it.argStack[sp:])
		it.popArgs(sp)
		return v, err
	}
}

func (c *compiler) compileBinary(fc *fnCtx, x *ast.BinaryExpr) (cexpr, foldInfo) {
	lx, lf := c.compileExprF(fc, x.X)
	switch x.Op {
	case token.LAND:
		if lf.ok && !Truthy(lf.val) {
			return constExpr(false), foldInfo{ok: true, val: false}
		}
		rx, rf := c.compileExprF(fc, x.Y)
		if lf.ok && rf.ok {
			v := Truthy(rf.val)
			return constExpr(v), foldInfo{ok: true, val: v}
		}
		return func(it *Interp, fr *cframe) (Value, error) {
			l, err := lx(it, fr)
			if err != nil {
				return nil, err
			}
			if !Truthy(l) {
				return false, nil
			}
			r, err := rx(it, fr)
			if err != nil {
				return nil, err
			}
			return Truthy(r), nil
		}, foldInfo{}
	case token.LOR:
		if lf.ok && Truthy(lf.val) {
			return constExpr(true), foldInfo{ok: true, val: true}
		}
		rx, rf := c.compileExprF(fc, x.Y)
		if lf.ok && rf.ok {
			v := Truthy(rf.val)
			return constExpr(v), foldInfo{ok: true, val: v}
		}
		return func(it *Interp, fr *cframe) (Value, error) {
			l, err := lx(it, fr)
			if err != nil {
				return nil, err
			}
			if Truthy(l) {
				return true, nil
			}
			r, err := rx(it, fr)
			if err != nil {
				return nil, err
			}
			return Truthy(r), nil
		}, foldInfo{}
	}
	rx, rf := c.compileExprF(fc, x.Y)
	if lf.ok && rf.ok {
		// Fold only when the operation succeeds; failing operations keep
		// their run-time error (with the proper interpreter stack).
		if v, err := (&Interp{}).binop(x.Op, lf.val, rf.val); err == nil {
			return constExpr(v), foldInfo{ok: true, val: v}
		}
	}
	op := x.Op
	return func(it *Interp, fr *cframe) (Value, error) {
		l, err := lx(it, fr)
		if err != nil {
			return nil, err
		}
		r, err := rx(it, fr)
		if err != nil {
			return nil, err
		}
		// Fast path for the dominant int/int case; every operator with an
		// error branch (division, shifts, mixed types) falls through to
		// the shared binop, so semantics are byte-identical.
		if a, ok := l.(int64); ok {
			if b, ok := r.(int64); ok {
				switch op {
				case token.ADD:
					return a + b, nil
				case token.SUB:
					return a - b, nil
				case token.MUL:
					return a * b, nil
				case token.LSS:
					return a < b, nil
				case token.LEQ:
					return a <= b, nil
				case token.GTR:
					return a > b, nil
				case token.GEQ:
					return a >= b, nil
				case token.EQL:
					return a == b, nil
				case token.NEQ:
					return a != b, nil
				}
			}
		}
		return it.binop(op, l, r)
	}, foldInfo{}
}

func (c *compiler) compileUnary(fc *fnCtx, x *ast.UnaryExpr) (cexpr, foldInfo) {
	vx, vf := c.compileExprF(fc, x.X)
	switch x.Op {
	case token.SUB:
		if vf.ok {
			switch n := vf.val.(type) {
			case int64:
				return constExpr(-n), foldInfo{ok: true, val: -n}
			case float64:
				return constExpr(-n), foldInfo{ok: true, val: -n}
			}
		}
		return func(it *Interp, fr *cframe) (Value, error) {
			v, err := vx(it, fr)
			if err != nil {
				return nil, err
			}
			switch n := v.(type) {
			case int64:
				return -n, nil
			case float64:
				return -n, nil
			}
			return nil, it.throw("TypeError", "bad operand type for unary -: '"+TypeName(v)+"'")
		}, foldInfo{}
	case token.ADD:
		return vx, vf
	case token.NOT:
		if vf.ok {
			v := !Truthy(vf.val)
			return constExpr(v), foldInfo{ok: true, val: v}
		}
		return func(it *Interp, fr *cframe) (Value, error) {
			v, err := vx(it, fr)
			if err != nil {
				return nil, err
			}
			return !Truthy(v), nil
		}, foldInfo{}
	case token.AND:
		// &expr — minigo objects are reference values already.
		return vx, vf
	default:
		// The operand is evaluated (and may fail) first, like the tree-walk.
		err := fmt.Errorf("interp: unsupported unary operator %s", x.Op)
		return func(it *Interp, fr *cframe) (Value, error) {
			if _, verr := vx(it, fr); verr != nil {
				return nil, verr
			}
			return nil, err
		}, foldInfo{}
	}
}

// indexValue implements subscript reads for both execution paths.
func indexValue(it *Interp, container, key Value) (Value, error) {
	switch cv := container.(type) {
	case *List:
		i, ok := key.(int64)
		if !ok {
			return nil, it.throw("TypeError", "list index must be int, not "+TypeName(key))
		}
		if i < 0 || int(i) >= len(cv.Elems) {
			return nil, it.throw("IndexError", "list index out of range")
		}
		return cv.Elems[i], nil
	case *Map:
		v, _ := cv.Get(key)
		return v, nil
	case string:
		i, ok := key.(int64)
		if !ok {
			return nil, it.throw("TypeError", "string index must be int, not "+TypeName(key))
		}
		if i < 0 || int(i) >= len(cv) {
			return nil, it.throw("IndexError", "string index out of range")
		}
		return string(cv[i]), nil
	case nil:
		return nil, it.throw("TypeError", "nil object is not subscriptable")
	default:
		return nil, it.throw("TypeError", TypeName(container)+" object is not subscriptable")
	}
}

func (c *compiler) compileSlice(fc *fnCtx, x *ast.SliceExpr) cexpr {
	contx := c.compileExpr(fc, x.X)
	var lox, hix cexpr
	if x.Low != nil {
		lox = c.compileExpr(fc, x.Low)
	}
	if x.High != nil {
		hix = c.compileExpr(fc, x.High)
	}
	return func(it *Interp, fr *cframe) (Value, error) {
		container, err := contx(it, fr)
		if err != nil {
			return nil, err
		}
		length := 0
		switch cv := container.(type) {
		case *List:
			length = len(cv.Elems)
		case string:
			length = len(cv)
		case nil:
			return nil, it.throw("TypeError", "nil object is not subscriptable")
		default:
			return nil, it.throw("TypeError", TypeName(container)+" object is not sliceable")
		}
		lo, hi := int64(0), int64(length)
		if lox != nil {
			v, err := lox(it, fr)
			if err != nil {
				return nil, err
			}
			n, ok := v.(int64)
			if !ok {
				return nil, it.throw("TypeError", "slice bound must be int")
			}
			lo = n
		}
		if hix != nil {
			v, err := hix(it, fr)
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
		switch cv := container.(type) {
		case *List:
			return NewList(append([]Value(nil), cv.Elems[lo:hi]...)...), nil
		case string:
			return cv[lo:hi], nil
		}
		return nil, nil
	}
}

func (c *compiler) compileComposite(fc *fnCtx, x *ast.CompositeLit) cexpr {
	switch t := x.Type.(type) {
	case *ast.Ident:
		// The literal's shape is known now: walk the type's transition
		// chain once at compile time, then every evaluation fills a slot
		// vector of that shape.
		sh := c.syms.rootShape(t.Name)
		type fieldInit struct {
			slot int
			val  cexpr
		}
		var fields []fieldInit
		for _, elt := range x.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				return errExpr("interp: struct literals require field: value elements")
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				return errExpr("interp: struct literal keys must be identifiers")
			}
			sh = sh.with(key.Name)
			fields = append(fields, fieldInit{slot: sh.slot(key.Name), val: c.compileExpr(fc, kv.Value)})
		}
		return func(it *Interp, fr *cframe) (Value, error) {
			obj := sh.alloc()
			for _, f := range fields {
				v, err := f.val(it, fr)
				if err != nil {
					return nil, err
				}
				obj.slots[f.slot] = v
			}
			return obj, nil
		}
	case *ast.MapType:
		type kvInit struct{ k, v cexpr }
		var pairs []kvInit
		for _, elt := range x.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				return errExpr("interp: map literals require key: value elements")
			}
			pairs = append(pairs, kvInit{k: c.compileExpr(fc, kv.Key), v: c.compileExpr(fc, kv.Value)})
		}
		return func(it *Interp, fr *cframe) (Value, error) {
			m := newMapCap(len(pairs))
			for _, p := range pairs {
				k, err := p.k(it, fr)
				if err != nil {
					return nil, err
				}
				if !hashable(k) {
					return nil, it.throw("TypeError", "unhashable map key type "+TypeName(k))
				}
				v, err := p.v(it, fr)
				if err != nil {
					return nil, err
				}
				m.Set(k, v)
			}
			return m, nil
		}
	case *ast.ArrayType:
		elts := make([]cexpr, len(x.Elts))
		for i, elt := range x.Elts {
			elts[i] = c.compileExpr(fc, elt)
		}
		return func(it *Interp, fr *cframe) (Value, error) {
			l := &List{Elems: make([]Value, 0, len(elts))}
			for _, ex := range elts {
				v, err := ex(it, fr)
				if err != nil {
					return nil, err
				}
				l.Elems = append(l.Elems, v)
			}
			return l, nil
		}
	default:
		return errExpr("interp: unsupported composite literal type %T", x.Type)
	}
}

// The bytecode dispatch loop (see bytecode.go for the IR and lowering).
// runCode executes a lowered function body against a register frame;
// callBytecode is the call-boundary twin of callCompiled — frame pools,
// recursion guard, capture cells, parameter binding, EnterCall/LeaveCall
// hook points and defer handling are identical, so the two engines are
// observably indistinguishable.
package interp

import "go/token"

// engine selects how compiled closures execute.
const (
	engineBytecode uint8 = iota // lowered instructions (default)
	engineClosure               // closure tree only
)

func engineOf(name string) uint8 {
	if name == "closure" {
		return engineClosure
	}
	return engineBytecode
}

// EngineName reports the engine a Config selects on the compiled path.
func (cfg Config) EngineName() string {
	if cfg.Engine == "closure" {
		return "closure"
	}
	return "bytecode"
}

// callBytecode executes a lowered function with defer/recover semantics
// identical to callCompiled, against a pooled register frame sized for
// locals plus temporaries.
func (it *Interp) callBytecode(fn *compiledFunc, caps []*cell, recv Value, args []Value) (result Value, err error) {
	if len(it.frames) > 200 {
		return nil, it.throw("RecursionError", "maximum call depth exceeded in "+fn.name)
	}
	fr := getFrame(fn.name)
	it.frames = append(it.frames, fr)
	cf := getCframeVM(fn.code.nframe, fn.nslots)
	cf.caps = caps

	for _, s := range fn.rootCells {
		cf.slots[s] = &cell{v: unbound}
	}
	if fn.recv != nil {
		bindSlot(cf, fn.recv, recv)
	}
	for i, p := range fn.params {
		var v Value
		if i < len(args) {
			v = args[i]
		}
		bindSlot(cf, p, v)
	}
	// Extra args beyond declared params are dropped (tree-walk parity).

	var cerr error
	if it.hook != nil {
		cerr = it.hook.EnterCall(it, fn.name)
	}
	if cerr == nil {
		result, cerr = it.runCode(fn.code, cf, 0)
	}
	err = it.runDefers(fr, cerr)
	if err == nil && it.hook != nil {
		result, err = it.hook.LeaveCall(it, fn.name, result)
	}
	it.frames = it.frames[:len(it.frames)-1]
	putCframe(cf)
	putFrame(fr)
	return result, err
}

// runCode is the dispatch loop. Falling off the end (or a break/continue
// resolved to the function end) returns nil, matching a closure body
// that completes without ctlReturn.
func (it *Interp) runCode(cd *code, fr *cframe, pc int) (Value, error) {
	ins := cd.ins
	n := len(ins)
	slots := fr.slots
	for pc < n {
		in := &ins[pc]
		switch in.op {
		case opStep:
			if err := it.step(); err != nil {
				return nil, err
			}

		case opConst:
			slots[in.a] = in.x

		case opLoadSlot:
			v := slots[in.b]
			if v == unbound {
				return nil, it.throw("UnboundLocalError",
					"local variable '"+in.x.(string)+"' referenced before assignment")
			}
			slots[in.a] = v

		case opStoreSlot:
			slots[in.b] = slots[in.a]

		case opLoadLocal:
			b := in.x.(*vbind)
			v := slots[b.slot]
			if b.cell {
				if cl, ok := v.(*cell); ok {
					v = cl.v
				}
			}
			if v == unbound {
				return nil, it.throw("UnboundLocalError",
					"local variable '"+b.name+"' referenced before assignment")
			}
			slots[in.a] = v

		case opStoreLocal:
			b := in.x.(*vbind)
			v := slots[in.a]
			if b.cell {
				if cl, ok := slots[b.slot].(*cell); ok {
					cl.v = v
				} else {
					slots[b.slot] = &cell{v: v}
				}
			} else {
				slots[b.slot] = v
			}

		case opStoreDecl:
			// Block-scoped declaration: a captured variable gets a fresh
			// cell every time the declaration executes.
			b := in.x.(*vbind)
			if b.cell {
				slots[b.slot] = &cell{v: slots[in.a]}
			} else {
				slots[b.slot] = slots[in.a]
			}

		case opLoadCap:
			v := fr.caps[in.b].v
			if v == unbound {
				return nil, it.throw("UnboundLocalError",
					"local variable '"+in.x.(string)+"' referenced before assignment")
			}
			slots[in.a] = v

		case opStoreCap:
			fr.caps[in.b].v = slots[in.a]

		case opLoadGlobal:
			v := it.gslots[in.b]
			if v == unbound {
				return nil, it.throw("UnboundLocalError",
					"local variable '"+in.x.(string)+"' referenced before assignment")
			}
			slots[in.a] = v

		case opStoreGlobal:
			it.gslots[in.b] = slots[in.a]

		case opAdd:
			l, r := slots[in.a], slots[in.b]
			if li, ok := l.(int64); ok {
				if ri, ok := r.(int64); ok {
					slots[in.c] = li + ri
					break
				}
			}
			v, err := it.binop(token.ADD, l, r)
			if err != nil {
				return nil, err
			}
			slots[in.c] = v

		case opSub:
			l, r := slots[in.a], slots[in.b]
			if li, ok := l.(int64); ok {
				if ri, ok := r.(int64); ok {
					slots[in.c] = li - ri
					break
				}
			}
			v, err := it.binop(token.SUB, l, r)
			if err != nil {
				return nil, err
			}
			slots[in.c] = v

		case opMul:
			l, r := slots[in.a], slots[in.b]
			if li, ok := l.(int64); ok {
				if ri, ok := r.(int64); ok {
					slots[in.c] = li * ri
					break
				}
			}
			v, err := it.binop(token.MUL, l, r)
			if err != nil {
				return nil, err
			}
			slots[in.c] = v

		case opLss, opLeq, opGtr, opGeq, opEql, opNeq:
			l, r := slots[in.a], slots[in.b]
			if li, ok := l.(int64); ok {
				if ri, ok := r.(int64); ok {
					var t bool
					switch in.op {
					case opLss:
						t = li < ri
					case opLeq:
						t = li <= ri
					case opGtr:
						t = li > ri
					case opGeq:
						t = li >= ri
					case opEql:
						t = li == ri
					default:
						t = li != ri
					}
					slots[in.c] = t
					break
				}
			}
			v, err := it.binop(cmpTok(in.op), l, r)
			if err != nil {
				return nil, err
			}
			slots[in.c] = v

		case opBinOther:
			v, err := it.binop(in.x.(token.Token), slots[in.a], slots[in.b])
			if err != nil {
				return nil, err
			}
			slots[in.c] = v

		case opNot:
			slots[in.b] = !Truthy(slots[in.a])

		case opNeg:
			switch v := slots[in.a].(type) {
			case int64:
				slots[in.b] = -v
			case float64:
				slots[in.b] = -v
			default:
				return nil, it.throw("TypeError",
					"bad operand type for unary -: '"+TypeName(slots[in.a])+"'")
			}

		case opTruthy:
			slots[in.b] = Truthy(slots[in.a])

		case opJmp:
			pc = int(in.c)
			continue

		case opJmpFalse:
			if !Truthy(slots[in.a]) {
				pc = int(in.c)
				continue
			}

		case opJmpTrue:
			if Truthy(slots[in.a]) {
				pc = int(in.c)
				continue
			}

		case opJmpCmpF:
			l, r := slots[in.a], slots[in.b]
			tok := in.x.(token.Token)
			var t bool
			if li, ok := l.(int64); ok {
				if ri, ok := r.(int64); ok {
					switch tok {
					case token.LSS:
						t = li < ri
					case token.LEQ:
						t = li <= ri
					case token.GTR:
						t = li > ri
					case token.GEQ:
						t = li >= ri
					case token.EQL:
						t = li == ri
					default:
						t = li != ri
					}
					if !t {
						pc = int(in.c)
						continue
					}
					pc++
					continue
				}
			}
			v, err := it.binop(tok, l, r)
			if err != nil {
				return nil, err
			}
			if !Truthy(v) {
				pc = int(in.c)
				continue
			}

		case opIncSlot:
			cur := slots[in.b]
			if cur == unbound {
				return nil, it.throw("UnboundLocalError",
					"local variable '"+in.x.(string)+"' referenced before assignment")
			}
			if ci, ok := cur.(int64); ok {
				slots[in.b] = ci + int64(in.a)
			} else {
				nv, err := it.binop(token.ADD, cur, int64(in.a))
				if err != nil {
					return nil, err
				}
				slots[in.b] = nv
			}

		case opArithC:
			l := slots[in.a]
			tok := token.Token(in.b)
			if li, ok := l.(int64); ok {
				if ri, ok := in.x.(int64); ok {
					switch tok {
					case token.ADD:
						slots[in.c] = li + ri
					case token.SUB:
						slots[in.c] = li - ri
					case token.MUL:
						slots[in.c] = li * ri
					case token.REM:
						if ri == 0 {
							return nil, it.throw("ZeroDivisionError", "integer modulo by zero")
						}
						slots[in.c] = li % ri
					case token.QUO:
						if ri == 0 {
							return nil, it.throw("ZeroDivisionError", "integer division by zero")
						}
						slots[in.c] = li / ri
					case token.LSS:
						slots[in.c] = li < ri
					case token.LEQ:
						slots[in.c] = li <= ri
					case token.GTR:
						slots[in.c] = li > ri
					case token.GEQ:
						slots[in.c] = li >= ri
					case token.EQL:
						slots[in.c] = li == ri
					case token.NEQ:
						slots[in.c] = li != ri
					default:
						v, err := it.binop(tok, l, in.x)
						if err != nil {
							return nil, err
						}
						slots[in.c] = v
					}
					pc++
					continue
				}
			}
			v, err := it.binop(tok, l, in.x)
			if err != nil {
				return nil, err
			}
			slots[in.c] = v

		case opJmpCmpCF:
			l := slots[in.a]
			if li, ok := l.(int64); ok {
				if ri, ok := in.x.(int64); ok {
					var t bool
					switch token.Token(in.b) {
					case token.LSS:
						t = li < ri
					case token.LEQ:
						t = li <= ri
					case token.GTR:
						t = li > ri
					case token.GEQ:
						t = li >= ri
					case token.EQL:
						t = li == ri
					default:
						t = li != ri
					}
					if !t {
						pc = int(in.c)
						continue
					}
					pc++
					continue
				}
			}
			v, err := it.binop(token.Token(in.b), l, in.x)
			if err != nil {
				return nil, err
			}
			if !Truthy(v) {
				pc = int(in.c)
				continue
			}

		case opIncLocal:
			b := in.x.(*vbind)
			cur := slots[b.slot]
			var cl *cell
			if b.cell {
				if cc, ok := cur.(*cell); ok {
					cl = cc
					cur = cc.v
				}
			}
			if cur == unbound {
				return nil, it.throw("UnboundLocalError",
					"local variable '"+b.name+"' referenced before assignment")
			}
			var nv Value
			if ci, ok := cur.(int64); ok {
				nv = ci + int64(in.a)
			} else {
				var err error
				nv, err = it.binop(token.ADD, cur, int64(in.a))
				if err != nil {
					return nil, err
				}
			}
			if cl != nil {
				cl.v = nv
			} else if b.cell {
				slots[b.slot] = &cell{v: nv}
			} else {
				slots[b.slot] = nv
			}

		case opCall:
			v, err := it.call(slots[in.a], slots[in.a+1:in.a+1+in.b])
			if err != nil {
				return nil, err
			}
			slots[in.c] = v

		case opAttrCallee:
			v, mfn, err := it.lookupAttr(slots[in.a], in.x.(string))
			if err != nil {
				return nil, err
			}
			if mfn != nil {
				slots[in.a+1] = slots[in.a]
				slots[in.a] = mfn
			} else {
				slots[in.a] = v
			}

		case opCallM:
			args := slots[in.a+2 : in.a+2+in.b]
			var v Value
			var err error
			if mfn, ok := slots[in.a].(*compiledFunc); ok {
				v, err = it.callMethod(mfn, slots[in.a+1], args)
			} else {
				v, err = it.call(slots[in.a], args)
			}
			if err != nil {
				return nil, err
			}
			slots[in.c] = v

		case opRet:
			if in.a < 0 {
				return nil, nil
			}
			return slots[in.a], nil

		case opRetTuple:
			vals := make([]Value, in.b)
			copy(vals, slots[in.a:in.a+in.b])
			return &Tuple{Elems: vals}, nil

		case opIndex:
			v, err := indexValue(it, slots[in.a], slots[in.b])
			if err != nil {
				return nil, err
			}
			slots[in.c] = v

		case opAttr:
			v, err := it.attrValue(slots[in.a], in.x.(string))
			if err != nil {
				return nil, err
			}
			slots[in.b] = v

		case opStmt:
			ctl, v, err := in.x.(cstmt)(it, fr)
			if err != nil {
				return nil, err
			}
			switch ctl {
			case ctlBreak:
				pc = int(in.a)
				continue
			case ctlContinue:
				pc = int(in.b)
				continue
			case ctlReturn:
				return v, nil
			}

		case opExpr:
			v, err := in.x.(cexpr)(it, fr)
			if err != nil {
				return nil, err
			}
			slots[in.a] = v

		case opAssign:
			if err := in.x.(cassign)(it, fr, slots[in.a]); err != nil {
				return nil, err
			}

		case opPanic:
			return nil, &PanicError{Val: slots[in.a], Stack: it.stackNames()}

		case opRecover:
			slots[in.a] = it.evalRecover()

		case opMakeMap:
			slots[in.a] = NewMap()

		case opMakeList:
			slots[in.a] = NewList()

		case opNewObj:
			slots[in.a] = in.x.(*Shape).alloc()

		case opMakeClosure:
			fn := in.x.(*compiledFunc)
			cl := &compiledClosure{fn: fn}
			if len(fn.caps) > 0 {
				caps := make([]*cell, len(fn.caps))
				for i, src := range fn.caps {
					if src.fromSlot >= 0 {
						caps[i] = slots[src.fromSlot].(*cell)
					} else {
						caps[i] = fr.caps[src.fromCap]
					}
				}
				cl.caps = caps
			}
			slots[in.a] = cl

		case opUnwrap1:
			if t, ok := slots[in.a].(*Tuple); ok && len(t.Elems) > 0 {
				slots[in.a] = t.Elems[0]
			}

		case opRangeInit:
			coll := slots[in.a]
			switch cv := coll.(type) {
			case *List:
				// Snapshot the elements up front (mutation during
				// iteration is invisible, like the closure path).
				slots[in.b] = &rangeList{elems: append([]Value(nil), cv.Elems...)}
			case *Map:
				keys, vals := cv.pairs()
				slots[in.b] = &rangePairs{keys: keys, vals: vals}
			case string, int64:
				slots[in.b] = cv
			case nil:
				return nil, it.throw("TypeError", "nil object is not iterable")
			default:
				return nil, it.throw("TypeError", TypeName(coll)+" object is not iterable")
			}
			slots[in.b+1] = int64(0)

		case opRangeNext:
			i := slots[in.a+1].(int64)
			switch d := slots[in.a].(type) {
			case *rangeList:
				if int(i) >= len(d.elems) {
					pc = int(in.c)
					continue
				}
				slots[in.b] = i
				slots[in.b+1] = d.elems[i]
			case *rangePairs:
				if int(i) >= len(d.keys) {
					pc = int(in.c)
					continue
				}
				slots[in.b] = d.keys[i]
				slots[in.b+1] = d.vals[i]
			case string:
				if int(i) >= len(d) {
					pc = int(in.c)
					continue
				}
				slots[in.b] = i
				slots[in.b+1] = string(d[i])
			case int64:
				if i >= d {
					pc = int(in.c)
					continue
				}
				slots[in.b] = i
				slots[in.b+1] = nil
			}
			slots[in.a+1] = i + 1
		}
		pc++
	}
	return nil, nil
}

func cmpTok(op uint8) token.Token {
	switch op {
	case opLss:
		return token.LSS
	case opLeq:
		return token.LEQ
	case opGtr:
		return token.GTR
	case opGeq:
		return token.GEQ
	case opEql:
		return token.EQL
	default:
		return token.NEQ
	}
}

// attrValue implements selector reads on both compiled engines. A
// method read yields a closure bound to its receiver.
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

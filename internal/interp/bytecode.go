// Register-bytecode lowering of the compiled path. Alongside the
// closure tree (compile.go), every function is also lowered to a flat
// instruction array over a contiguous register frame: locals keep their
// compile.go slot numbers, expression temporaries live above them, and
// structured control flow (if/for/range/break/continue) becomes
// jump-target branches instead of closure recursion. The dispatch loop
// lives in vm.go.
//
// Lowering is fused into the closure compile: the same single AST walk
// that builds cstmt/cexpr closures also emits instructions, so slot
// resolution, capture analysis and constant folding are shared — the
// two artifacts can never disagree about where a variable lives or
// which subexpressions fold. Constructs the lowerer does not translate
// natively escape into the closure artifact at the finest possible
// granularity:
//
//   - statement escapes (opStmt) wrap the statement's compiled closure
//     and translate its control result into jumps (switch, defer, go,
//     labeled statements, parallel assignment);
//   - expression escapes (opExpr) evaluate one compiled subexpression
//     into a register (slices, composite literals, rare forms).
//
// Escaped code runs against the same frame as native instructions —
// registers below nslots are exactly the closure path's slots — so the
// mix is seamless and observable semantics (step counts, virtual clock,
// exception values, hook firing points) stay byte-identical with both
// the closure path and the tree-walk.
package interp

import (
	"go/ast"
	"go/token"
)

// Opcodes. Operand conventions are documented per op; a/b/c hold
// register indices, small immediates or jump targets, x holds the
// resolved operand that does not fit an int32 (bindings, names,
// escaped closures).
const (
	opStep        = iota // charge one interpreter step
	opConst              // a=dst, b=const pool index
	opLoadLocal          // a=dst, x=*vbind (cell-aware, unbound check)
	opStoreLocal         // a=src, x=*vbind (cell-aware)
	opStoreDecl          // a=src, x=*vbind (block decl: fresh cell per execution)
	opLoadCap            // a=dst, b=capture index, x=name
	opStoreCap           // a=src, b=capture index
	opLoadGlobal         // a=dst, b=global slot, x=name
	opStoreGlobal        // a=src, b=global slot
	opAdd                // a=l, b=r, c=dst — int fast path, else binop
	opSub                //
	opMul                //
	opLss                //
	opLeq                //
	opGtr                //
	opGeq                //
	opEql                //
	opNeq                //
	opBinOther           // a=l, b=r, c=dst, x=token.Token — no fast path
	opNot                // a=src, b=dst — !Truthy
	opNeg                // a=src, b=dst — unary minus
	opTruthy             // a=src, b=dst — Truthy coercion (&&/|| results)
	opJmp                // c=target
	opJmpFalse           // a=cond, c=target — jump when !Truthy
	opJmpTrue            // a=cond, c=target — jump when Truthy
	opJmpCmpF            // a=l, b=r, c=target, x=token — fused compare, jump when false
	opIncLocal           // a=delta, x=*vbind — i++/i-- on a local
	opCall               // a=fn reg (args at a+1..a+b), b=nargs, c=dst
	opAttrCallee         // a=base reg, x=name — callee of base.name(...): a=value, or a=method a+1=receiver
	opCallM              // a=callee reg (receiver a+1, args at a+2..), b=nargs, c=dst
	opRet                // a=result reg, or <0 for nil return
	opRetTuple           // a=first reg, b=count — multi-value return
	opIndex              // a=container, b=key, c=dst
	opAttr               // a=base, b=dst, x=name — selector read
	opStmt               // x=cstmt escape; a=break target, b=continue target
	opExpr               // a=dst, x=cexpr escape
	opAssign             // a=src, x=cassign escape (lvalue store)
	opPanic              // a=val — raise *PanicError (no step: expression form)
	opRecover            // a=dst
	opMakeMap            // a=dst
	opMakeList           // a=dst
	opNewObj             // a=dst, x=*Shape (the type's field-less root shape)
	opMakeClosure        // a=dst, x=*compiledFunc — build closure + captures
	opUnwrap1            // a=reg — single-target assign keeps Tuple's first elem
	opRangeInit          // a=collection reg, b=state base (data, index)
	opRangeNext          // a=state base, b=kv base (key, value), c=exhausted target

	// Specialized forms, rewritten in finish() / emitted by the
	// const-operand lowerings. They change dispatch cost only, never
	// semantics.
	opLoadSlot  // a=dst, b=slot, x=name — non-cell local load
	opStoreSlot // a=src, b=slot — non-cell local store
	opIncSlot   // a=delta, b=slot, x=name — i++/i-- on a non-cell local
	opArithC    // a=l, b=token.Token, c=dst, x=const rhs — binary op with folded RHS
	opJmpCmpCF  // a=l, b=token.Token, c=target, x=const rhs — fused compare, jump when false
	nOpcodes
)

// regFields marks which of a/b/c hold register indices per opcode, for
// the temp-relocation pass in finish (bit0=a, bit1=b, bit2=c).
var regFields = [nOpcodes]uint8{
	opConst: 1, opLoadLocal: 1, opStoreLocal: 1, opStoreDecl: 1,
	opLoadCap: 1, opStoreCap: 1, opLoadGlobal: 1, opStoreGlobal: 1,
	opAdd: 7, opSub: 7, opMul: 7, opLss: 7, opLeq: 7, opGtr: 7,
	opGeq: 7, opEql: 7, opNeq: 7, opBinOther: 7,
	opNot: 3, opNeg: 3, opTruthy: 3,
	opJmpFalse: 1, opJmpTrue: 1, opJmpCmpF: 3,
	opCall: 5, opAttrCallee: 1, opCallM: 5, opRet: 1, opRetTuple: 1,
	opIndex: 7, opAttr: 3, opExpr: 1, opAssign: 1,
	opPanic: 1, opRecover: 1, opMakeMap: 1, opMakeList: 1, opNewObj: 1,
	opMakeClosure: 1, opUnwrap1: 1, opRangeInit: 3, opRangeNext: 3,
	opLoadSlot: 1, opStoreSlot: 1, opArithC: 5, opJmpCmpCF: 1,
}

// instr is one VM instruction (32 bytes: hot operands inline, cold or
// wide operands behind x).
type instr struct {
	op      uint8
	a, b, c int32
	x       any
}

// code is the lowered form of one function body.
type code struct {
	ins []instr
	// nframe is the register frame size: nslots locals + the peak
	// temporary watermark.
	nframe int
	// stmtPC maps top-level body statement index -> first instruction,
	// letting Fork resume a snapshot at a statement boundary.
	stmtPC []int
	// escapes counts opStmt instructions (statements running through
	// the closure artifact); exprEscapes counts opExpr.
	escapes     int
	exprEscapes int
}

// tempBase offsets temporary registers during emission; finish
// relocates them above the function's final slot count (which grows
// while the body compiles, so temps cannot be placed eagerly).
const tempBase = 1 << 20

// patchRef is a deferred operand fix-up (field 'a', 'b' or 'c' of the
// instruction at pc).
type patchRef struct {
	pc    int
	field uint8
}

type asmLoop struct {
	breaks []patchRef
	conts  []patchRef
}

// assembler accumulates instructions for one function. All methods are
// nil-receiver safe: a nil assembler (lowering disabled while compiling
// an escaped statement's closure) turns emission into a no-op.
type assembler struct {
	ins    []instr
	ntmp   int
	maxTmp int
	loops  []asmLoop
	stmtPC []int
}

func newAssembler() *assembler {
	return &assembler{}
}

func (A *assembler) pc() int {
	if A == nil {
		return 0
	}
	return len(A.ins)
}

func (A *assembler) emit(op uint8, a, b, c int, x any) int {
	if A == nil {
		return 0
	}
	A.ins = append(A.ins, instr{op: op, a: int32(a), b: int32(b), c: int32(c), x: x})
	return len(A.ins) - 1
}

func (A *assembler) step() { A.emit(opStep, 0, 0, 0, nil) }

// markStmt records the next instruction as the start of a top-level
// body statement (the Fork resume points).
func (A *assembler) markStmt() {
	if A != nil {
		A.stmtPC = append(A.stmtPC, len(A.ins))
	}
}

// tmp allocates the next temporary register (stack discipline: callers
// snapshot the watermark with tmpMark and restore it with rel).
func (A *assembler) tmp() int {
	if A == nil {
		return 0
	}
	t := tempBase + A.ntmp
	A.ntmp++
	if A.ntmp > A.maxTmp {
		A.maxTmp = A.ntmp
	}
	return t
}

func (A *assembler) tmpMark() int {
	if A == nil {
		return 0
	}
	return A.ntmp
}

func (A *assembler) rel(mark int) {
	if A != nil {
		A.ntmp = mark
	}
}

// constOp emits dst = v with the value carried in the instruction
// itself (folded values are small scalars; no pool indirection).
func (A *assembler) constOp(dst int, v Value) {
	A.emit(opConst, dst, 0, 0, v)
}

// jump emits a branch with an unresolved target; patch resolves it to
// the current pc.
func (A *assembler) jump(op uint8, a, b int, x any) int {
	return A.emit(op, a, b, -1, x)
}

func (A *assembler) patch(pc int) {
	if A != nil && pc >= 0 {
		A.ins[pc].c = int32(len(A.ins))
	}
}

func (A *assembler) pushLoop() {
	if A != nil {
		A.loops = append(A.loops, asmLoop{})
	}
}

// popLoop resolves every break/continue recorded inside the loop.
func (A *assembler) popLoop(breakPC, contPC int) {
	if A == nil {
		return
	}
	l := A.loops[len(A.loops)-1]
	A.loops = A.loops[:len(A.loops)-1]
	for _, p := range l.breaks {
		A.setField(p, breakPC)
	}
	for _, p := range l.conts {
		A.setField(p, contPC)
	}
}

func (A *assembler) setField(p patchRef, v int) {
	switch p.field {
	case 'a':
		A.ins[p.pc].a = int32(v)
	case 'b':
		A.ins[p.pc].b = int32(v)
	default:
		A.ins[p.pc].c = int32(v)
	}
}

// breakJump / contJump register a pending branch with the innermost
// loop; outside any loop the target stays -1 and finish resolves it to
// the function end (a break/continue escaping the function returns nil,
// exactly like a ctlBreak reaching callCompiled).
func (A *assembler) breakJump(pc int, field uint8) {
	if A == nil {
		return
	}
	if n := len(A.loops); n > 0 {
		A.loops[n-1].breaks = append(A.loops[n-1].breaks, patchRef{pc, field})
	}
}

func (A *assembler) contJump(pc int, field uint8) {
	if A == nil {
		return
	}
	if n := len(A.loops); n > 0 {
		A.loops[n-1].conts = append(A.loops[n-1].conts, patchRef{pc, field})
	}
}

// escape emits a statement escape: the closure runs as-is and its
// control result is translated into jumps.
func (A *assembler) escape(cs cstmt) {
	if A == nil {
		return
	}
	pc := A.emit(opStmt, -1, -1, 0, cs)
	A.breakJump(pc, 'a')
	A.contJump(pc, 'b')
}

func (A *assembler) exprEscape(x cexpr, dst int) {
	A.emit(opExpr, dst, 0, 0, x)
}

// finish relocates temporaries above the final slot count, resolves
// function-end jump targets and seals the code object.
func (A *assembler) finish(nslots int) *code {
	if A == nil {
		return nil
	}
	end := len(A.ins)
	cd := &code{ins: A.ins, nframe: nslots + A.maxTmp, stmtPC: A.stmtPC}
	for i := range A.ins {
		in := &A.ins[i]
		if m := regFields[in.op]; m != 0 {
			if m&1 != 0 && in.a >= tempBase {
				in.a = int32(nslots) + in.a - tempBase
			}
			if m&2 != 0 && in.b >= tempBase {
				in.b = int32(nslots) + in.b - tempBase
			}
			if m&4 != 0 && in.c >= tempBase {
				in.c = int32(nslots) + in.c - tempBase
			}
		}
		switch in.op {
		case opJmp, opJmpFalse, opJmpTrue, opJmpCmpF, opJmpCmpCF, opRangeNext:
			if in.c < 0 {
				in.c = int32(end)
			}
		// Capture analysis is complete once the whole body (nested
		// literals included) has compiled, so cell flags are final here:
		// accesses to never-captured locals rewrite into direct slot
		// forms that skip the cell and binding indirection.
		case opLoadLocal:
			if b := in.x.(*vbind); !b.cell {
				in.op, in.b, in.x = opLoadSlot, int32(b.slot), b.name
			}
		case opStoreLocal:
			if b := in.x.(*vbind); !b.cell {
				in.op, in.b, in.x = opStoreSlot, int32(b.slot), nil
			}
		case opIncLocal:
			if b := in.x.(*vbind); !b.cell {
				in.op, in.b, in.x = opIncSlot, int32(b.slot), b.name
			}
		case opStmt:
			cd.escapes++
			if in.a < 0 {
				in.a = int32(end)
			}
			if in.b < 0 {
				in.b = int32(end)
			}
		case opExpr:
			cd.exprEscapes++
		}
	}
	return cd
}

// rangeList / rangePairs hold materialized iteration state in a
// register; they never escape the frame's temp slots.
type rangeList struct{ elems []Value }
type rangePairs struct{ keys, vals []Value }

// ---------------------------------------------------------------------------
// Fold mirror

// foldOf reproduces compileExprF's constant-folding decisions without
// building closures, so the lowered code folds exactly the same
// subexpressions (this matters for semantics, not just speed: a folded
// `false && f()` must never evaluate f on either engine).
func (c *compiler) foldOf(e ast.Expr) (Value, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		switch x.Name {
		case "nil":
			return nil, true
		case "true":
			return true, true
		case "false":
			return false, true
		}
	case *ast.BasicLit:
		if v, err := evalLit(x); err == nil {
			return v, true
		}
	case *ast.ParenExpr:
		return c.foldOf(x.X)
	case *ast.StarExpr:
		return c.foldOf(x.X)
	case *ast.TypeAssertExpr:
		return c.foldOf(x.X)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.SUB:
			if v, ok := c.foldOf(x.X); ok {
				switch n := v.(type) {
				case int64:
					return -n, true
				case float64:
					return -n, true
				}
			}
		case token.ADD, token.AND:
			return c.foldOf(x.X)
		case token.NOT:
			if v, ok := c.foldOf(x.X); ok {
				return !Truthy(v), true
			}
		}
	case *ast.BinaryExpr:
		lv, lok := c.foldOf(x.X)
		switch x.Op {
		case token.LAND:
			if lok && !Truthy(lv) {
				return false, true
			}
			if rv, rok := c.foldOf(x.Y); lok && rok {
				return Truthy(rv), true
			}
			return nil, false
		case token.LOR:
			if lok && Truthy(lv) {
				return true, true
			}
			if rv, rok := c.foldOf(x.Y); lok && rok {
				return Truthy(rv), true
			}
			return nil, false
		}
		if rv, rok := c.foldOf(x.Y); lok && rok {
			if v, err := (&Interp{}).binop(x.Op, lv, rv); err == nil {
				return v, true
			}
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Expression lowering

// arithOps maps the int-fast-path operator set to specialized opcodes;
// every other operator goes through opBinOther (plain binop), matching
// compileBinary's fast-path coverage exactly.
var arithOps = map[token.Token]uint8{
	token.ADD: opAdd, token.SUB: opSub, token.MUL: opMul,
	token.LSS: opLss, token.LEQ: opLeq, token.GTR: opGtr,
	token.GEQ: opGeq, token.EQL: opEql, token.NEQ: opNeq,
}

func isCmpTok(t token.Token) bool {
	switch t {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// lowerExpr emits instructions computing e into register dst. It never
// fails: any form without a native translation evaluates through an
// opExpr escape (recompiling a subexpression closure is safe — slot
// resolution is idempotent and function literals are memoized).
func (c *compiler) lowerExpr(fc *fnCtx, e ast.Expr, dst int) {
	A := fc.asm
	if A == nil {
		return
	}
	if v, ok := c.foldOf(e); ok {
		A.constOp(dst, v)
		return
	}
	switch x := e.(type) {
	case *ast.Ident:
		acc := c.resolve(fc, x.Name)
		switch acc.kind {
		case accLocal:
			A.emit(opLoadLocal, dst, 0, 0, acc.b)
		case accCap:
			A.emit(opLoadCap, dst, acc.cap, 0, x.Name)
		default:
			A.emit(opLoadGlobal, dst, acc.gidx, 0, x.Name)
		}

	case *ast.ParenExpr:
		c.lowerExpr(fc, x.X, dst)
	case *ast.StarExpr:
		c.lowerExpr(fc, x.X, dst)
	case *ast.TypeAssertExpr:
		c.lowerExpr(fc, x.X, dst)

	case *ast.SelectorExpr:
		tm := A.tmpMark()
		t := A.tmp()
		c.lowerExpr(fc, x.X, t)
		A.emit(opAttr, t, dst, 0, x.Sel.Name)
		A.rel(tm)

	case *ast.IndexExpr:
		tm := A.tmpMark()
		t1, t2 := A.tmp(), A.tmp()
		c.lowerExpr(fc, x.X, t1)
		c.lowerExpr(fc, x.Index, t2)
		A.emit(opIndex, t1, t2, dst, nil)
		A.rel(tm)

	case *ast.BinaryExpr:
		c.lowerBinary(fc, x, dst)

	case *ast.UnaryExpr:
		switch x.Op {
		case token.SUB:
			tm := A.tmpMark()
			t := A.tmp()
			c.lowerExpr(fc, x.X, t)
			A.emit(opNeg, t, dst, 0, nil)
			A.rel(tm)
		case token.NOT:
			tm := A.tmpMark()
			t := A.tmp()
			c.lowerExpr(fc, x.X, t)
			A.emit(opNot, t, dst, 0, nil)
			A.rel(tm)
		case token.ADD, token.AND:
			c.lowerExpr(fc, x.X, dst)
		default:
			A.exprEscape(c.compileExpr(fc, e), dst)
		}

	case *ast.CallExpr:
		c.lowerCall(fc, x, dst)

	case *ast.FuncLit:
		fn := c.litFns[x]
		if fn == nil {
			fn = c.compileFunc(fc, "<func>", x.Type, x.Body, "")
			if c.litFns == nil {
				c.litFns = make(map[*ast.FuncLit]*compiledFunc)
			}
			c.litFns[x] = fn
		}
		A.emit(opMakeClosure, dst, 0, 0, fn)

	default:
		// Slices, composite literals and anything else run through the
		// compiled closure for that one subexpression.
		A.exprEscape(c.compileExpr(fc, e), dst)
	}
}

func (c *compiler) lowerBinary(fc *fnCtx, x *ast.BinaryExpr, dst int) {
	A := fc.asm
	switch x.Op {
	case token.LAND:
		// dst = X; if !Truthy(dst) -> dst=false; else dst = Truthy(Y)
		c.lowerExpr(fc, x.X, dst)
		jf := A.jump(opJmpFalse, dst, 0, nil)
		c.lowerExpr(fc, x.Y, dst)
		A.emit(opTruthy, dst, dst, 0, nil)
		jend := A.jump(opJmp, 0, 0, nil)
		A.patch(jf)
		A.constOp(dst, false)
		A.patch(jend)
		return
	case token.LOR:
		c.lowerExpr(fc, x.X, dst)
		jt := A.jump(opJmpTrue, dst, 0, nil)
		c.lowerExpr(fc, x.Y, dst)
		A.emit(opTruthy, dst, dst, 0, nil)
		jend := A.jump(opJmp, 0, 0, nil)
		A.patch(jt)
		A.constOp(dst, true)
		A.patch(jend)
		return
	}
	// A foldable right operand fuses into the instruction (x + 1,
	// i % 2): one dispatch instead of const-load plus generic op. Only
	// the RHS fuses — swapping operands would flip the operand order in
	// binop's TypeError message.
	if rv, rok := c.foldOf(x.Y); rok {
		tm := A.tmpMark()
		t1 := A.tmp()
		c.lowerExpr(fc, x.X, t1)
		A.emit(opArithC, t1, int(x.Op), dst, rv)
		A.rel(tm)
		return
	}
	tm := A.tmpMark()
	t1, t2 := A.tmp(), A.tmp()
	c.lowerExpr(fc, x.X, t1)
	c.lowerExpr(fc, x.Y, t2)
	if op, ok := arithOps[x.Op]; ok {
		A.emit(op, t1, t2, dst, nil)
	} else {
		A.emit(opBinOther, t1, t2, dst, x.Op)
	}
	A.rel(tm)
}

// lowerCall emits a call, handling the language-level special forms the
// closure compiler matches syntactically by identifier name.
func (c *compiler) lowerCall(fc *fnCtx, x *ast.CallExpr, dst int) {
	A := fc.asm
	if id, ok := x.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "panic":
			if len(x.Args) != 1 {
				A.exprEscape(c.compileExpr(fc, x), dst)
				return
			}
			tm := A.tmpMark()
			t := A.tmp()
			c.lowerExpr(fc, x.Args[0], t)
			A.emit(opPanic, t, 0, 0, nil)
			A.rel(tm)
			return
		case "recover":
			A.emit(opRecover, dst, 0, 0, nil)
			return
		case "make":
			if len(x.Args) > 0 {
				switch x.Args[0].(type) {
				case *ast.MapType:
					A.emit(opMakeMap, dst, 0, 0, nil)
					return
				case *ast.ArrayType:
					A.emit(opMakeList, dst, 0, 0, nil)
					return
				}
			}
			A.exprEscape(c.compileExpr(fc, x), dst)
			return
		case "new":
			if len(x.Args) == 1 {
				if tid, ok := x.Args[0].(*ast.Ident); ok {
					A.emit(opNewObj, dst, 0, 0, c.syms.rootShape(tid.Name))
					return
				}
			}
			A.exprEscape(c.compileExpr(fc, x), dst)
			return
		}
	}
	// Method-style call: the callee lookup leaves either a plain callee
	// or an unbound method plus its receiver in two adjacent registers,
	// so obj.method(args) never allocates the bound closure.
	if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
		tm := A.tmpMark()
		base := A.tmp()
		A.tmp() // receiver
		c.lowerExpr(fc, sel.X, base)
		A.emit(opAttrCallee, base, 0, 0, sel.Sel.Name)
		for _, a := range x.Args {
			c.lowerExpr(fc, a, A.tmp())
		}
		A.emit(opCallM, base, len(x.Args), dst, nil)
		A.rel(tm)
		return
	}
	// General call: callee and arguments evaluate into contiguous
	// temporaries; opCall passes the frame subslice with no per-call
	// allocation.
	tm := A.tmpMark()
	base := A.tmp()
	c.lowerExpr(fc, x.Fun, base)
	for _, a := range x.Args {
		t := A.tmp()
		c.lowerExpr(fc, a, t)
	}
	A.emit(opCall, base, len(x.Args), dst, nil)
	A.rel(tm)
}

// lowerCond emits condition evaluation ending in a jump-when-false with
// an unresolved target (returned for patching). Comparison conditions
// fuse into a single compare-and-branch.
func (c *compiler) lowerCond(fc *fnCtx, e ast.Expr) int {
	A := fc.asm
	if A == nil {
		return -1
	}
	cond := e
	for {
		if p, ok := cond.(*ast.ParenExpr); ok {
			cond = p.X
			continue
		}
		break
	}
	if be, ok := cond.(*ast.BinaryExpr); ok && isCmpTok(be.Op) {
		if _, folded := c.foldOf(cond); !folded {
			tm := A.tmpMark()
			if rv, rok := c.foldOf(be.Y); rok {
				t1 := A.tmp()
				c.lowerExpr(fc, be.X, t1)
				pc := A.emit(opJmpCmpCF, t1, int(be.Op), -1, rv)
				A.rel(tm)
				return pc
			}
			t1, t2 := A.tmp(), A.tmp()
			c.lowerExpr(fc, be.X, t1)
			c.lowerExpr(fc, be.Y, t2)
			pc := A.jump(opJmpCmpF, t1, t2, be.Op)
			A.rel(tm)
			return pc
		}
	}
	tm := A.tmpMark()
	t := A.tmp()
	c.lowerExpr(fc, e, t)
	pc := A.jump(opJmpFalse, t, 0, nil)
	A.rel(tm)
	return pc
}

// lowerStore emits a store of register src through an lvalue.
// Identifiers store natively; other targets (obj.field, m[k]) run the
// compiled cassign, which evaluates container and key at store time —
// the same order the closure path uses.
func (c *compiler) lowerStore(fc *fnCtx, lhs ast.Expr, src int) {
	A := fc.asm
	if A == nil {
		return
	}
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		acc := c.resolve(fc, id.Name)
		switch acc.kind {
		case accLocal:
			A.emit(opStoreLocal, src, 0, 0, acc.b)
		case accCap:
			A.emit(opStoreCap, src, acc.cap, 0, nil)
		default:
			A.emit(opStoreGlobal, src, acc.gidx, 0, nil)
		}
		return
	}
	A.emit(opAssign, src, 0, 0, c.compileAssignTarget(fc, lhs))
}

// lowerableStmt reports whether compileStmt lowers this statement
// natively; everything else compiles its closure with lowering disabled
// and runs through an opStmt escape.
func lowerableStmt(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ExprStmt, *ast.ReturnStmt, *ast.IfStmt, *ast.BlockStmt,
		*ast.ForStmt, *ast.RangeStmt, *ast.EmptyStmt, *ast.IncDecStmt:
		return true
	case *ast.BranchStmt:
		return st.Tok == token.BREAK || st.Tok == token.CONTINUE
	case *ast.AssignStmt:
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return false
		}
		if st.Tok == token.ASSIGN || st.Tok == token.DEFINE {
			return true
		}
		_, ok := compoundOp(st.Tok)
		return ok
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		return ok && (gd.Tok == token.VAR || gd.Tok == token.CONST)
	}
	return false
}

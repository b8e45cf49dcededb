package interp

// Operators, literals and declaration helpers of minigo's semantics:
// the compiled engine evaluates through them, and the test-only
// tree-walk reference shares them, so the two cannot disagree here.

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// Value-size bounds. Steps bound a program's time, not its memory: one
// step of list +, append or string + copies a whole value, so a loop of
// them can double a value per iteration and exhaust the host long
// before MaxSteps. Past these bounds the three raise MemoryError, as a
// call past the depth bound raises RecursionError. They sit far above
// what a workload round builds and keep one copy to 4 MiB of list
// elements or 16 MiB of string; at this list bound the doubling loop
// stops after 18 iterations, in well under a second even when forked at
// every boundary.
const (
	maxListLen   = 1 << 18  // elements
	maxStringLen = 16 << 20 // bytes
)

// tooLarge raises MemoryError for a value of n units past limit.
func (it *Interp) tooLarge(what string, n, limit int) error {
	return it.throw("MemoryError", fmt.Sprintf("%s of %d exceeds the limit of %d", what, n, limit))
}

// control is how a statement ends: normally, or by break, continue or
// return.
type control int

const (
	ctlNone control = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

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

func hashable(v Value) bool {
	switch v.(type) {
	case nil, bool, int64, float64, string:
		return true
	}
	return false
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
			if n := len(lv.Elems) + len(rv.Elems); n > maxListLen {
				return nil, it.tooLarge("list", n, maxListLen)
			}
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
		if n := len(a) + len(b); n > maxStringLen {
			return nil, it.tooLarge("string", n, maxStringLen)
		}
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

func recvInfo(decl *ast.FuncDecl) (typeName, recvName string) {
	recv := decl.Recv.List[0]
	t := recv.Type
	if se, ok := t.(*ast.StarExpr); ok {
		t = se.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if len(recv.Names) > 0 {
		recvName = recv.Names[0].Name
	}
	return id.Name, recvName
}

func paramNames(ft *ast.FuncType) []string {
	var names []string
	if ft.Params == nil {
		return names
	}
	for _, f := range ft.Params.List {
		if len(f.Names) == 0 {
			names = append(names, "_")
			continue
		}
		for _, n := range f.Names {
			names = append(names, n.Name)
		}
	}
	return names
}

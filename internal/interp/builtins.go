package interp

import (
	"fmt"
	"strconv"
	"strings"
)

// builtinFuncs is the single source of truth for the global builtins:
// builtinEnv binds them and the compiler treats the names as statically
// known globals when deciding whether an assigned name is a
// function-root local, so the two can never drift apart.
var builtinFuncs = map[string]func(it *Interp, args []Value) (Value, error){
	"len":      builtinLen,
	"append":   builtinAppend,
	"delete":   builtinDelete,
	"print":    builtinPrint,
	"println":  builtinPrintln,
	"str":      builtinStr,
	"int":      builtinInt,
	"throw":    builtinThrow,
	"keys":     builtinKeys,
	"contains": builtinContains,
}

// builtinEnv holds the global builtins and the standard host modules
// every minigo program can import: fmt and strlib. It is stateless and
// built once; every interpreter sees it without installing anything
// (compiled programs find the builtins pre-bound in their global-slot
// prototype, see linker.proto).
var builtinEnv = newBuiltinEnv()

// baseEnvs is the environment list every interpreter starts from.
var baseEnvs = newEnvList([]*HostEnv{builtinEnv})

func newBuiltinEnv() *HostEnv {
	env := NewHostEnv()
	for _, name := range sortedKeys(builtinFuncs) {
		env.Func(name, builtinFuncs[name])
	}

	fmtMod := NewModule("fmt")
	fmtMod.Func("Sprintf", func(it *Interp, args []Value) (Value, error) {
		if len(args) == 0 {
			return "", nil
		}
		f, ok := args[0].(string)
		if !ok {
			return nil, it.throw("TypeError", "Sprintf format must be a string")
		}
		return FormatValue(f, args[1:]), nil
	})
	fmtMod.Func("Println", builtinPrintln)
	env.Module(fmtMod)

	strMod := NewModule("strlib")
	strMod.Func("HasPrefix", strFunc2(strings.HasPrefix))
	strMod.Func("HasSuffix", strFunc2(strings.HasSuffix))
	strMod.Func("Contains", strFunc2(strings.Contains))
	strMod.Func("ToUpper", strFunc1(strings.ToUpper))
	strMod.Func("ToLower", strFunc1(strings.ToLower))
	strMod.Func("TrimSpace", strFunc1(strings.TrimSpace))
	strMod.Func("TrimPrefix", func(it *Interp, args []Value) (Value, error) {
		a, b, err := twoStrings(it, "TrimPrefix", args)
		if err != nil {
			return nil, err
		}
		return strings.TrimPrefix(a, b), nil
	})
	strMod.Func("Replace", func(it *Interp, args []Value) (Value, error) {
		if len(args) != 3 {
			return nil, it.throw("TypeError", "Replace takes 3 arguments")
		}
		s, ok1 := args[0].(string)
		if !ok1 {
			if args[0] == nil {
				return nil, it.throw("AttributeError", "nil object has no attribute 'replace'")
			}
			return nil, it.throw("TypeError", "Replace first argument must be a string, not "+TypeName(args[0]))
		}
		old, ok2 := args[1].(string)
		nw, ok3 := args[2].(string)
		if !ok2 || !ok3 {
			return nil, it.throw("TypeError", "Replace arguments must be strings")
		}
		return strings.ReplaceAll(s, old, nw), nil
	})
	strMod.Func("Split", func(it *Interp, args []Value) (Value, error) {
		a, b, err := twoStrings(it, "Split", args)
		if err != nil {
			return nil, err
		}
		parts := strings.Split(a, b)
		out := NewList()
		for _, p := range parts {
			out.Elems = append(out.Elems, p)
		}
		return out, nil
	})
	strMod.Func("Join", func(it *Interp, args []Value) (Value, error) {
		if len(args) != 2 {
			return nil, it.throw("TypeError", "Join takes 2 arguments")
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, it.throw("TypeError", "Join first argument must be a list, not "+TypeName(args[0]))
		}
		sep, ok := args[1].(string)
		if !ok {
			return nil, it.throw("TypeError", "Join separator must be a string")
		}
		parts := make([]string, len(l.Elems))
		for i, e := range l.Elems {
			s, ok := e.(string)
			if !ok {
				return nil, it.throw("TypeError", "Join list elements must be strings")
			}
			parts[i] = s
		}
		return strings.Join(parts, sep), nil
	})
	env.Module(strMod)
	return env
}

func strFunc1(f func(string) string) func(it *Interp, args []Value) (Value, error) {
	return func(it *Interp, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, it.throw("TypeError", "function takes 1 argument")
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, it.throw("TypeError", "argument must be a string, not "+TypeName(args[0]))
		}
		return f(s), nil
	}
}

func strFunc2(f func(string, string) bool) func(it *Interp, args []Value) (Value, error) {
	return func(it *Interp, args []Value) (Value, error) {
		a, b, err := twoStrings(it, "function", args)
		if err != nil {
			return nil, err
		}
		return f(a, b), nil
	}
}

func twoStrings(it *Interp, name string, args []Value) (string, string, error) {
	if len(args) != 2 {
		return "", "", it.throw("TypeError", name+" takes 2 arguments")
	}
	a, ok := args[0].(string)
	if !ok {
		// The AttributeError analog for string helpers hit with nil: the
		// message mirrors Python-etcd's missing input sanitization failure.
		if args[0] == nil {
			return "", "", it.throw("AttributeError", "nil object has no attribute 'startswith'")
		}
		return "", "", it.throw("TypeError", name+" first argument must be a string, not "+TypeName(args[0]))
	}
	b, ok := args[1].(string)
	if !ok {
		return "", "", it.throw("TypeError", name+" second argument must be a string, not "+TypeName(args[1]))
	}
	return a, b, nil
}

func builtinLen(it *Interp, args []Value) (Value, error) {
	if len(args) != 1 {
		return nil, it.throw("TypeError", "len takes 1 argument")
	}
	switch v := args[0].(type) {
	case string:
		return int64(len(v)), nil
	case *List:
		return int64(len(v.Elems)), nil
	case *Map:
		return int64(v.Len()), nil
	case nil:
		return nil, it.throw("TypeError", "object of type 'nil' has no len()")
	default:
		return nil, it.throw("TypeError", "object of type '"+TypeName(v)+"' has no len()")
	}
}

func builtinAppend(it *Interp, args []Value) (Value, error) {
	if len(args) == 0 {
		return nil, it.throw("TypeError", "append takes at least 1 argument")
	}
	l, ok := args[0].(*List)
	if !ok {
		if args[0] == nil {
			l = NewList()
		} else {
			return nil, it.throw("TypeError", "append first argument must be a list, not "+TypeName(args[0]))
		}
	}
	if n := len(l.Elems) + len(args) - 1; n > maxListLen {
		return nil, it.tooLarge("list", n, maxListLen)
	}
	out := NewList(append(append([]Value(nil), l.Elems...), args[1:]...)...)
	return out, nil
}

func builtinDelete(it *Interp, args []Value) (Value, error) {
	if len(args) != 2 {
		return nil, it.throw("TypeError", "delete takes 2 arguments")
	}
	m, ok := args[0].(*Map)
	if !ok {
		return nil, it.throw("TypeError", "delete first argument must be a map, not "+TypeName(args[0]))
	}
	m.Delete(args[1])
	return nil, nil
}

func builtinPrint(it *Interp, args []Value) (Value, error) {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = Repr(a)
	}
	fmt.Fprint(it.stdout, strings.Join(parts, " "))
	return nil, nil
}

func builtinPrintln(it *Interp, args []Value) (Value, error) {
	if _, err := builtinPrint(it, args); err != nil {
		return nil, err
	}
	fmt.Fprintln(it.stdout)
	return nil, nil
}

func builtinStr(it *Interp, args []Value) (Value, error) {
	if len(args) != 1 {
		return nil, it.throw("TypeError", "str takes 1 argument")
	}
	return Repr(args[0]), nil
}

func builtinInt(it *Interp, args []Value) (Value, error) {
	if len(args) != 1 {
		return nil, it.throw("TypeError", "int takes 1 argument")
	}
	switch v := args[0].(type) {
	case int64:
		return v, nil
	case float64:
		return int64(v), nil
	case string:
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return nil, it.throw("ValueError", "invalid literal for int(): '"+v+"'")
		}
		return n, nil
	case bool:
		if v {
			return int64(1), nil
		}
		return int64(0), nil
	default:
		return nil, it.throw("TypeError", "int() argument must be a number or string, not '"+TypeName(v)+"'")
	}
}

// builtinThrow raises an exception: throw("EtcdKeyNotFound", "message").
func builtinThrow(it *Interp, args []Value) (Value, error) {
	excType := "Error"
	msg := ""
	if len(args) > 0 {
		if s, ok := args[0].(string); ok {
			excType = s
		}
	}
	if len(args) > 1 {
		msg = Repr(args[1])
	}
	return nil, it.throw(excType, msg)
}

func builtinKeys(it *Interp, args []Value) (Value, error) {
	if len(args) != 1 {
		return nil, it.throw("TypeError", "keys takes 1 argument")
	}
	m, ok := args[0].(*Map)
	if !ok {
		return nil, it.throw("TypeError", "keys argument must be a map, not "+TypeName(args[0]))
	}
	return NewList(m.Keys()...), nil
}

func builtinContains(it *Interp, args []Value) (Value, error) {
	if len(args) != 2 {
		return nil, it.throw("TypeError", "contains takes 2 arguments")
	}
	switch c := args[0].(type) {
	case *Map:
		_, ok := c.Get(args[1])
		return ok, nil
	case *List:
		for _, e := range c.Elems {
			if Equal(e, args[1]) {
				return true, nil
			}
		}
		return false, nil
	case string:
		s, ok := args[1].(string)
		if !ok {
			return nil, it.throw("TypeError", "contains needle must be a string")
		}
		return strings.Contains(c, s), nil
	default:
		return nil, it.throw("TypeError", "contains container must be map, list or string")
	}
}

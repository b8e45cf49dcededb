// Package interp implements the execution substrate that plays the role
// of the Python runtime in the original ProFIPy: a small AST interpreter
// for a dynamically-typed, Go-syntax target language ("minigo").
//
// Mutated target sources are parsed with go/parser and executed directly.
// The interpreter provides Python-analog dynamic semantics — panics as
// exceptions with defer/recover handlers, nil-attribute errors, type
// errors at run time — plus a virtual clock and step budget so injected
// hangs and CPU hogs are deterministic and fast to simulate.
package interp

import (
	"fmt"
	"go/ast"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Value is a runtime value: nil, bool, int64, float64, string, *List,
// *Map, *Object, *Closure, *HostFunc, *Tuple or *Exc.
type Value any

// List is a mutable sequence (the analog of a Python list / Go slice).
type List struct {
	Elems []Value
}

// NewList builds a list from elements.
func NewList(elems ...Value) *List { return &List{Elems: elems} }

// Map is a mutable mapping with deterministic (insertion) iteration order.
// Keys must be hashable scalars: string, int64, float64 or bool.
//
// Entries live in one insertion-ordered slice. Up to smallMapMax entries
// a lookup is a linear probe over that slice — the dicts minigo programs
// build (request parameters, out-params, small tables) almost never grow
// past it, so they cost one slice and no hash table. Beyond the limit a
// hash index over the same slice takes over lookups; order, iteration
// and deletion keep working on the slice either way.
type Map struct {
	ents []mapEntry
	idx  map[Value]int // key -> position in ents; nil while small
}

type mapEntry struct{ k, v Value }

// smallMapMax is the largest entry count served by linear probing.
const smallMapMax = 8

// NewMap returns an empty map.
func NewMap() *Map { return &Map{} }

// newMapCap returns an empty map with room for n entries (map literals
// know their size up front).
func newMapCap(n int) *Map { return &Map{ents: make([]mapEntry, 0, n)} }

// find returns the position of key k in ents, or -1. Key identity is Go
// interface equality (same dynamic type and value), exactly what a Go
// map keyed by Value would use.
func (m *Map) find(k Value) int {
	if m.idx != nil {
		if i, ok := m.idx[k]; ok {
			return i
		}
		return -1
	}
	for i := range m.ents {
		if m.ents[i].k == k {
			return i
		}
	}
	return -1
}

// Get returns the value for key and whether it was present.
func (m *Map) Get(k Value) (Value, bool) {
	if i := m.find(k); i >= 0 {
		return m.ents[i].v, true
	}
	return nil, false
}

// Set inserts or updates a key.
func (m *Map) Set(k, v Value) {
	if i := m.find(k); i >= 0 {
		m.ents[i].v = v
		return
	}
	if cap(m.ents) == 0 {
		m.ents = make([]mapEntry, 0, 4)
	}
	m.ents = append(m.ents, mapEntry{k, v})
	switch {
	case m.idx != nil:
		m.idx[k] = len(m.ents) - 1
	case len(m.ents) > smallMapMax:
		m.idx = make(map[Value]int, 2*len(m.ents))
		for i := range m.ents {
			m.idx[m.ents[i].k] = i
		}
	}
}

// Delete removes a key if present; later entries keep their relative
// order.
func (m *Map) Delete(k Value) {
	i := m.find(k)
	if i < 0 {
		return
	}
	copy(m.ents[i:], m.ents[i+1:])
	m.ents[len(m.ents)-1] = mapEntry{}
	m.ents = m.ents[:len(m.ents)-1]
	if m.idx != nil {
		delete(m.idx, k)
		for j := i; j < len(m.ents); j++ {
			m.idx[m.ents[j].k] = j
		}
	}
}

// Len returns the number of entries.
func (m *Map) Len() int { return len(m.ents) }

// Keys returns the keys in insertion order (a copy).
func (m *Map) Keys() []Value {
	keys := make([]Value, len(m.ents))
	for i := range m.ents {
		keys[i] = m.ents[i].k
	}
	return keys
}

// pairs returns the keys and values in insertion order (copies): the
// iteration snapshot of a range loop.
func (m *Map) pairs() (keys, vals []Value) {
	keys = make([]Value, len(m.ents))
	vals = make([]Value, len(m.ents))
	for i := range m.ents {
		keys[i], vals[i] = m.ents[i].k, m.ents[i].v
	}
	return keys, vals
}

// Shape is the layout of an Object: its dynamic type name plus the
// ordered field names, field i living in slot i. Shapes are immutable
// and interned along transitions — adding field f to shape S always
// yields the same child shape — so every object built the same way
// shares one Shape and carries only its slot vector.
type Shape struct {
	typeName string
	names    []string
	// index maps field name -> slot for wide shapes; narrow shapes
	// (the common case) probe names linearly instead.
	index map[string]int

	mu   sync.Mutex
	kids map[string]*Shape // transitions: field added -> child shape
}

// shapeLinearMax is the widest shape whose slot lookup probes names
// linearly; wider shapes carry a name index.
const shapeLinearMax = 8

// NewShape returns the shape of typeName objects whose fields were
// added in the given order. Each call builds a fresh transition chain;
// keep the result (host modules hold theirs in package variables).
func NewShape(typeName string, fields ...string) *Shape {
	s := &Shape{typeName: typeName}
	for _, f := range fields {
		s = s.with(f)
	}
	return s
}

// slot returns the slot holding field name, or -1.
func (s *Shape) slot(name string) int {
	if s.index != nil {
		if i, ok := s.index[name]; ok {
			return i
		}
		return -1
	}
	for i, n := range s.names {
		if n == name {
			return i
		}
	}
	return -1
}

// with returns the shape reached by adding field name (the shape itself
// when the field already exists).
func (s *Shape) with(name string) *Shape {
	if s.slot(name) >= 0 {
		return s
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if k, ok := s.kids[name]; ok {
		return k
	}
	k := &Shape{typeName: s.typeName, names: append(s.names[:len(s.names):len(s.names)], name)}
	if len(k.names) > shapeLinearMax {
		k.index = make(map[string]int, len(k.names))
		for i, n := range k.names {
			k.index[n] = i
		}
	}
	if s.kids == nil {
		s.kids = make(map[string]*Shape)
	}
	s.kids[name] = k
	return k
}

// New builds an object of this shape from its field values in shape
// order; missing trailing values are nil.
func (s *Shape) New(vals ...Value) *Object {
	o := s.alloc()
	copy(o.slots, vals)
	return o
}

// alloc returns an object of this shape with every field nil. Slot
// vectors of up to 8 fields are carved out of the object's own
// allocation, so building an object is a single allocation.
func (s *Shape) alloc() *Object {
	n := len(s.names)
	switch {
	case n <= 4:
		o := &object4{}
		o.shape, o.slots = s, o.buf[:n]
		return &o.Object
	case n <= 8:
		o := &object8{}
		o.shape, o.slots = s, o.buf[:n]
		return &o.Object
	}
	return &Object{shape: s, slots: make([]Value, n)}
}

// Object is a dynamic record with a type name; structs of the target
// language become Objects, and methods dispatch on the type name. The
// fields live in a slot vector laid out by the object's Shape.
type Object struct {
	shape *Shape
	slots []Value
}

type object4 struct {
	Object
	buf [4]Value
}

type object8 struct {
	Object
	buf [8]Value
}

// TypeName returns the object's dynamic type name.
func (o *Object) TypeName() string { return o.shape.typeName }

// Get returns the value of a field and whether the object has it.
func (o *Object) Get(name string) (Value, bool) {
	if i := o.shape.slot(name); i >= 0 {
		return o.slots[i], true
	}
	return nil, false
}

// Set stores a field, adding it (a shape transition) when the object
// does not have it yet.
func (o *Object) Set(name string, v Value) {
	if i := o.shape.slot(name); i >= 0 {
		o.slots[i] = v
		return
	}
	o.shape = o.shape.with(name)
	o.slots = append(o.slots, v)
}

// Closure is a user-defined function or method bound to its environment.
type Closure struct {
	Name   string
	Params []string
	Body   *ast.BlockStmt
	Env    *Scope
	Recv   Value  // bound receiver for methods, nil otherwise
	RecvN  string // receiver parameter name
}

// HostFunc is a function implemented by the embedding environment
// (standard modules, fault hooks, the kvstore transport, ...). args is
// a window of the interpreter's argument stack, valid until Fn returns:
// Fn may keep the values but not the slice.
type HostFunc struct {
	Name string
	Fn   func(it *Interp, args []Value) (Value, error)
}

// Module is a named collection of host functions and constants, resolved
// from import declarations in target sources.
type Module struct {
	Name   string
	Member map[string]Value
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, Member: make(map[string]Value)}
}

// Func registers a host function on the module.
func (m *Module) Func(name string, fn func(it *Interp, args []Value) (Value, error)) *Module {
	m.Member[name] = &HostFunc{Name: m.Name + "." + name, Fn: fn}
	return m
}

// Tuple carries multiple return values between calls and assignments.
type Tuple struct {
	Elems []Value
}

// Exc is an exception value (the analog of a Python exception instance).
type Exc struct {
	Type string
	Msg  string
}

func (e *Exc) String() string { return e.Type + ": " + e.Msg }

// Truthy reports Python-style truthiness of a value.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != ""
	case *List:
		return len(x.Elems) > 0
	case *Map:
		return x.Len() > 0
	default:
		return true
	}
}

// Equal reports deep equality between two values.
func Equal(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case bool, string:
		return a == b
	case int64:
		switch y := b.(type) {
		case int64:
			return x == y
		case float64:
			return float64(x) == y
		}
		return false
	case float64:
		switch y := b.(type) {
		case int64:
			return x == float64(y)
		case float64:
			return x == y
		}
		return false
	case *List:
		y, ok := b.(*List)
		if !ok || len(x.Elems) != len(y.Elems) {
			return false
		}
		for i := range x.Elems {
			if !Equal(x.Elems[i], y.Elems[i]) {
				return false
			}
		}
		return true
	case *Map:
		y, ok := b.(*Map)
		if !ok || x.Len() != y.Len() {
			return false
		}
		for i := range x.ents {
			yv, ok := y.Get(x.ents[i].k)
			if !ok || !Equal(x.ents[i].v, yv) {
				return false
			}
		}
		return true
	case *Exc:
		y, ok := b.(*Exc)
		return ok && x.Type == y.Type && x.Msg == y.Msg
	default:
		return a == b
	}
}

// Repr renders a value for logs and workload output, deterministically.
func Repr(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case bool:
		return strconv.FormatBool(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case *List:
		parts := make([]string, len(x.Elems))
		for i, e := range x.Elems {
			parts[i] = Repr(e)
		}
		return "[" + strings.Join(parts, " ") + "]"
	case *Map:
		parts := make([]string, 0, x.Len())
		for i := range x.ents {
			parts = append(parts, Repr(x.ents[i].k)+":"+Repr(x.ents[i].v))
		}
		sort.Strings(parts)
		return "map[" + strings.Join(parts, " ") + "]"
	case *Object:
		return "<" + x.TypeName() + ">"
	case *Closure:
		return "<func " + x.Name + ">"
	case *compiledClosure:
		return "<func " + x.fn.name + ">"
	case *HostFunc:
		return "<hostfunc " + x.Name + ">"
	case *Module:
		return "<module " + x.Name + ">"
	case *Tuple:
		parts := make([]string, len(x.Elems))
		for i, e := range x.Elems {
			parts[i] = Repr(e)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case *Exc:
		return x.String()
	default:
		return fmt.Sprintf("%v", v)
	}
}

// TypeName returns the dynamic type name of a value, used in TypeError
// messages.
func TypeName(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case bool:
		return "bool"
	case int64:
		return "int"
	case float64:
		return "float"
	case string:
		return "string"
	case *List:
		return "list"
	case *Map:
		return "map"
	case *Object:
		return x.TypeName()
	case *Closure, *HostFunc, *compiledClosure:
		return "func"
	case *Tuple:
		return "tuple"
	case *Exc:
		return "exception"
	case *Module:
		return "module"
	default:
		return fmt.Sprintf("%T", v)
	}
}

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

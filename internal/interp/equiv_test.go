package interp

import (
	"bytes"
	"fmt"
	"testing"
)

// equivSetup installs host state on an interpreter (either path).
type equivSetup func(it *Interp)

// runBothPaths executes the same program through the tree-walk and the
// compiled path and asserts identical observable behavior: result value,
// error rendering, step count, virtual clock and stdout bytes. It returns
// the compiled path's outcome.
func runBothPaths(t *testing.T, cfg Config, files map[string]string, order []string,
	setup equivSetup, entry string, args ...Value) (Value, error) {
	t.Helper()

	var treeOut bytes.Buffer
	tcfg := cfg
	tcfg.Stdout = &treeOut
	tree := New(tcfg)
	if setup != nil {
		setup(tree.Interp)
	}
	var loadErr error
	for _, name := range order {
		if err := tree.LoadSource(name, []byte(files[name])); err != nil {
			loadErr = err
			break
		}
	}
	var treeVal Value
	var treeErr error
	if loadErr == nil {
		treeVal, treeErr = tree.Call(entry, args...)
	}

	var units []SourceUnit
	for _, name := range order {
		units = append(units, SourceUnit{Name: name, Src: []byte(files[name])})
	}
	prog, cerr := CompileProgram(units)
	if loadErr != nil {
		// Load-time failures must fail the compiled path too (at compile
		// or boot); exact wording may name the same file and cause.
		if cerr != nil {
			return nil, loadErr
		}
		ccfg := cfg
		ccfg.Stdout = &bytes.Buffer{}
		run := NewRun(prog, ccfg)
		if setup != nil {
			setup(run)
		}
		berr := run.Boot()
		if berr == nil {
			t.Fatalf("tree-walk failed to load (%v) but compiled booted fine", loadErr)
		}
		if berr.Error() != loadErr.Error() {
			t.Fatalf("load error mismatch:\n tree: %v\n comp: %v", loadErr, berr)
		}
		return nil, loadErr
	}
	if cerr != nil {
		t.Fatalf("CompileProgram: %v (tree-walk loaded fine)", cerr)
	}

	var compOut bytes.Buffer
	ccfg := cfg
	ccfg.Stdout = &compOut
	run := NewRun(prog, ccfg)
	if setup != nil {
		setup(run)
	}
	if err := run.Boot(); err != nil {
		t.Fatalf("Boot: %v (tree-walk loaded fine)", err)
	}
	compVal, compErr := run.Call(entry, args...)

	if Repr(treeVal) != Repr(compVal) {
		t.Errorf("result mismatch:\n tree: %s\n comp: %s", Repr(treeVal), Repr(compVal))
	}
	if fmt.Sprint(treeErr) != fmt.Sprint(compErr) {
		t.Errorf("error mismatch:\n tree: %v\n comp: %v", treeErr, compErr)
	}
	if tree.Steps() != run.Steps() {
		t.Errorf("step count mismatch: tree=%d compiled=%d", tree.Steps(), run.Steps())
	}
	if tree.Clock() != run.Clock() {
		t.Errorf("virtual clock mismatch: tree=%d compiled=%d", tree.Clock(), run.Clock())
	}
	if treeOut.String() != compOut.String() {
		t.Errorf("stdout mismatch:\n tree: %q\n comp: %q", treeOut.String(), compOut.String())
	}
	return compVal, compErr
}

func equivOne(t *testing.T, src, entry string, args ...Value) (Value, error) {
	t.Helper()
	return runBothPaths(t, Config{}, map[string]string{"t.go": "package main\n" + src},
		[]string{"t.go"}, nil, entry, args...)
}

// equivCorpus is the shared program corpus: every language feature the
// interpreter supports, plus the failure modes fault injection relies
// on. Each entry runs through both execution paths.
var equivCorpus = []struct {
	name  string
	src   string
	entry string
	args  []Value
}{
	{"arith", `func F() any { return 1 + 2*3 + 10/3 + 10%3 + (7-10) + 1<<4 + (255&15) }`, "F", nil},
	{"float-mix", `func F() any { return 2.5 + 1 - 0.5*2 + 3/2.0 }`, "F", nil},
	{"string-ops", `func F() any { return "a" + "b" + str(1 < 2) + str("abc" < "abd") }`, "F", nil},
	{"zero-div", `func F(n int) any { return 1 / n }`, "F", []Value{int64(0)}},
	{"zero-mod", `func F(n int) any { return 1 % n }`, "F", []Value{int64(0)}},
	{"type-error", `func F(s string) any { return s + 1 }`, "F", []Value{"x"}},
	{"nil-attr", `func F(k any) any { return k.Name }`, "F", []Value{nil}},
	{"unbound", `func F() any { return undefinedVar }`, "F", nil},
	{"unsupported-unary-evaluates-operand", `func F() any { return ^undefinedVar }`, "F", nil},
	{"unsupported-unary", `func F() any { return ^1 }`, "F", nil},
	{"unbound-after-branch", `func F(b any) any { if b { x := 1; _ = x }; return x }`, "F", []Value{false}},
	{"lists-maps", `
func F() any {
	xs := []any{1, 2, 3}
	xs = append(xs, 4)
	m := map[string]any{"a": 1}
	m["b"] = 2
	total := 0
	for _, x := range xs {
		total += x
	}
	for _, k := range keys(m) {
		total += m[k]
	}
	return total
}`, "F", nil},
	{"map-comma-ok", `
func F() any {
	m := map[string]any{"x": 10}
	v, ok := m["x"]
	_, missing := m["y"]
	if ok && !missing {
		return v
	}
	return -1
}`, "F", nil},
	{"comma-ok-non-map", `
func F() any {
	xs := []any{1, 2}
	a, b := xs[0]
	return a + b
}`, "F", nil},
	{"structs-methods", `
type Counter struct{}
func NewCounter(start int) any { return &Counter{n: start} }
func (c *Counter) Add(d int) any { c.n = c.n + d; return c.n }
func (c *Counter) Value() any { return c.n }
func F() any {
	c := NewCounter(5)
	c.Add(3)
	c.Add(2)
	return c.Value()
}`, "F", nil},
	{"closures", `
func Adder(n int) any { return func(x int) any { return x + n } }
func F() any {
	add5 := Adder(5)
	return add5(37)
}`, "F", nil},
	{"closure-mutates-outer", `
func F() any {
	total := 0
	bump := func(d int) any { total += d; return total }
	bump(3)
	bump(4)
	return total
}`, "F", nil},
	{"closure-capture-before-assign", `
func F() any {
	g := func() any { return x + 1 }
	x := 41
	return g()
}`, "F", nil},
	{"closure-loop-shared-var", `
func F() any {
	fs := []any{}
	for i := 0; i < 3; i++ {
		fs = append(fs, func() any { return i })
	}
	out := 0
	for _, f := range fs {
		out = out*10 + f()
	}
	return out
}`, "F", nil},
	{"nested-closure-transitive-capture", `
func F() any {
	x := 1
	outer := func() any {
		inner := func() any { x = x + 10; return x }
		return inner() + inner()
	}
	r := outer()
	return r*100 + x
}`, "F", nil},
	{"multi-return", `
func divmod(a int, b int) (any, any) { return a / b, a % b }
func F() any {
	q, r := divmod(17, 5)
	return q*10 + r
}`, "F", nil},
	{"single-target-multi-return", `
func two() (any, any) { return 7, 9 }
func F() any {
	x := two()
	return x
}`, "F", nil},
	{"unpack-arity-error", `
func two() (any, any) { return 1, 2 }
func F() any {
	a, b, c := two()
	return a + b + c
}`, "F", nil},
	{"unpack-non-tuple", `func F() any { a, b := 5; return a + b }`, "F", nil},
	{"switch-tag", `
func F(n int) any {
	switch n {
	case 1:
		return "one"
	case 2, 3:
		return "few"
	default:
		return "many"
	}
}`, "F", []Value{int64(3)}},
	{"switch-tagless-init", `
func F(n int) any {
	switch v := n * 2; {
	case v < 0:
		return "neg"
	case v == 0:
		return "zero"
	}
	return "pos"
}`, "F", []Value{int64(0)}},
	{"switch-break", `
func F() any {
	out := 0
	switch {
	case true:
		out = 1
		break
		out = 2
	}
	return out
}`, "F", nil},
	{"range-string", `
func F() any {
	s := ""
	for i, ch := range "abc" {
		s = s + str(i) + ch
	}
	return s
}`, "F", nil},
	{"range-int", `
func F() any {
	total := 0
	for i := range 5 {
		total += i
	}
	return total
}`, "F", nil},
	{"range-map-order", `
func F() any {
	m := map[string]any{"b": 2, "a": 1, "c": 3}
	s := ""
	for k, v := range m {
		s = s + k + str(v)
	}
	return s
}`, "F", nil},
	{"range-nil", `func F(xs any) any { for _, x := range xs { _ = x }; return nil }`, "F", []Value{nil}},
	{"range-mutation-snapshot", `
func F() any {
	xs := []any{1, 2, 3}
	total := 0
	for i, x := range xs {
		xs[i] = 100
		total += x
	}
	return total
}`, "F", nil},
	{"for-break-continue", `
func F() any {
	total := 0
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			continue
		}
		if i > 6 {
			break
		}
		total += i
	}
	return total
}`, "F", nil},
	{"infinite-for-budget", `func F() any { for { } ; return nil }`, "F", nil},
	{"panic-recover", `
func risky() any { panic(__mkexc()) }
func F() any {
	result := "none"
	func() {
		defer func() {
			if r := recover(); r != nil {
				result = "recovered: " + r.Type
			}
		}()
		risky()
	}()
	return result
}`, "F", nil},
	{"uncaught-panic-stack", `
func inner() any { return missing.Field }
func outer() any { return inner() }`, "outer", nil},
	{"throw-builtin", `func F() any { throw("EtcdKeyNotFound", "key missing"); return nil }`, "F", nil},
	{"defer-order", `
func F() any {
	func() {
		defer println("deferred")
		println("body")
	}()
	return nil
}`, "F", nil},
	{"defer-args-at-defer-time", `
func F() any {
	x := 1
	func() {
		defer println(x)
		x = 2
		println(x)
	}()
	return x
}`, "F", nil},
	{"panic-in-defer-replaces", `
func failAgain() any { panic(__mkexc()) }
func F() any {
	defer failAgain()
	panic("original")
}`, "F", nil},
	{"globals-persist", `
var counter = 0
func Bump() any { counter = counter + 1; return counter }
func F() any {
	Bump()
	Bump()
	return Bump()
}`, "F", nil},
	{"define-assigns-global-quirk", `
var g = 5
func F() any {
	g := 2
	return g + g2()
}
func g2() any { return g * 10 }`, "F", nil},
	{"block-var-shadowing", `
var x = 100
func F() any {
	out := 0
	{
		var x = 1
		out += x
	}
	out += x
	return out
}`, "F", nil},
	{"block-var-does-not-leak", `
func F() any {
	{
		var y = 1
		_ = y
	}
	return y
}`, "F", nil},
	{"recursion-limit", `func F() any { return F() }`, "F", nil},
	{"missing-args-default-nil", `
func G(a any, b any) any {
	if b == nil {
		return "default"
	}
	return b
}
func F() any { return G(1) }`, "F", nil},
	{"extra-args-dropped", `
func G(a any) any { return a }
func F() any { return G(1, 2, 3) }`, "F", nil},
	{"string-slice-index", `
func F() any {
	s := "hello world"
	return s[0:5] + "-" + s[6:11] + "-" + s[0] + str(len(s))
}`, "F", nil},
	{"slice-bounds-error", `func F() any { xs := []any{1}; return xs[0:9] }`, "F", nil},
	{"index-errors", `func F() any { xs := []any{1}; return xs[5] }`, "F", nil},
	{"composites", `
func F() any {
	obj := &Thing{a: 1, b: "x"}
	m := map[string]any{"k": obj.a}
	l := []any{m["k"], obj.b}
	return str(l)
}`, "F", nil},
	{"incdec-compound", `
func F() any {
	x := 10
	x += 5
	x -= 3
	x *= 2
	x /= 4
	x++
	x--
	return x
}`, "F", nil},
	{"compound-on-index", `
func F() any {
	m := map[string]any{"n": 1}
	m["n"] += 41
	xs := []any{5}
	xs[0] *= 3
	return m["n"] + xs[0]
}`, "F", nil},
	{"logical-ops-return-bool", `
func F() any {
	a := 1 && "x"
	b := 0 || ""
	return str(a) + str(b)
}`, "F", nil},
	{"unary-ops", `
func F(v any) any {
	return str(-(3)) + str(!v) + str(+4) + str(-2.5)
}`, "F", []Value{nil}},
	{"go-stmt-synchronous", `
var ran = 0
func bump() any { ran = 1; return nil }
func F() any {
	go bump()
	return ran
}`, "F", nil},
	{"labeled-stmt", `
func F() any {
	x := 0
loop:
	for i := 0; i < 3; i++ {
		x += i
	}
	_ = loopDummy
	return x
}
var loopDummy = "unused"`, "F", nil},
	{"method-chains", `
type Inner struct{}
func (i *Inner) Get() any { return i.val }
type Outer struct{}
func F() any {
	inner := &Inner{val: 42}
	outer := &Outer{child: inner}
	return outer.child.Get()
}`, "F", nil},
	{"new-builtin", `
func F() any {
	o := new(Box)
	o.v = 7
	return o.v
}`, "F", nil},
	{"make-builtin", `
func F() any {
	m := make(map[string]any)
	m["a"] = 1
	l := make([]any)
	l = append(l, 2)
	return m["a"] + l[0]
}`, "F", nil},
	{"exc-fields", `
func F() any {
	r := "none"
	func() {
		defer func() {
			e := recover()
			r = e.Type + ":" + e.Msg
		}()
		throw("Boom", "msg")
	}()
	return r
}`, "F", nil},
	{"fault-trigger-shape", `
func get(k any) any {
	if __fault_enabled() {
		return nil
	} else {
		return k
	}
}
func F() any {
	v := get("key")
	return v.missing
}`, "F", nil},
	{"var-init-order", `
var a = 1
var b = a + 1
var c = b * b
func F() any { return c }`, "F", nil},
	{"var-init-forward-ref-fails", `
var a = b + 1
var b = 1
func F() any { return a }`, "F", nil},
	{"const-decl", `
func F() any {
	const k = 3
	return k * 2
}`, "F", nil},
	{"else-if-chain", `
func F(n int) any {
	if n < 0 {
		return "neg"
	} else if n == 0 {
		return "zero"
	} else if n < 10 {
		return "small"
	} else {
		return "big"
	}
}`, "F", []Value{int64(5)}},
	{"funclit-in-expr-stmt", `
func F() any {
	x := 0
	func() { x = 9 }()
	return x
}`, "F", nil},
	{"strlib-fmt-modules", `
import "strlib"
import "fmt"

func F() any {
	s := "hello-world"
	parts := strlib.Split(s, "-")
	return fmt.Sprintf("%s_%d_%v", parts[1], len(s), strlib.HasPrefix(s, "hello"))
}`, "F", nil},
	// Object shapes: fields live in slot vectors laid out by an interned
	// shape; none of that may show.
	{"shape-field-added-after-construction", `
type T struct{}
func F() any {
	t := &T{a: 1}
	t.b = 2
	t.c = t.a + t.b
	t.a = 10
	u := new(T)
	u.z = 5
	u.a = 6
	return str(t.a) + "," + str(t.b) + "," + str(t.c) + "," + str(u.z) + "," + str(u.a)
}`, "F", nil},
	{"shape-same-type-different-field-orders", `
type T struct{}
func mk(flip any) any {
	if flip {
		return &T{b: 2, a: 1}
	}
	return &T{a: 1, b: 2}
}
func F() any {
	x := mk(true)
	y := mk(false)
	x.c = 3
	y.d = 4
	y.c = 5
	return str(x.a - x.b + x.c) + "," + str(y.a - y.b + y.c + y.d)
}`, "F", nil},
	{"shape-missing-field-after-transition", `
type T struct{}
func F() any {
	x := &T{a: 1}
	y := &T{a: 1}
	y.extra = 2
	return x.extra
}`, "F", nil},
	{"shape-wide-object", `
type W struct{}
func F() any {
	w := &W{f0: 0, f1: 1, f2: 2, f3: 3, f4: 4, f5: 5, f6: 6, f7: 7, f8: 8, f9: 9}
	w.f10 = 10
	w.f11 = 11
	w.f3 = 30
	return w.f0 + w.f3 + w.f8 + w.f9 + w.f10 + w.f11
}`, "F", nil},
	{"shape-duplicate-literal-field", `
type T struct{}
func F() any {
	t := &T{a: 1, b: 2, a: 3}
	return str(t.a) + str(t.b)
}`, "F", nil},
	{"shape-field-shadows-method", `
type T struct{}
func (t *T) Val() any { return 1 }
func F() any {
	t := &T{}
	a := t.Val()
	t.Val = func() any { return 7 }
	b := t.Val()
	t.Val = 9
	return str(a) + str(b) + str(t.Val)
}`, "F", nil},
	{"shape-field-not-callable", `
type T struct{}
func (t *T) Val() any { return 1 }
func F() any { t := &T{}; t.Val = 9; return t.Val() }`, "F", nil},
	{"method-callee-resolved-before-args", `
type T struct{}
func (t *T) m(x any) any { return "method:" + str(x) }
func F() any {
	t := &T{}
	swap := func() any {
		t.m = func(x any) any { return "field:" + str(x) }
		return 1
	}
	first := t.m(swap())
	return first + "," + t.m(2)
}`, "F", nil},
	{"method-value-bound-late-call", `
type C struct{}
func (c *C) Add(d int) any { c.n = c.n + d; return c.n }
func F() any {
	c := &C{n: 1}
	f := c.Add
	c.n = 100
	return f(5) + c.Add(1)
}`, "F", nil},
	{"method-missing-on-object", `
type T struct{}
func F() any { t := &T{}; return t.nope(1) }`, "F", nil},
	{"host-built-objects", `
func F() any {
	r := __mkresp()
	before := str(r.Status) + ":" + r.Node.Key + ":" + str(len(r.Nodes))
	r.Status = 500
	r.Extra = "x"
	r.Node.Value = r.Node.Value + "!"
	after := str(r.Status) + ":" + r.Extra + ":" + r.Node.Value
	other := __mkresp()
	return before + "|" + after + "|" + str(other.Status) + ":" + other.Node.Value
}`, "F", nil},
	{"host-built-missing-field", `func F() any { return __mkresp().Missing }`, "F", nil},
	// Lazily made host objects (__mklazy, built the way kvclient builds
	// its replies) behave like whole ones.
	{"lazy-alias-mutate", `
func F() any {
	a := __mklazy()
	b := a
	b.Status = 7
	n := a.Node
	b.Node.Value = "w"
	return str(a.Status) + ":" + n.Value + ":" + str(a.Node == n)
}`, "F", nil},
	{"lazy-new-field", `
func F() any {
	r := __mklazy()
	r.Detail = "true"
	n := r.Nodes
	r.Extra = 1
	return r.Detail + str(r.Extra) + r.Message + str(len(n)) + r.Nodes[1].Key + str(r.Status)
}`, "F", nil},
	{"lazy-print", `
func F() any {
	r := __mklazy()
	println(r)
	println(r.Node, r.Nodes)
	return str(r) + str(r.Node) + str(r.Nodes)
}`, "F", nil},
	{"lazy-equal", `
func F() any {
	a := __mklazy()
	b := a
	c := __mklazy()
	return str(a == b) + str(a == c) + str(a.Node == b.Node) + str(a.Node == c.Node) + str(a.Nodes == c.Nodes)
}`, "F", nil},
	{"lazy-untouched-in-list", `
func F() any {
	xs := []any{}
	for i := 0; i < 3; i++ {
		xs = append(xs, __mklazy())
	}
	return str(len(xs)) + xs[2].Node.Value + str(xs[0] == xs[1]) + str(xs[1].Status)
}`, "F", nil},
	{"lazy-missing-field", `func F() any { r := __mklazy(); return r.Missing }`, "F", nil},
	// Maps: one insertion-ordered representation, linear up to the
	// small-map limit and hash-indexed beyond.
	{"map-grows-past-small-limit", `
func F() any {
	m := map[string]any{}
	for i := 0; i < 20; i++ {
		m["k"+str(i)] = i
	}
	m["k3"] = 300
	m["k15"] = 1500
	out := ""
	sum := 0
	for k, v := range m {
		out = out + k + ";"
		sum = sum + v
	}
	_, miss := m["nope"]
	return out + str(sum) + str(len(m)) + str(contains(m, "k19")) + str(miss) + str(m["k0"])
}`, "F", nil},
	{"map-delete-reinsert-order", `
func order(m any) any {
	out := ""
	for _, k := range keys(m) {
		out = out + str(k) + "=" + str(m[k]) + ";"
	}
	return out
}
func F() any {
	small := map[string]any{"a": 1, "b": 2, "c": 3}
	delete(small, "a")
	delete(small, "zz")
	small["a"] = 9
	big := map[any]any{}
	for i := 0; i < 12; i++ {
		big[i] = i * i
	}
	delete(big, 0)
	delete(big, 5)
	big[5] = -5
	big[0] = -1
	delete(big, 11)
	return order(small) + "|" + order(big) + "|" + str(len(big))
}`, "F", nil},
	{"map-shrinks-below-limit-keeps-working", `
func F() any {
	m := map[any]any{}
	for i := 0; i < 12; i++ {
		m[i] = i
	}
	for i := 0; i < 10; i++ {
		delete(m, i)
	}
	m[1.5] = "f"
	m[true] = "t"
	m["10"] = "s"
	out := ""
	for k, v := range m {
		out = out + str(k) + ":" + str(v) + ";"
	}
	return out + str(m[10]) + str(m["10"]) + str(m[1])
}`, "F", nil},
	{"nil-not-callable", `func F(f any) any { return f() }`, "F", []Value{nil}},
	{"int-not-callable", `func F() any { x := 3; return x() }`, "F", nil},
}

// Shapes of the host-built objects the corpus reads and writes (the
// kvclient transport builds its Response/Node objects the same way).
var (
	equivRespShape = NewShape("Response", "Status", "Message", "Node", "Nodes")
	equivNodeShape = NewShape("Node", "Key", "Value")
)

// equivLazy is a lazily made host object: slot i is made by field(i).
type equivLazy struct {
	obj   LazyObject
	slots [4]Value
	field func(i int) Value
}

func (l *equivLazy) Field(i int) Value { return l.field(i) }

func newEquivLazy(sh *Shape, field func(i int) Value) *Object {
	l := &equivLazy{field: field}
	return sh.NewLazy(&l.obj, l.slots[:], l)
}

// equivLazyResp builds a Response the way kvclient builds its replies:
// Node and the Nodes are lazy objects too, made on first read.
func equivLazyResp() *Object {
	node := func(key string) *Object {
		return newEquivLazy(equivNodeShape, func(i int) Value { return []Value{key, "v" + key}[i] })
	}
	return newEquivLazy(equivRespShape, func(i int) Value {
		switch i {
		case 0:
			return int64(200)
		case 1:
			return "ok"
		case 2:
			return node("/k")
		}
		return NewList(node("/a"), node("/b"))
	})
}

var equivHostEnv = NewHostEnv().
	Func("__mkresp", func(it *Interp, args []Value) (Value, error) {
		return equivRespShape.New(int64(200), "ok", equivNodeShape.New("/k", "v"), NewList()), nil
	}).
	Func("__mklazy", func(it *Interp, args []Value) (Value, error) {
		return equivLazyResp(), nil
	}).
	Func("__mkexc", func(it *Interp, args []Value) (Value, error) {
		return &Exc{Type: "EtcdException", Msg: "boom"}, nil
	}).
	Func("__fault_enabled", func(it *Interp, args []Value) (Value, error) {
		return true, nil
	})

func equivHostSetup(it *Interp) { it.Install(equivHostEnv) }

// TestCompiledEquivalence runs the corpus through the tree-walk and the
// compiled path, asserting identical results, exceptions, step counts,
// virtual clocks and stdout (the acceptance gate of the compile layer).
func TestCompiledEquivalence(t *testing.T) {
	for _, tc := range equivCorpus {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{MaxSteps: 200_000}
			runBothPaths(t, cfg, map[string]string{"t.go": "package main\n" + tc.src},
				[]string{"t.go"}, equivHostSetup, tc.entry, tc.args...)
		})
	}
}

// TestCompiledEquivalenceMultiFile covers cross-file globals, functions
// and methods loaded in order.
func TestCompiledEquivalenceMultiFile(t *testing.T) {
	files := map[string]string{
		"a.go": `package main
var shared = 10
func helper(n int) any { return n + shared }
type T struct{}
func (t *T) Scale(n int) any { return t.k * n }
`,
		"b.go": `package main
func F() any {
	t := &T{k: 3}
	shared = shared + 1
	return helper(2) + t.Scale(4)
}`,
	}
	v, err := runBothPaths(t, Config{}, files, []string{"a.go", "b.go"}, nil, "F")
	if err != nil {
		t.Fatalf("F: %v", err)
	}
	if v != int64(25) {
		t.Fatalf("F() = %v, want 25", Repr(v))
	}
}

// TestCompiledEquivalenceTimeout checks deadline and budget behavior:
// identical ErrTimeout/ErrSteps and non-recoverability through defers.
func TestCompiledEquivalenceTimeout(t *testing.T) {
	src := `package main
func F() any {
	defer func() { recover() }()
	for {
	}
	return nil
}`
	_, err := runBothPaths(t, Config{DeadlineNS: 1_000_000},
		map[string]string{"t.go": src}, []string{"t.go"}, nil, "F")
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	_, err = runBothPaths(t, Config{MaxSteps: 500},
		map[string]string{"t.go": src}, []string{"t.go"}, nil, "F")
	if err != ErrSteps {
		t.Fatalf("err = %v, want ErrSteps", err)
	}
}

// TestCompiledEquivalenceUnknownImport asserts that an unknown module
// fails the boot with the tree-walk's load error.
func TestCompiledEquivalenceUnknownImport(t *testing.T) {
	runBothPaths(t, Config{}, map[string]string{"t.go": "package main\nimport \"nosuch\"\n"},
		[]string{"t.go"}, nil, "F")
}

// TestCompiledEquivalenceMutatedSource runs a trigger-wrapped mutated
// shape (the mutator's output format) through both paths with the
// trigger on and off.
func TestCompiledEquivalenceMutatedSource(t *testing.T) {
	src := `package main
func process(key any) any {
	if __fault_enabled() {
		key = nil
	} else {
		key = key
	}
	if key == nil {
		throw("KeyError", "nil key")
	}
	return "ok:" + key
}
func F() any { return process("k1") }`
	for _, enabled := range []bool{true, false} {
		setup := func(it *Interp) {
			it.Install(NewHostEnv().Func("__fault_enabled", func(it *Interp, args []Value) (Value, error) {
				return enabled, nil
			}))
		}
		runBothPaths(t, Config{}, map[string]string{"t.go": src}, []string{"t.go"}, setup, "F")
	}
}

// countingHook is a minimal CallHook: it records the sequence of enter
// and leave events, raises on a configured function, delays on another
// and rewrites the result of a third — the in-package probe for the
// hook mechanics the runtime fault engine builds on (the full engine is
// exercised dual-path in equiv_runtime_test.go).
type countingHook struct {
	events    []string
	raiseOn   string
	delayOn   string
	rewriteOn string
}

func (h *countingHook) EnterCall(it *Interp, fn string) error {
	h.events = append(h.events, "enter:"+fn)
	if fn == h.raiseOn {
		return it.Throw("HookError", "injected by hook")
	}
	if fn == h.delayOn {
		it.AdvanceClock(1_000_000_000)
	}
	return nil
}

func (h *countingHook) LeaveCall(it *Interp, fn string, result Value) (Value, error) {
	h.events = append(h.events, "leave:"+fn)
	if fn == h.rewriteOn {
		return "rewritten", nil
	}
	return result, nil
}

// TestCallHookEquivalence asserts that both execution paths drive the
// call hook through an identical event sequence, with identical raise,
// delay and result-rewrite effects.
func TestCallHookEquivalence(t *testing.T) {
	src := `
func a() any { return b() }
func b() any { return c() + 1 }
func c() any { return 1 }
func F() any {
	out := ""
	func() {
		defer func() {
			if r := recover(); r != nil {
				out = r.Type
			}
		}()
		out = str(a())
	}()
	return out + ":" + str(b())
}`
	for _, mode := range []struct {
		name string
		hook countingHook
	}{
		{"observe-only", countingHook{}},
		{"raise-on-c", countingHook{raiseOn: "c"}},
		{"delay-on-b", countingHook{delayOn: "b"}},
		{"rewrite-a", countingHook{rewriteOn: "a"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var pathHooks []*countingHook
			setup := func(it *Interp) {
				// runBothPaths creates one interpreter per path; give
				// each its own hook instance so event logs stay separate.
				h := mode.hook
				pathHooks = append(pathHooks, &h)
				it.SetCallHook(&h)
			}
			runBothPaths(t, Config{}, map[string]string{"t.go": "package main\n" + src},
				[]string{"t.go"}, setup, "F")
			if len(pathHooks) != 2 {
				t.Fatalf("expected 2 interpreters, saw %d", len(pathHooks))
			}
			tr, cp := pathHooks[0], pathHooks[1]
			if fmt.Sprint(tr.events) != fmt.Sprint(cp.events) {
				t.Errorf("hook event sequence mismatch:\n tree: %v\n comp: %v", tr.events, cp.events)
			}
		})
	}
}

// TestProgramReuseAcrossRuns checks that one compiled Program serves many
// runs with independent global state (the execute-many contract).
func TestProgramReuseAcrossRuns(t *testing.T) {
	prog, err := CompileProgram([]SourceUnit{{Name: "t.go", Src: []byte(`package main
var n = 0
func Bump() any { n = n + 1; return n }`)}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		run := NewRun(prog, Config{})
		if err := run.Boot(); err != nil {
			t.Fatal(err)
		}
		if v, err := run.Call("Bump"); err != nil || v != int64(1) {
			t.Fatalf("run %d: Bump = %v, %v (globals must reset per run)", i, v, err)
		}
	}
}

// TestWithFilesRecompilesOneUnit checks the single-file derivation used
// by text-holding callers: shared base units, swapped mutated unit.
func TestWithFilesRecompilesOneUnit(t *testing.T) {
	base, err := CompileProgram([]SourceUnit{
		{Name: "lib.go", Src: []byte("package main\nfunc helper() any { return 1 }")},
		{Name: "main.go", Src: []byte("package main\nfunc F() any { return helper() }")},
	})
	if err != nil {
		t.Fatal(err)
	}
	mutated := []byte("package main\nfunc helper() any { return 42 }")
	p2, err := base.WithFiles(map[string][]byte{"lib.go": mutated})
	if err != nil {
		t.Fatal(err)
	}
	if p2.units[1] != base.units[1] {
		t.Error("unchanged units must be shared with the base program")
	}
	run := NewRun(p2, Config{})
	if err := run.Boot(); err != nil {
		t.Fatal(err)
	}
	if v, _ := run.Call("F"); v != int64(42) {
		t.Fatalf("mutated F = %v, want 42", Repr(v))
	}
	baseRun := NewRun(base, Config{})
	if err := baseRun.Boot(); err != nil {
		t.Fatal(err)
	}
	if v, _ := baseRun.Call("F"); v != int64(1) {
		t.Fatalf("base F = %v, want 1 (base program must be untouched)", Repr(v))
	}
	// Overlay naming a file outside the program is ignored.
	p4, err := base.WithFiles(map[string][]byte{"ghost.go": []byte("package main")})
	if err != nil {
		t.Fatal(err)
	}
	if p4 != base {
		t.Error("overlay of an unknown file should return the base program")
	}
}

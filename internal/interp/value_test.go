package interp

import (
	"testing"
	"testing/quick"
)

func TestMapInsertionOrderAndDelete(t *testing.T) {
	m := NewMap()
	m.Set("b", int64(1))
	m.Set("a", int64(2))
	m.Set("c", int64(3))
	m.Set("a", int64(4)) // update must not change order
	keys := m.Keys()
	if len(keys) != 3 || keys[0] != "b" || keys[1] != "a" || keys[2] != "c" {
		t.Fatalf("keys = %v, want insertion order [b a c]", keys)
	}
	if v, ok := m.Get("a"); !ok || v != int64(4) {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	m.Delete("a")
	if _, ok := m.Get("a"); ok {
		t.Fatal("a still present after delete")
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}
	m.Delete("zz") // deleting a missing key is a no-op
	if m.Len() != 2 {
		t.Fatal("deleting missing key changed the map")
	}
}

// Property: for any key/value sequence, a Map behaves like a Go map with
// stable iteration (set-then-get returns the value; delete removes it).
func TestMapQuickProperties(t *testing.T) {
	setGet := func(keys []string, val int64) bool {
		m := NewMap()
		for _, k := range keys {
			m.Set(k, val)
			if got, ok := m.Get(k); !ok || got != val {
				return false
			}
		}
		return m.Len() <= len(keys)
	}
	if err := quick.Check(setGet, nil); err != nil {
		t.Error(err)
	}
	deleteAll := func(keys []string) bool {
		m := NewMap()
		for _, k := range keys {
			m.Set(k, true)
		}
		for _, k := range keys {
			m.Delete(k)
		}
		return m.Len() == 0 && len(m.Keys()) == 0
	}
	if err := quick.Check(deleteAll, nil); err != nil {
		t.Error(err)
	}
}

// refMap is the representation Map replaced — a Go map plus an
// insertion-ordered key slice — kept as the reference model.
type refMap struct {
	m    map[Value]Value
	keys []Value
}

func (r *refMap) set(k, v Value) {
	if _, ok := r.m[k]; !ok {
		r.keys = append(r.keys, k)
	}
	r.m[k] = v
}

func (r *refMap) del(k Value) {
	if _, ok := r.m[k]; !ok {
		return
	}
	delete(r.m, k)
	for i, kk := range r.keys {
		if kk == k {
			r.keys = append(r.keys[:i], r.keys[i+1:]...)
			break
		}
	}
}

// TestMapMatchesReferenceModel drives random set/delete sequences over
// a key space that crosses the small-map limit in both directions, with
// keys of every hashable kind (1 and 1.0 and "1" are distinct keys), and
// compares Get, Len and key order with the reference after every step.
func TestMapMatchesReferenceModel(t *testing.T) {
	keyOf := func(n uint8) Value {
		switch n % 4 {
		case 0:
			return int64(n / 4 % 6)
		case 1:
			return float64(n / 4 % 6)
		case 2:
			return string(rune('a' + n/4%6))
		default:
			return n/4%2 == 0
		}
	}
	check := func(ops []uint8) bool {
		m, ref := NewMap(), &refMap{m: map[Value]Value{}}
		for i, op := range ops {
			k := keyOf(op)
			if op >= 192 { // a quarter of the steps delete
				m.Delete(k)
				ref.del(k)
			} else {
				m.Set(k, int64(i))
				ref.set(k, int64(i))
			}
			if m.Len() != len(ref.keys) {
				return false
			}
			for j, rk := range m.Keys() {
				if rk != ref.keys[j] {
					return false
				}
				if v, ok := m.Get(rk); !ok || v != ref.m[rk] {
					return false
				}
			}
			if _, ok := m.Get(k); ok != (ref.m[k] != nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestObjectShapes pins the shape mechanics both execution paths rely on: objects
// built the same way share one shape, a late field is a transition that
// leaves siblings alone, and slot vectors grow past the inline sizes.
func TestObjectShapes(t *testing.T) {
	sh := NewShape("T", "a", "b")
	x, y := sh.New(int64(1), int64(2)), sh.New(int64(3))
	if x.TypeName() != "T" || x.shape != y.shape {
		t.Fatal("objects of one shape do not share it")
	}
	if v, ok := y.Get("b"); !ok || v != nil {
		t.Fatalf("missing trailing value = %v, %v; want nil, true", v, ok)
	}
	x.Set("c", int64(9))
	y.Set("c", int64(8))
	if x.shape != y.shape || x.shape == sh {
		t.Fatal("the same transition from the same shape must intern to one child")
	}
	if _, ok := sh.New().Get("c"); ok {
		t.Fatal("a transition leaked a field into its parent shape")
	}
	for i := 0; i < 20; i++ {
		x.Set("f"+string(rune('a'+i)), int64(i))
	}
	if v, _ := x.Get("ft"); v != int64(19) {
		t.Fatalf("wide object lost a field: ft = %v", v)
	}
	if v, _ := x.Get("a"); v != int64(1) {
		t.Fatalf("growing the slot vector lost field a: %v", v)
	}
	if v, _ := y.Get("c"); v != int64(8) {
		t.Fatalf("sibling object changed: c = %v", v)
	}
}

func TestTruthiness(t *testing.T) {
	tests := []struct {
		v    Value
		want bool
	}{
		{nil, false},
		{false, false},
		{true, true},
		{int64(0), false},
		{int64(-1), true},
		{float64(0), false},
		{float64(0.5), true},
		{"", false},
		{"x", true},
		{NewList(), false},
		{NewList(int64(1)), true},
		{NewMap(), false},
		{NewShape("T").New(), true},
	}
	for _, tc := range tests {
		if got := Truthy(tc.v); got != tc.want {
			t.Errorf("Truthy(%v) = %v, want %v", Repr(tc.v), got, tc.want)
		}
	}
}

func TestEqualMixedNumerics(t *testing.T) {
	if !Equal(int64(3), float64(3)) {
		t.Error("3 == 3.0 should hold")
	}
	if Equal(int64(3), "3") {
		t.Error("3 == \"3\" should not hold")
	}
	if !Equal(NewList(int64(1), "a"), NewList(int64(1), "a")) {
		t.Error("deep list equality failed")
	}
	if Equal(NewList(int64(1)), NewList(int64(2))) {
		t.Error("lists with different elements compare equal")
	}
	a := NewMap()
	a.Set("k", int64(1))
	b := NewMap()
	b.Set("k", int64(1))
	if !Equal(a, b) {
		t.Error("deep map equality failed")
	}
	b.Set("k2", int64(2))
	if Equal(a, b) {
		t.Error("maps of different size compare equal")
	}
	if !Equal(&Exc{Type: "E", Msg: "m"}, &Exc{Type: "E", Msg: "m"}) {
		t.Error("exception equality failed")
	}
}

// Property: Equal is reflexive for scalar values, and Repr is stable.
func TestEqualReprQuickProperties(t *testing.T) {
	reflexive := func(i int64, f float64, s string, b bool) bool {
		return Equal(i, i) && Equal(f, f) && Equal(s, s) && Equal(b, b)
	}
	if err := quick.Check(reflexive, nil); err != nil {
		t.Error(err)
	}
	stableRepr := func(i int64, s string) bool {
		l := NewList(i, s)
		return Repr(l) == Repr(l)
	}
	if err := quick.Check(stableRepr, nil); err != nil {
		t.Error(err)
	}
}

func TestTypeNames(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{nil, "nil"},
		{true, "bool"},
		{int64(1), "int"},
		{1.5, "float"},
		{"s", "string"},
		{NewList(), "list"},
		{NewMap(), "map"},
		{NewShape("Client").New(), "Client"},
		{&Exc{}, "exception"},
		{&Tuple{}, "tuple"},
		{NewModule("m"), "module"},
		{&HostFunc{}, "func"},
	}
	for _, tc := range tests {
		if got := TypeName(tc.v); got != tc.want {
			t.Errorf("TypeName(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestScopeChainAndFuncRoot(t *testing.T) {
	root := NewScope(nil)
	root.funcRoot = true
	inner := NewScope(root)
	deeper := NewScope(inner)

	deeper.DefineAtFuncRoot("x", int64(1))
	if _, ok := root.vars["x"]; !ok {
		t.Error("DefineAtFuncRoot should bind at the function root")
	}
	if v, ok := deeper.Lookup("x"); !ok || v != int64(1) {
		t.Error("lookup through the chain failed")
	}
	if !inner.Assign("x", int64(2)) {
		t.Error("Assign should find the binding in an ancestor")
	}
	if v, _ := root.Lookup("x"); v != int64(2) {
		t.Error("Assign did not update the root binding")
	}
	if deeper.Assign("missing", int64(3)) {
		t.Error("Assign of an unknown name should fail")
	}

	// Without a funcRoot in the chain, DefineAtFuncRoot binds locally.
	orphan := NewScope(nil)
	orphan.DefineAtFuncRoot("y", true)
	if _, ok := orphan.vars["y"]; !ok {
		t.Error("orphan DefineAtFuncRoot should bind locally")
	}
}

func TestReprFormats(t *testing.T) {
	m := NewMap()
	m.Set("b", int64(2))
	m.Set("a", int64(1))
	// Repr sorts map entries for determinism regardless of insertion.
	if got := Repr(m); got != "map[a:1 b:2]" {
		t.Errorf("Repr(map) = %q", got)
	}
	if got := Repr(NewList(int64(1), "x", nil)); got != "[1 x nil]" {
		t.Errorf("Repr(list) = %q", got)
	}
	if got := Repr(&Tuple{Elems: []Value{int64(1), int64(2)}}); got != "(1, 2)" {
		t.Errorf("Repr(tuple) = %q", got)
	}
	if got := Repr(&Exc{Type: "E", Msg: "m"}); got != "E: m" {
		t.Errorf("Repr(exc) = %q", got)
	}
}

func TestFormatValueVerbs(t *testing.T) {
	got := FormatValue("a=%s b=%d c=%v pct=%% q=%q", []Value{"x", int64(3), true, "z"})
	if got != `a=x b=3 c=true pct=% q="z"` {
		t.Errorf("FormatValue = %q", got)
	}
	// Missing arguments render as nil; unknown verbs pass through.
	if got := FormatValue("%s %Z", []Value{}); got != "nil %Z" {
		t.Errorf("FormatValue = %q", got)
	}
}

package interp

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func run(t *testing.T, src string, entry string, args ...Value) (Value, error) {
	t.Helper()
	it := New(Config{})
	if err := it.LoadSource("test.go", []byte("package main\n"+src)); err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	return it.Call(entry, args...)
}

func mustRun(t *testing.T, src, entry string, args ...Value) Value {
	t.Helper()
	v, err := run(t, src, entry, args...)
	if err != nil {
		t.Fatalf("Call(%s): %v", entry, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		expr string
		want Value
	}{
		{"1 + 2*3", int64(7)},
		{"10 / 3", int64(3)},
		{"10 % 3", int64(1)},
		{"2.5 + 1", float64(3.5)},
		{"7 - 10", int64(-3)},
		{"1 < 2", true},
		{"2 <= 2", true},
		{"3 > 4", false},
		{`"a" + "b"`, "ab"},
		{`"abc" < "abd"`, true},
		{"1 == 1.0", true},
		{"-5 + 2", int64(-3)},
		{"!true", false},
		{"1<<4", int64(16)},
		{"255 & 15", int64(15)},
	}
	for _, tc := range tests {
		got := mustRun(t, "func F() any { return "+tc.expr+" }", "F")
		if !Equal(got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.expr, Repr(got), Repr(tc.want))
		}
	}
}

func TestDivisionByZeroRaises(t *testing.T) {
	_, err := run(t, "func F(n int) any { return 1 / n }", "F", int64(0))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	exc, ok := pe.Exception()
	if !ok || exc.Type != "ZeroDivisionError" {
		t.Fatalf("exception = %v, want ZeroDivisionError", pe.Val)
	}
}

func TestTypeErrorOnMixedOperands(t *testing.T) {
	_, err := run(t, `func F(s string) any { return s + 1 }`, "F", "x")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if exc, _ := pe.Exception(); exc.Type != "TypeError" {
		t.Fatalf("exception = %v, want TypeError", pe.Val)
	}
}

func TestNilAttributeError(t *testing.T) {
	// The AttributeError analog of Python-etcd's missing nil checks.
	_, err := run(t, `func F(k any) any { return k.Name }`, "F", nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	exc, _ := pe.Exception()
	if exc.Type != "AttributeError" || !strings.Contains(exc.Msg, "nil object") {
		t.Fatalf("exception = %v, want nil AttributeError", pe.Val)
	}
}

func TestUnboundLocalError(t *testing.T) {
	_, err := run(t, `func F() any { return undefinedVar }`, "F")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	exc, _ := pe.Exception()
	if exc.Type != "UnboundLocalError" {
		t.Fatalf("exception = %v, want UnboundLocalError", pe.Val)
	}
}

func TestListsAndMaps(t *testing.T) {
	src := `
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
}`
	got := mustRun(t, src, "F")
	if got != int64(13) {
		t.Fatalf("F() = %v, want 13", got)
	}
}

func TestMapCommaOk(t *testing.T) {
	src := `
func F() any {
	m := map[string]any{"x": 10}
	v, ok := m["x"]
	_, missing := m["y"]
	if ok && !missing {
		return v
	}
	return -1
}`
	if got := mustRun(t, src, "F"); got != int64(10) {
		t.Fatalf("F() = %v, want 10", got)
	}
}

func TestStructsAndMethods(t *testing.T) {
	src := `
type Counter struct{}

func NewCounter(start int) any {
	return &Counter{n: start}
}

func (c *Counter) Add(d int) any {
	c.n = c.n + d
	return c.n
}

func (c *Counter) Value() any {
	return c.n
}

func F() any {
	c := NewCounter(5)
	c.Add(3)
	c.Add(2)
	return c.Value()
}`
	if got := mustRun(t, src, "F"); got != int64(10) {
		t.Fatalf("F() = %v, want 10", got)
	}
}

func TestClosures(t *testing.T) {
	src := `
func Adder(n int) any {
	return func(x int) any { return x + n }
}

func F() any {
	add5 := Adder(5)
	return add5(37)
}`
	if got := mustRun(t, src, "F"); got != int64(42) {
		t.Fatalf("F() = %v, want 42", got)
	}
}

func TestMultiReturnAndUnpack(t *testing.T) {
	src := `
func divmod(a int, b int) (any, any) {
	return a / b, a % b
}

func F() any {
	q, r := divmod(17, 5)
	return q*10 + r
}`
	if got := mustRun(t, src, "F"); got != int64(32) {
		t.Fatalf("F() = %v, want 32", got)
	}
}

func TestPanicRecover(t *testing.T) {
	src := `
func risky() any {
	panic(__mkexc())
}

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
}`
	it := New(Config{})
	it.Install(NewHostEnv().Func("__mkexc", func(it *Interp, args []Value) (Value, error) {
		return &Exc{Type: "EtcdException", Msg: "boom"}, nil
	}))
	if err := it.LoadSource("t.go", []byte("package main\n"+src)); err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	got, err := it.Call("F")
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got != "recovered: EtcdException" {
		t.Fatalf("F() = %v, want recovered: EtcdException", got)
	}
}

func TestUncaughtPanicPropagates(t *testing.T) {
	src := `
func inner() any { return missing.Field }
func outer() any { return inner() }
`
	_, err := run(t, src, "outer")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if len(pe.Stack) == 0 || pe.Stack[0] != "inner" {
		t.Fatalf("stack = %v, want innermost frame first", pe.Stack)
	}
}

func TestThrowBuiltin(t *testing.T) {
	_, err := run(t, `func F() any { throw("EtcdKeyNotFound", "key missing"); return nil }`, "F")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	exc, _ := pe.Exception()
	if exc.Type != "EtcdKeyNotFound" || exc.Msg != "key missing" {
		t.Fatalf("exception = %v", pe.Val)
	}
}

func TestDeferRunsOnNormalReturn(t *testing.T) {
	src := `
func F() any {
	log := []any{}
	func() {
		defer func() { __note("deferred") }()
		__note("body")
	}()
	return log
}`
	var notes []string
	it := New(Config{})
	it.Install(NewHostEnv().Func("__note", func(it *Interp, args []Value) (Value, error) {
		notes = append(notes, Repr(args[0]))
		return nil, nil
	}))
	if err := it.LoadSource("t.go", []byte("package main\n"+src)); err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	if _, err := it.Call("F"); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if len(notes) != 2 || notes[0] != "body" || notes[1] != "deferred" {
		t.Fatalf("notes = %v, want [body deferred]", notes)
	}
}

func TestVirtualDeadline(t *testing.T) {
	it := New(Config{DeadlineNS: 1_000_000}) // 1ms of virtual time
	src := `package main
func F() any {
	for {
		x := 1
		_ = x
	}
	return nil
}`
	if err := it.LoadSource("t.go", []byte(src)); err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	_, err := it.Call("F")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestStepBudget(t *testing.T) {
	it := New(Config{MaxSteps: 1000})
	src := `package main
func F() any {
	for {
	}
	return nil
}`
	if err := it.LoadSource("t.go", []byte(src)); err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	_, err := it.Call("F")
	if !errors.Is(err, ErrSteps) {
		t.Fatalf("err = %v, want ErrSteps", err)
	}
}

func TestTimeoutNotRecoverable(t *testing.T) {
	// A deferred recover must not squash a virtual timeout.
	it := New(Config{DeadlineNS: 1_000_000})
	src := `package main
func F() any {
	defer func() { recover() }()
	for {
	}
	return nil
}`
	if err := it.LoadSource("t.go", []byte(src)); err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	_, err := it.Call("F")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestModulesAndImports(t *testing.T) {
	it := New(Config{})
	mod := NewModule("urllib")
	mod.Func("Get", func(it *Interp, args []Value) (Value, error) {
		return "response:" + Repr(args[0]), nil
	})
	it.Install(NewHostEnv().Module(mod))
	src := `package main

import "urllib"

func F() any {
	return urllib.Get("/key")
}`
	if err := it.LoadSource("t.go", []byte(src)); err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	got, err := it.Call("F")
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got != "response:/key" {
		t.Fatalf("F() = %v", got)
	}
}

func TestUnknownImportFails(t *testing.T) {
	it := New(Config{})
	err := it.LoadSource("t.go", []byte("package main\nimport \"nosuch\"\n"))
	if err == nil || !strings.Contains(err.Error(), "unknown module") {
		t.Fatalf("err = %v, want unknown module", err)
	}
}

func TestSwitch(t *testing.T) {
	src := `
func F(n int) any {
	switch n {
	case 1:
		return "one"
	case 2, 3:
		return "few"
	default:
		return "many"
	}
}`
	for _, tc := range []struct {
		n    int64
		want string
	}{{1, "one"}, {2, "few"}, {3, "few"}, {9, "many"}} {
		if got := mustRun(t, src, "F", tc.n); got != tc.want {
			t.Errorf("F(%d) = %v, want %s", tc.n, got, tc.want)
		}
	}
}

func TestTaglessSwitch(t *testing.T) {
	src := `
func F(n int) any {
	switch {
	case n < 0:
		return "neg"
	case n == 0:
		return "zero"
	default:
		return "pos"
	}
}`
	if got := mustRun(t, src, "F", int64(-5)); got != "neg" {
		t.Errorf("F(-5) = %v", got)
	}
	if got := mustRun(t, src, "F", int64(0)); got != "zero" {
		t.Errorf("F(0) = %v", got)
	}
}

func TestStringHelpersAndSlices(t *testing.T) {
	src := `
import "strlib"

func F() any {
	s := "hello-world"
	if !strlib.HasPrefix(s, "hello") {
		return "bad prefix"
	}
	parts := strlib.Split(s, "-")
	return parts[1] + s[0:5] + str(len(s))
}`
	if got := mustRun(t, src, "F"); got != "worldhello11" {
		t.Fatalf("F() = %v", got)
	}
}

func TestStrlibNilRaisesAttributeError(t *testing.T) {
	src := `
import "strlib"

func F(k any) any {
	return strlib.HasPrefix(k, "/")
}`
	_, err := run(t, src, "F", nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	exc, _ := pe.Exception()
	if exc.Type != "AttributeError" || !strings.Contains(exc.Msg, "startswith") {
		t.Fatalf("exception = %v, want startswith AttributeError", pe.Val)
	}
}

func TestPrintGoesToStdout(t *testing.T) {
	var buf bytes.Buffer
	it := New(Config{Stdout: &buf})
	src := `package main
func F() any {
	println("hello", 42)
	return nil
}`
	if err := it.LoadSource("t.go", []byte(src)); err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	if _, err := it.Call("F"); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got := buf.String(); got != "hello 42\n" {
		t.Fatalf("stdout = %q", got)
	}
}

func TestGlobalsAndVirtualClock(t *testing.T) {
	it := New(Config{StepNS: 1000})
	src := `package main

var counter = 0

func Bump() any {
	counter = counter + 1
	return counter
}`
	if err := it.LoadSource("t.go", []byte(src)); err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	before := it.Clock()
	if _, err := it.Call("Bump"); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got, _ := it.Call("Bump"); got != int64(2) {
		t.Fatalf("Bump = %v, want 2 (globals persist across calls)", got)
	}
	if it.Clock() <= before {
		t.Error("virtual clock did not advance")
	}
}

func TestRecursionDepthLimited(t *testing.T) {
	_, err := run(t, `func F() any { return F() }`, "F")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	exc, _ := pe.Exception()
	if exc.Type != "RecursionError" {
		t.Fatalf("exception = %v, want RecursionError", pe.Val)
	}
}

// TestValueSizeLimited: list +, append and string + raise MemoryError
// past their bounds on both engines. The first source is the committed
// FuzzForkEquivalence crasher, which doubles a list per iteration and,
// unbounded, ran the process out of memory long before MaxSteps.
func TestValueSizeLimited(t *testing.T) {
	for name, src := range map[string]string{
		"list+":   "func F(){fs=[]A{}\nfor i=0;i<1;{j=0\nfs+=append(fs,func(){j})}}",
		"append":  "func F(){l=[]any{1}\nfor i:=0;i<18;i++{l=l+l}\nl=append(l,1)}",
		"string+": "func F(){s=\"x\"\nfor i:=0;i<24;i++{s+=s}\ns+=\"x\"}",
	} {
		src = "package main\n" + src
		tree := New(Config{})
		if err := tree.LoadSource("t.go", []byte(src)); err != nil {
			t.Fatalf("%s: LoadSource: %v", name, err)
		}
		_, terr := tree.Call("F")
		prog, err := CompileProgram([]SourceUnit{{Name: "t.go", Src: []byte(src)}})
		if err != nil {
			t.Fatalf("%s: CompileProgram: %v", name, err)
		}
		it := NewRun(prog, Config{})
		if err := it.Boot(); err != nil {
			t.Fatalf("%s: Boot: %v", name, err)
		}
		_, cerr := it.Call("F")
		for engine, err := range map[string]error{"tree-walk": terr, "compiled": cerr} {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s on %s: err = %v, want PanicError", name, engine, err)
			}
			if exc, _ := pe.Exception(); exc.Type != "MemoryError" {
				t.Errorf("%s on %s: exception = %v, want MemoryError", name, engine, pe.Val)
			}
		}
	}
}

func TestFmtSprintf(t *testing.T) {
	src := `
import "fmt"

func F() any {
	return fmt.Sprintf("key=%s n=%d ok=%v", "a", 7, true)
}`
	if got := mustRun(t, src, "F"); got != "key=a n=7 ok=true" {
		t.Fatalf("F() = %v", got)
	}
}

func TestIndexErrors(t *testing.T) {
	_, err := run(t, `func F() any { xs := []any{1}; return xs[5] }`, "F")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if exc, _ := pe.Exception(); exc.Type != "IndexError" {
		t.Fatalf("exception = %v, want IndexError", pe.Val)
	}
}

func TestRangeOverNilRaises(t *testing.T) {
	_, err := run(t, `func F(xs any) any { for _, x := range xs { _ = x }; return nil }`, "F", nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if exc, _ := pe.Exception(); exc.Type != "TypeError" {
		t.Fatalf("exception = %v, want TypeError", pe.Val)
	}
}

func TestCompoundAssignAndIncDec(t *testing.T) {
	src := `
func F() any {
	x := 10
	x += 5
	x -= 3
	x *= 2
	x++
	x--
	return x
}`
	if got := mustRun(t, src, "F"); got != int64(24) {
		t.Fatalf("F() = %v, want 24", got)
	}
}

func TestMissingArgumentsDefaultToNil(t *testing.T) {
	// Omitted-parameter faults rely on missing args becoming nil.
	src := `
func G(a any, b any) any {
	if b == nil {
		return "default"
	}
	return b
}

func F() any {
	return G(1)
}`
	if got := mustRun(t, src, "F"); got != "default" {
		t.Fatalf("F() = %v, want default", got)
	}
}

func TestDeferArgsEvaluatedAtDeferTime(t *testing.T) {
	src := `
func F() any {
	log := []any{}
	x := 1
	func() {
		defer __note(x)
		x = 2
		__note(x)
	}()
	_ = log
	return nil
}`
	var notes []Value
	it := New(Config{})
	it.Install(NewHostEnv().Func("__note", func(it *Interp, args []Value) (Value, error) {
		notes = append(notes, args[0])
		return nil, nil
	}))
	if err := it.LoadSource("t.go", []byte("package main\n"+src)); err != nil {
		t.Fatal(err)
	}
	if _, err := it.Call("F"); err != nil {
		t.Fatal(err)
	}
	// Go semantics: deferred args are captured when the defer runs, so
	// the deferred note sees x=1 even though x became 2.
	if len(notes) != 2 || notes[0] != int64(2) || notes[1] != int64(1) {
		t.Fatalf("notes = %v, want [2 1]", notes)
	}
}

func TestGoStatementRunsSynchronously(t *testing.T) {
	src := `
func F() any {
	total := 0
	go bump()
	return total
}`
	it := New(Config{})
	bumped := false
	it.Install(NewHostEnv().Func("bump", func(it *Interp, args []Value) (Value, error) {
		bumped = true
		return nil, nil
	}))
	if err := it.LoadSource("t.go", []byte("package main\n"+src)); err != nil {
		t.Fatal(err)
	}
	if _, err := it.Call("F"); err != nil {
		t.Fatal(err)
	}
	if !bumped {
		t.Error("go statement body did not run (minigo runs goroutines synchronously)")
	}
}

func TestMethodChainsThroughFields(t *testing.T) {
	src := `
type Inner struct{}

func (i *Inner) Get() any { return i.val }

type Outer struct{}

func F() any {
	inner := &Inner{val: 42}
	outer := &Outer{child: inner}
	return outer.child.Get()
}`
	if got := mustRun(t, src, "F"); got != int64(42) {
		t.Fatalf("F() = %v, want 42", got)
	}
}

func TestSwitchWithInitAndIfInit(t *testing.T) {
	src := `
func classify(n int) any {
	switch v := n * 2; v {
	case 4:
		return "four"
	default:
		return "other"
	}
}

func F() any {
	if w := classify(2); w == "four" {
		return "ok"
	}
	return "bad"
}`
	if got := mustRun(t, src, "F"); got != "ok" {
		t.Fatalf("F() = %v", got)
	}
}

func TestPanicInsideDeferReplacesPanic(t *testing.T) {
	src := `
func F() any {
	defer failAgain()
	panic(__exc2("First", "original"))
}

func failAgain() any {
	panic(__exc2("Second", "from defer"))
}`
	it := New(Config{})
	it.Install(NewHostEnv().Func("__exc2", func(it *Interp, args []Value) (Value, error) {
		return &Exc{Type: Repr(args[0]), Msg: Repr(args[1])}, nil
	}))
	if err := it.LoadSource("t.go", []byte("package main\n"+src)); err != nil {
		t.Fatal(err)
	}
	_, err := it.Call("F")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v", err)
	}
	if exc, _ := pe.Exception(); exc.Type != "Second" {
		t.Fatalf("exception = %v, want the defer's panic to win", pe.Val)
	}
}

func TestStringSliceAndIndexChaining(t *testing.T) {
	src := `
func F() any {
	s := "hello world"
	head := s[0:5]
	return head + "-" + s[6:11] + "-" + s[0]
}`
	if got := mustRun(t, src, "F"); got != "hello-world-h" {
		t.Fatalf("F() = %v", got)
	}
}

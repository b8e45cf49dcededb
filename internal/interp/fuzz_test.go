package interp

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// FuzzEngineEquivalence is the differential fuzz target of the compiled
// path against its oracle: every program the tree-walk loads must behave
// identically when compiled — same result rendering, same error text,
// same step count, same virtual clock, same stdout bytes. The tree-walk
// is what defines a record's bytes, so any divergence the fuzzer finds
// here is a record-corrupting bug. Each program also runs in its
// decl-derived form (every function re-spliced through WithDecl), so
// the derivation campaigns use is held to the same oracle.
//
// Programs that fail to parse or load are skipped: the front end is
// shared, so there is nothing differential to check. MaxSteps bounds
// runaway loops the fuzzer invents.
func FuzzEngineEquivalence(f *testing.F) {
	seeds := []string{
		// Arithmetic, comparisons, truthiness.
		"func F() any { s := 0\nfor i := 0; i < 10; i++ { s = s + i*i }\nreturn s }",
		"func F() any { if 0.5 + 0.25 > 0.7 { return \"y\" }\nreturn \"n\" }",
		"func F() any { return 7 / 2 + 7 % 2 }",
		// Exceptions: div by zero, type errors, explicit panic/recover.
		"func F() any { return 1 / 0 }",
		"func F() any { return \"a\" - 1 }",
		"func F() any { defer func() { recover() }()\npanic(\"boom\") }",
		"func G() { panic(\"deep\") }\nfunc F() any { G()\nreturn 1 }",
		// UnboundLocalError and scoping quirks.
		"func F() any { if false { x := 1\n_ = x }\nreturn x }",
		"var g = 10\nfunc F() any { g = g + 1\nreturn g }",
		// Closures, captures, cells.
		"func F() any { n := 0\ninc := func() { n = n + 1 }\ninc()\ninc()\nreturn n }",
		"func F() any { fs := []any{}\nfor i := 0; i < 3; i++ { j := i\nfs = append(fs, func() any { return j }) }\nreturn fs[2]() }",
		// Collections and ranges.
		"func F() any { m := map[string]any{\"a\": 1, \"b\": 2}\ns := 0\nfor _, v := range m { s = s + v }\nreturn s }",
		"func F() any { xs := []any{1, 2, 3}\nxs[1] = 9\nreturn xs[0] + xs[1] + xs[2] }",
		"func F() any { s := \"hello\"\nreturn s[1:4] + s[0:1] }",
		// Methods and structs.
		"type P struct{}\nfunc (p P) Add(a any, b any) any { return a + b }\nfunc F() any { p := P{}\nreturn p.Add(2, 3) }",
		// Object shapes: late fields, differing field orders, a field
		// shadowing a method, callee lookup before argument evaluation.
		"type T struct{}\nfunc F() any { t := &T{a: 1}\nt.b = 2\nu := new(T)\nu.b = 3\nu.a = 4\nreturn t.a + t.b*10 + u.a*100 + u.b*1000 }",
		"type T struct{}\nfunc mk(f any) any { if f { return &T{b: 2, a: 1} }\nreturn &T{a: 1, b: 2} }\nfunc F() any { x := mk(true)\ny := mk(false)\nx.c = 3\nreturn x.a - x.b + x.c + y.a - y.b + y.c }",
		"type T struct{}\nfunc (t *T) m(x any) any { return x + 1 }\nfunc F() any { t := &T{}\ng := func() any { t.m = func(x any) any { return x + 100 }\nreturn 1 }\nreturn t.m(g()) + t.m(1) }",
		"type T struct{}\nfunc (t *T) v() any { return 1 }\nfunc F() any { t := &T{v: 5, v: 6}\nreturn t.v() }",
		// Maps across the small-map limit: growth, delete + reinsert order.
		"func F() any { m := map[any]any{}\nfor i := 0; i < 20; i++ { m[i] = i * i }\ndelete(m, 3)\nm[3] = -1\ndelete(m, 19)\ns := \"\"\nfor k, v := range m { s = s + str(k) + \":\" + str(v) + \" \" }\nreturn s + str(len(m)) }",
		"func F() any { m := map[string]any{\"a\": 1, \"b\": 2, \"c\": 3}\ndelete(m, \"a\")\nm[\"a\"] = 4\nv, ok := m[\"zz\"]\nreturn str(keys(m)) + str(v) + str(ok) + str(contains(m, \"b\")) }",
		// Defer ordering and virtual clock.
		"func F() any { r := []any{}\ndefer func() { r = append(r, 1) }()\ndefer func() { r = append(r, 2) }()\nreturn len(r) }",
		"func F() any { sleep(5)\nreturn now() }",
		// Deep recursion (bounded) and step budget pressure.
		"func R(n any) any { if n <= 0 { return 0 }\nreturn R(n-1) + 1 }\nfunc F() any { return R(50) }",
		"func F() any { for { } }",
		// Builtins.
		"func F() any { return len(str(123)) + int(\"42\") }",
		"import \"fmt\"\nfunc F() any { fmt.Println(\"x\", 1)\nreturn fmt.Sprintf(\"%d\", 9) }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		src := []byte("package main\n" + body)
		const maxSteps = 50_000

		var treeOut bytes.Buffer
		tree := New(Config{MaxSteps: maxSteps, Stdout: &treeOut})
		if err := tree.LoadSource("fuzz.go", src); err != nil {
			return // front end rejected it; nothing differential to run
		}
		treeVal, treeErr := tree.Call("F")

		prog, err := CompileProgram([]SourceUnit{{Name: "fuzz.go", Src: src}})
		if err != nil {
			t.Fatalf("tree-walk loaded but CompileProgram failed: %v\nsource:\n%s", err, src)
		}
		// The decl-derived variant: every function of the file spliced
		// back in through WithDecl, one fresh compileFunc each, the way
		// a campaign derives its mutants.
		derived := prog
		file, err := parser.ParseFile(token.NewFileSet(), "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("tree-walk loaded but the source does not parse: %v", err)
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if derived, err = derived.WithDecl("fuzz.go", fd, src); err != nil {
					t.Fatalf("WithDecl(%s): %v\nsource:\n%s", fd.Name.Name, err, src)
				}
			}
		}
		for _, v := range []struct {
			name string
			prog *Program
		}{{"compiled", prog}, {"decl-derived", derived}} {
			var out bytes.Buffer
			run := NewRun(v.prog, Config{MaxSteps: maxSteps, Stdout: &out})
			if err := run.Boot(); err != nil {
				t.Fatalf("%s: tree-walk loaded but Boot failed: %v\nsource:\n%s", v.name, err, src)
			}
			val, cerr := run.Call("F")
			if Repr(treeVal) != Repr(val) {
				t.Errorf("%s: result mismatch:\n tree: %s\n  got: %s\nsource:\n%s", v.name, Repr(treeVal), Repr(val), src)
			}
			if fmt.Sprint(treeErr) != fmt.Sprint(cerr) {
				t.Errorf("%s: error mismatch:\n tree: %v\n  got: %v\nsource:\n%s", v.name, treeErr, cerr, src)
			}
			if tree.Steps() != run.Steps() {
				t.Errorf("%s: step count mismatch: tree=%d got=%d\nsource:\n%s", v.name, tree.Steps(), run.Steps(), src)
			}
			if tree.Clock() != run.Clock() {
				t.Errorf("%s: clock mismatch: tree=%d got=%d\nsource:\n%s", v.name, tree.Clock(), run.Clock(), src)
			}
			if !bytes.Equal(treeOut.Bytes(), out.Bytes()) {
				t.Errorf("%s: stdout mismatch:\n tree: %q\n  got: %q\nsource:\n%s", v.name, treeOut.String(), out.String(), src)
			}
		}
	})
}

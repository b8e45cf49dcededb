package interp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// Program derivation: campaigns derive hundreds of programs that differ
// from the base inside one function, so a derivation handed the mutated
// declaration as a tree (WithDecl) compiles just that declaration; text
// (WithFiles) recompiles the file whole. These tests pin the declaration
// path's engagement, its equivalence with a full recompile, the text
// front end and the tree-walk, and the reason every whole-file recompile
// is counted under.

const incrBase = `package main

import "fmt"

var limit = 3

func helper(x any) any {
	return x + 1
}

type Box struct{}

func (b Box) Get(n any) any {
	s := 0
	for i := 0; i < n; i++ {
		s = s + helper(i)
	}
	return s
}

func Entry(n any) any {
	b := Box{}
	fmt.Sprintf("%v", limit)
	return b.Get(n) + limit
}
`

func incrProgram(t *testing.T, src string) *Program {
	t.Helper()
	p, err := CompileProgram([]SourceUnit{{Name: "t.go", Src: []byte(src)}})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func incrCall(t *testing.T, p *Program, fn string, args ...Value) (Value, error) {
	t.Helper()
	it := NewRun(p, Config{})
	if err := it.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	return it.Call(fn, args...)
}

// incrTree runs src on the tree-walk, the reference the spliced program
// must agree with.
func incrTree(t *testing.T, src []byte, fn string, args ...Value) (Value, error) {
	t.Helper()
	it := New(Config{})
	if err := it.LoadSource("t.go", src); err != nil {
		t.Fatalf("tree-walk load: %v", err)
	}
	return it.Call(fn, args...)
}

// mutate splices old->new once, failing if the needle is absent.
func mutate(t *testing.T, src, old, new string) []byte {
	t.Helper()
	if !strings.Contains(src, old) {
		t.Fatalf("needle %q not in source", old)
	}
	return []byte(strings.Replace(src, old, new, 1))
}

// declOf parses src and returns its top-level function (or method) name.
func declOf(t *testing.T, src []byte, name string) *ast.FuncDecl {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "t.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("no function %s in source", name)
	return nil
}

// TestIncrementalRecompileEngages: a derivation recompiles only the
// declaration it was handed. Besides behaving like a full recompile,
// the spliced program shares with the base everything the edit
// did not touch — the other files, the table of the other declaration
// kind (functions for a method edit, methods for a function edit) and
// the compiled code of every other function.
func TestIncrementalRecompileEngages(t *testing.T) {
	compile := func(src string) *Program {
		t.Helper()
		p, err := CompileProgram([]SourceUnit{
			{Name: "t.go", Src: []byte(src)},
			{Name: "o.go", Src: []byte("package main\n\nfunc other() any { return 7 }\n")},
		})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return p
	}
	cases := []struct {
		name, decl, old, new string
		method               bool
	}{
		{"plain function body", "helper", "return x + 1", "return x + 2", false},
		{"method body", "Get", "s = s + helper(i)", "s = s - helper(i)", true},
		{"shrinking edit", "Get", "s := 0\n\tfor i := 0; i < n; i++ {\n\t\ts = s + helper(i)\n\t}\n\treturn s", "return n", true},
		{"growing edit", "Entry", "return b.Get(n) + limit", "x := b.Get(n)\n\tx = x * 2\n\treturn x + limit", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := compile(incrBase)
			mutated := mutate(t, incrBase, tc.old, tc.new)
			fd := declOf(t, mutated, tc.decl)
			np, err := base.WithDecl("t.go", fd, mutated)
			if err != nil {
				t.Fatalf("WithDecl: %v", err)
			}
			if decl, file := base.MutantCompiles(); decl != 1 || len(file) != 0 {
				t.Fatalf("compiles = %d decl, %v file; want 1 decl (declaration path did not engage)", decl, file)
			}
			if np.units[1] != base.units[1] {
				t.Error("a file the edit did not touch was recompiled")
			}
			bu, nu := base.units[0], np.units[0]
			if tc.method && &nu.ops[0] != &bu.ops[0] {
				t.Error("a method edit copied the function table")
			}
			if !tc.method && reflect.ValueOf(nu.methods).Pointer() != reflect.ValueOf(bu.methods).Pointer() {
				t.Error("a function edit copied the method table")
			}
			site := bu.sites[bu.siteOf(fd)]
			head, tail := bu.allFns[:site.fnsLo], bu.allFns[site.fnsHi:]
			for i, fn := range head {
				if nu.allFns[i] != fn {
					t.Errorf("%s before the edited declaration was recompiled", fn.name)
				}
			}
			for i, fn := range tail {
				if nu.allFns[len(nu.allFns)-len(tail)+i] != fn {
					t.Errorf("%s after the edited declaration was recompiled", fn.name)
				}
			}
			gv, ge := incrCall(t, np, "Entry", int64(4))
			if wv, we := incrCall(t, compile(string(mutated)), "Entry", int64(4)); gv != wv || (ge == nil) != (we == nil) {
				t.Errorf("spliced Entry(4) = (%v, %v), full recompile = (%v, %v)", gv, ge, wv, we)
			}
		})
	}
}

// TestIncrementalRecompileRepeated drives a chain of derivations off one
// base, the way a campaign does, and checks each splice lands on the
// declaration the edit touched.
func TestIncrementalRecompileRepeated(t *testing.T) {
	base := incrProgram(t, incrBase)
	edits := []struct{ decl, old, new string }{
		{"helper", "return x + 1", "return x + 100"},
		{"Get", "s = s + helper(i)", "s = s + helper(i) + 1"},
		{"Entry", "return b.Get(n) + limit", "return b.Get(n) - limit"},
	}
	for i, e := range edits {
		mutated := mutate(t, incrBase, e.old, e.new)
		np, err := base.WithDecl("t.go", declOf(t, mutated, e.decl), mutated)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		want := incrProgram(t, string(mutated))
		gv, _ := incrCall(t, np, "Entry", int64(5))
		wv, _ := incrCall(t, want, "Entry", int64(5))
		if gv != wv {
			t.Errorf("edit %d: Entry(5) = %v, want %v", i, gv, wv)
		}
	}
	if decl, file := base.MutantCompiles(); decl != uint64(len(edits)) || len(file) != 0 {
		t.Errorf("compiles = %d decl, %v file; want %d decl", decl, file, len(edits))
	}
}

// TestIncrementalRecompileFallbacks: text never reaches the declaration
// path. Whatever the edit's shape, WithFiles recompiles the file, counted
// as no_decl unless the file gained a top-level name, and a file that
// does not parse fails the derivation.
func TestIncrementalRecompileFallbacks(t *testing.T) {
	cases := []struct {
		name   string
		reason string
		src    func() []byte
	}{
		{"function body", "no_decl", func() []byte {
			return mutate(t, incrBase, "return x + 1", "return x + 2")
		}},
		{"edit outside any function", "no_decl", func() []byte {
			return mutate(t, incrBase, "var limit = 3", "var limit = 4")
		}},
		{"renamed function", "new_name", func() []byte {
			return mutate(t, incrBase, "func helper(x any) any {\n\treturn x + 1",
				"func helper2(x any) any {\n\treturn x + 9")
		}},
		{"renamed method", "no_decl", func() []byte {
			return mutate(t, incrBase, "func (b Box) Get(n any) any {\n\ts := 0",
				"func (b Box) Got(n any) any {\n\ts := 1")
		}},
		{"window spanning two decls", "no_decl", func() []byte {
			return mutate(t, incrBase, "return x + 1\n}\n\ntype Box struct{}\n\nfunc (b Box) Get(n any) any {\n\ts := 0",
				"return x + 7\n}\n\ntype Box struct{}\n\nfunc (b Box) Get(n any) any {\n\ts := 9")
		}},
		{"appended declaration", "new_name", func() []byte {
			return []byte(incrBase + "\nfunc extra() any { return 1 }\n")
		}},
		{"syntax error in body", "no_decl", func() []byte {
			return mutate(t, incrBase, "return x + 1", "return x +")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := incrProgram(t, incrBase)
			mutated := tc.src()
			np, err := base.WithFiles(map[string][]byte{"t.go": mutated})
			if decl, file := base.MutantCompiles(); decl != 0 || !reflect.DeepEqual(file, map[string]uint64{tc.reason: 1}) {
				t.Fatalf("compiles = %d decl, %v file; want one whole-file compile for %s", decl, file, tc.reason)
			}
			if tc.name == "syntax error in body" {
				if err == nil {
					t.Fatalf("WithFiles compiled text that does not parse")
				}
				return
			}
			if err != nil {
				t.Fatalf("WithFiles: %v", err)
			}
			want := incrProgram(t, string(mutated))
			gv, ge := incrCall(t, np, "Entry", int64(3))
			wv, we := incrCall(t, want, "Entry", int64(3))
			if gv != wv || (ge == nil) != (we == nil) {
				t.Errorf("Entry(3) = (%v, %v), want (%v, %v)", gv, ge, wv, we)
			}
			tv, te := incrTree(t, mutated, "Entry", int64(3))
			if gv != tv || (ge == nil) != (te == nil) {
				t.Errorf("Entry(3) = (%v, %v), tree-walk = (%v, %v)", gv, ge, tv, te)
			}
		})
	}
}

// TestWithDeclEngages hands the compiler the changed declaration as a
// tree — a plain function and a method — and holds the spliced program
// to a from-scratch compile, to the text front end and to the tree-walk.
func TestWithDeclEngages(t *testing.T) {
	cases := []struct {
		name, decl, old, new string
	}{
		{"plain function", "helper", "return x + 1", "return x + 2"},
		{"method", "Get", "s = s + helper(i)", "s = s - helper(i)"},
		{"entry", "Entry", "return b.Get(n) + limit", "x := b.Get(n)\n\tx = x * 2\n\treturn x + limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := incrProgram(t, incrBase)
			mutated := mutate(t, incrBase, tc.old, tc.new)
			np, err := base.WithDecl("t.go", declOf(t, mutated, tc.decl), mutated)
			if err != nil {
				t.Fatalf("WithDecl: %v", err)
			}
			if decl, file := base.MutantCompiles(); decl != 1 || len(file) != 0 {
				t.Fatalf("compiles = %d decl, %v file; want 1 decl", decl, file)
			}
			if hits, misses := base.CacheStats(); hits != 0 || misses != 1 {
				t.Errorf("CacheStats = (%d, %d), want (0, 1)", hits, misses)
			}
			gv, ge := incrCall(t, np, "Entry", int64(4))
			for label, ref := range map[string]func() (Value, error){
				"full recompile": func() (Value, error) { return incrCall(t, incrProgram(t, string(mutated)), "Entry", int64(4)) },
				"text front end": func() (Value, error) {
					tp, err := incrProgram(t, incrBase).WithFiles(map[string][]byte{"t.go": mutated})
					if err != nil {
						t.Fatalf("WithFiles: %v", err)
					}
					return incrCall(t, tp, "Entry", int64(4))
				},
				"tree-walk": func() (Value, error) { return incrTree(t, mutated, "Entry", int64(4)) },
			} {
				if wv, we := ref(); gv != wv || (ge == nil) != (we == nil) {
					t.Errorf("spliced Entry(4) = (%v, %v), %s = (%v, %v)", gv, ge, label, wv, we)
				}
			}
			// The base is untouched: it still runs the original code.
			bv, _ := incrCall(t, base, "Entry", int64(4))
			ov, _ := incrTree(t, []byte(incrBase), "Entry", int64(4))
			if bv != ov {
				t.Errorf("base Entry(4) = %v after a derivation, want %v", bv, ov)
			}
		})
	}
}

// TestWithDeclFallbacks: a declaration that names no single function of
// the unit, or none at all, compiles the supplied text whole and says
// why; an unknown file is ignored like WithFiles ignores it.
func TestWithDeclFallbacks(t *testing.T) {
	renamed := mutate(t, incrBase, "func helper(x any) any {\n\treturn x + 1", "func helper2(x any) any {\n\treturn x + 9")
	twice := []byte(incrBase + "\nfunc helper(x any) any {\n\treturn x + 5\n}\n")
	cases := []struct {
		name   string
		base   string
		fd     func() *ast.FuncDecl
		src    []byte
		reason string
	}{
		{"no declaration", incrBase, func() *ast.FuncDecl { return nil },
			mutate(t, incrBase, "return x + 1", "return x + 2"), "no_decl"},
		{"renamed function", incrBase, func() *ast.FuncDecl { return declOf(t, renamed, "helper2") }, renamed, "new_name"},
		{"ambiguous name", string(twice), func() *ast.FuncDecl { return declOf(t, twice, "helper") }, twice, "rename"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := incrProgram(t, tc.base)
			np, err := base.WithDecl("t.go", tc.fd(), tc.src)
			if err != nil {
				t.Fatalf("WithDecl: %v", err)
			}
			if decl, file := base.MutantCompiles(); decl != 0 || !reflect.DeepEqual(file, map[string]uint64{tc.reason: 1}) {
				t.Fatalf("compiles = %d decl, %v file; want one whole-file compile for %s", decl, file, tc.reason)
			}
			gv, _ := incrCall(t, np, "Entry", int64(3))
			wv, _ := incrCall(t, incrProgram(t, string(tc.src)), "Entry", int64(3))
			if gv != wv {
				t.Errorf("Entry(3) = %v, want %v", gv, wv)
			}
		})
	}
	base := incrProgram(t, incrBase)
	if np, err := base.WithDecl("other.go", declOf(t, []byte(incrBase), "helper"), nil); err != nil || np != base {
		t.Errorf("WithDecl on a file outside the program = (%p, %v), want the program itself", np, err)
	}
	if _, err := base.WithDecl("t.go", &ast.FuncDecl{Name: ast.NewIdent("helper"), Type: &ast.FuncType{}}, nil); err == nil {
		t.Error("WithDecl accepted a function without a body")
	}
}

const incrLits = `package main

func a() any {
	f := func() any { return 1 }
	return f()
}

type T struct{}

func (t T) m() any {
	f := func() any { g := func() any { return 2 }; return g() }
	return f()
}

func z() any {
	return func() any { return 3 }()
}

func Entry() any {
	t := T{}
	return a()*100 + t.m()*10 + z()
}
`

// TestWithDeclProvenance: fork translates closures by the unit's
// provenance set, so a splice must keep allFns and every site's range
// into it exactly as a from-scratch compile of the same file lays them
// out — with the changed declaration contributing fewer nested literals,
// more, and across a chain of derivations from derived programs.
func TestWithDeclProvenance(t *testing.T) {
	names := func(u *unit) (all []string, ranges [][2]int) {
		for _, fn := range u.allFns {
			all = append(all, fn.name)
		}
		for _, s := range u.sites {
			ranges = append(ranges, [2]int{s.fnsLo, s.fnsHi})
		}
		return all, ranges
	}
	src := incrLits
	p := incrProgram(t, src)
	for i, e := range []struct{ decl, old, new string }{
		{"m", "f := func() any { g := func() any { return 2 }; return g() }\n\treturn f()", "return 2"},
		{"a", "return f()", "h := func() any { return f() }\n\treturn func() any { return h() }()"},
		{"z", "return 3", "return 4"},
		{"m", "return 2", "f := func() any { return 5 }\n\treturn f()"},
	} {
		src = string(mutate(t, src, e.old, e.new))
		var err error
		if p, err = p.WithDecl("t.go", declOf(t, []byte(src), e.decl), nil); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		want := incrProgram(t, src)
		gotAll, gotRanges := names(p.units[0])
		wantAll, wantRanges := names(want.units[0])
		if !reflect.DeepEqual(gotAll, wantAll) || !reflect.DeepEqual(gotRanges, wantRanges) {
			t.Errorf("edit %d: provenance = %v %v, a full compile has %v %v", i, gotAll, gotRanges, wantAll, wantRanges)
		}
		gv, _ := incrCall(t, p, "Entry")
		wv, _ := incrCall(t, want, "Entry")
		if gv != wv {
			t.Errorf("edit %d: Entry() = %v, want %v", i, gv, wv)
		}
	}
	// The text front end recompiles a decl-derived unit whole and says so.
	next := mutate(t, src, "return 4", "return 6")
	if _, err := p.WithFiles(map[string][]byte{"t.go": next}); err != nil {
		t.Fatal(err)
	}
	if _, file := p.MutantCompiles(); file["no_decl"] != 1 {
		t.Errorf("whole-file compiles = %v, want one for no_decl", file)
	}
}

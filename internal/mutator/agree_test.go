package mutator

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"sync"
	"testing"

	"profipy/internal/dsl"
	"profipy/internal/pattern"
	"profipy/internal/scanner"
)

// shape spells a tree out as nested node kinds with the names, literals
// and operators that give it meaning. Positions are left out and
// parentheses are looked through: two trees with one shape are one
// program to the compiler.
func shape(n ast.Node) string {
	var sb strings.Builder
	var paren []bool
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			if !paren[len(paren)-1] {
				sb.WriteByte(')')
			}
			paren = paren[:len(paren)-1]
			return true
		}
		_, p := n.(*ast.ParenExpr)
		paren = append(paren, p)
		if p {
			return true
		}
		fmt.Fprintf(&sb, "(%T", n)
		switch x := n.(type) {
		case *ast.Ident:
			sb.WriteString(" " + x.Name)
		case *ast.BasicLit:
			sb.WriteString(" " + x.Value)
		case *ast.BinaryExpr:
			sb.WriteString(" " + x.Op.String())
		case *ast.UnaryExpr:
			sb.WriteString(" " + x.Op.String())
		case *ast.AssignStmt:
			sb.WriteString(" " + x.Tok.String())
		case *ast.IncDecStmt:
			sb.WriteString(" " + x.Tok.String())
		case *ast.BranchStmt:
			sb.WriteString(" " + x.Tok.String())
		}
		return true
	})
	return sb.String()
}

// funcNamed returns the top-level function name of a parsed file.
func funcNamed(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("no function %s", name)
	return nil
}

const agreeTarget = `package p

type T struct{}

func Arith(a, b any) any {
	v := a + b
	w := a - b
	u := -a
	return v + w + u
}

func Recv(t any) any {
	x := &t
	y := t.a + t.b
	return x
}

func Hoist() any {
	t := T{a: 1}
	return t.a
}

func Nested(xs any) any {
	for _, x := range xs {
		if x > 0 {
			mark(x)
		} else if x < 0 {
			mark(-x)
		} else {
			switch x {
			case 0:
				mark(0)
			default:
				defer func() {
					go func() { mark(1) }()
				}()
			}
		}
	}
	return each(xs, func(x any) any { mark(x); return x })
}
`

// TestTextAndTreeAgree: a mutant reaches the compiler as the tree Decl
// returns and the container as the text Render prints from the same
// statements. Substituting a bound expression into an operator, receiver
// or callee position — or a literal into a statement header — must not
// let the two drift apart: the printed file has to parse back into the
// very declaration the compiler was given.
func TestTextAndTreeAgree(t *testing.T) {
	cases := []struct {
		name, fn, spec, want string
	}{
		{"binary in binary, left", "Arith", `change { v := $EXPR#x } into { v := $EXPR#x * 2 }`, "v := (a + b) * 2"},
		{"binary in binary, right", "Arith", `change { w := $EXPR#x } into { w := 10 - $EXPR#x }`, "w := 10 - (a - b)"},
		{"binary under unary", "Arith", `change { v := $EXPR#x } into { v := -$EXPR#x }`, "v := -(a + b)"},
		{"unary under unary", "Arith", `change { u := $EXPR#x } into { u := -$EXPR#x }`, "u := - -a"},
		{"unary as selector receiver", "Recv", `change { x := $EXPR#x } into { x := $EXPR#x.a }`, "x := (&t).a"},
		{"binary as selector receiver", "Recv", `change { y := $EXPR#x } into { y := $EXPR#x.a }`, "y := (t.a + t.b).a"},
		{"binary as callee", "Recv", `change { y := $EXPR#x } into { y := $EXPR#x(1) }`, "y := (t.a + t.b)(1)"},
		{"unary as index base", "Recv", `change { x := $EXPR#x } into { x := $EXPR#x[0] }`, "x := (&t)[0]"},
		{"literal in if header", "Hoist", `change { t := $EXPR#x } into { if $EXPR#x == nil { t = nil } }`, "if (T{a: 1}) == nil {"},
		{"literal in for header", "Hoist", `change { t := $EXPR#x } into { for t := $EXPR#x; t.a < 3; t.a++ { mark(t) } }`, "for t := (T{a: 1}); t.a < 3; t.a++ {"},
		{"literal in switch header", "Hoist", `change { t := $EXPR#x } into { switch $EXPR#x.a { case 1: mark($EXPR#x) } }`, "switch (T{a: 1}).a {"},
		{"literal in range header", "Hoist", `change { t := $EXPR#x } into { for range $EXPR#x.a { mark(1) } }`, "for range (T{a: 1}).a {"},
		{"literal as a header call's argument", "Hoist", `change { t := $EXPR#x } into { if ok($EXPR#x) { t = nil } }`, "if ok(T{a: 1}) {"},
	}
	for _, tc := range cases {
		for _, triggered := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/triggered=%v", tc.name, triggered), func(t *testing.T) {
				mm, err := dsl.Compile("s", tc.spec)
				if err != nil {
					t.Fatalf("Compile: %v", err)
				}
				pf, err := scanner.ParseFileOnce("p.go", []byte(agreeTarget))
				if err != nil {
					t.Fatal(err)
				}
				pts := scanner.ScanParsed(pf, []*pattern.MetaModel{mm})
				if len(pts) != 1 {
					t.Fatalf("%d injection points, want 1", len(pts))
				}
				checkAgreement(t, pf, mm, pts[0], Options{Triggered: triggered}, tc.fn, tc.want)
			})
		}
	}
}

// checkAgreement mutates one point and holds Render's text to Decl's
// tree; want, when set, must appear in the text.
func checkAgreement(t *testing.T, pf *scanner.ParsedFile, mm *pattern.MetaModel, pt scanner.InjectionPoint, opts Options, fn, want string) {
	t.Helper()
	before := shape(pf.File)
	m, err := Mutate(pf, mm, pt, opts)
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	text, err := m.Render()
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(string(text), want) {
		t.Errorf("rendered mutant lacks %q:\n%s", want, text)
	}
	reparsed, err := parser.ParseFile(token.NewFileSet(), "p.go", text, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("rendered mutant does not parse: %v\n%s", err, text)
	}
	decl := m.Decl()
	if decl.Name.Name != fn {
		t.Fatalf("Decl is %s, want %s", decl.Name.Name, fn)
	}
	if got, want := shape(decl), shape(funcNamed(t, reparsed, fn)); got != want {
		t.Errorf("tree and text disagree:\n tree: %s\n text: %s\n%s", got, want, text)
	}
	if shape(decl) == shape(funcNamed(t, pf.File, fn)) {
		t.Error("Decl returned the unmutated declaration")
	}
	if shape(pf.File) != before {
		t.Error("the cached parse was modified")
	}
}

// TestDeclCopiesOnlyTheSpine mutates a window in every kind of nested
// statement list — an if inside a loop, an else-if, a case clause inside
// an else, and function literals hanging off a defer, a go statement and
// a call argument —
// and checks Decl against the text each time, from several goroutines
// at once on one shared parse (the race detector sees any write to it).
func TestDeclCopiesOnlyTheSpine(t *testing.T) {
	mm, err := dsl.Compile("s", `change { mark($EXPR#x) } into { mark($EXPR#x, "mutated") }`)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := scanner.ParseFileOnce("p.go", []byte(agreeTarget))
	if err != nil {
		t.Fatal(err)
	}
	pts := scanner.ScanParsed(pf, []*pattern.MetaModel{mm})
	if len(pts) != 5 {
		t.Fatalf("%d injection points, want the 5 mark calls of Nested", len(pts))
	}
	var wg sync.WaitGroup
	for _, pt := range pts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checkAgreement(t, pf, mm, pt, Options{Triggered: true}, "Nested", `"mutated"`)
		}()
	}
	wg.Wait()

	// What is off the spine is shared, not copied.
	m, err := Mutate(pf, mm, pts[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := funcNamed(t, pf.File, "Nested")
	decl := m.Decl()
	if decl == orig || decl.Body == orig.Body {
		t.Fatal("Decl did not copy the declaration")
	}
	if decl.Type != orig.Type || decl.Body.List[1] != orig.Body.List[1] {
		t.Error("Decl copied subtrees off the path to the window")
	}
}

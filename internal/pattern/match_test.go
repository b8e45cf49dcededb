package pattern_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"profipy/internal/dsl"
	"profipy/internal/pattern"
)

// matchCount compiles a spec and counts prefix matches over the top-level
// statement list of a single-function target body.
func matchCount(t *testing.T, specSrc, body string) int {
	t.Helper()
	mm, err := dsl.Compile("spec", specSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	src := "package p\nfunc f() {\n" + body + "\n}"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse target: %v", err)
	}
	count := 0
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		stmts := fd.Body.List
		for start := range stmts {
			if _, _, ok := mm.MatchPrefix(stmts, start); ok {
				count++
			}
		}
	}
	return count
}

func TestMatchReturnStatements(t *testing.T) {
	n := matchCount(t, `
change {
	return $EXPR#e
} into {
	return $NIL
}`, `
	if cond() {
		return compute()
	}
	return fallback()
`)
	// Only the top-level return is visible to a prefix scan of the
	// outer list; the nested one lives in the if body's list.
	if n != 1 {
		t.Fatalf("matches = %d, want 1", n)
	}
}

func TestMatchForLoopShape(t *testing.T) {
	n := matchCount(t, `
change {
	for $VAR#i := 0; $EXPR#c; $VAR#j++ {
		$BLOCK{tag=b; stmts=1,*}
	}
} into {
	$BLOCK{tag=b}
}`, `
	for i := 0; i < n; i++ {
		work(i)
	}
	for j := 0; j < n; j++ {
		other(j)
	}
	for k := 1; k < n; k++ {
		other(k)
	}
`)
	if n != 2 {
		t.Fatalf("matches = %d, want 2", n)
	}
}

func TestMatchRangeShape(t *testing.T) {
	n := matchCount(t, `
change {
	for _, $VAR#v := range $EXPR#xs {
		$BLOCK{stmts=1,*}
	}
} into {
}`, `
	for _, x := range items {
		use(x)
	}
	for i := range items {
		use(i)
	}
`)
	// The key-only range must not match the key/value pattern.
	if n != 1 {
		t.Fatalf("matches = %d, want 1", n)
	}
}

func TestMatchDeferAndGo(t *testing.T) {
	n := matchCount(t, `
change {
	defer $CALL#c{name=cleanup}(...)
} into {
}`, `
	defer cleanup(x)
	defer other(x)
	cleanup(y)
`)
	if n != 1 {
		t.Fatalf("matches = %d, want 1 (only the deferred cleanup)", n)
	}
}

func TestMatchSwitchShape(t *testing.T) {
	n := matchCount(t, `
change {
	switch $EXPR#x {
	case 1:
		$BLOCK{stmts=1,*}
	default:
		$BLOCK{stmts=1,*}
	}
} into {
}`, `
	switch mode {
	case 1:
		fast()
	default:
		slow()
	}
	switch mode {
	case 2:
		fast()
	default:
		slow()
	}
`)
	// The second switch has case 2, not case 1.
	if n != 1 {
		t.Fatalf("matches = %d, want 1", n)
	}
}

func TestMatchArgBacktracking(t *testing.T) {
	// Two wildcard runs around a middle string: the engine must find the
	// matching split even when several strings are present.
	n := matchCount(t, `
change {
	$CALL#c{name=run}(..., $STRING#s{val=-v}, ...)
} into {
}`, `
	run("a", "-v", "b")
	run("-v")
	run("a", "b")
`)
	if n != 2 {
		t.Fatalf("matches = %d, want 2", n)
	}
}

func TestMatchCompositeAndIndex(t *testing.T) {
	n := matchCount(t, `
change {
	$VAR#m = map[string]any{"mode": $STRING#v}
} into {
}`, `
	cfg = map[string]any{"mode": "fast"}
	cfg = map[string]any{"level": "high"}
	cfg = map[string]any{"mode": "fast", "extra": "x"}
`)
	if n != 1 {
		t.Fatalf("matches = %d, want 1 (exact composite shape)", n)
	}
}

func TestMatchIncDec(t *testing.T) {
	n := matchCount(t, `
change {
	$VAR#x++
} into {
	$VAR#x--
}`, `
	count++
	count--
	total++
`)
	if n != 2 {
		t.Fatalf("matches = %d, want 2", n)
	}
}

func TestBlockCardinalityBounds(t *testing.T) {
	// stmts=2,3 must reject single-statement and four-statement bodies.
	spec := `
change {
	if $EXPR#e {
		$BLOCK{stmts=2,3}
	}
} into {
}`
	if n := matchCount(t, spec, "if a { one() }"); n != 0 {
		t.Errorf("1-stmt body matched stmts=2,3 (n=%d)", n)
	}
	if n := matchCount(t, spec, "if a { one(); two() }"); n != 1 {
		t.Errorf("2-stmt body should match (n=%d)", n)
	}
	if n := matchCount(t, spec, "if a { one(); two(); three(); four() }"); n != 0 {
		t.Errorf("4-stmt body matched stmts=2,3 (n=%d)", n)
	}
}

// TestExprVarMentionsIdent: $EXPR{var=glob} takes an expression that
// mentions an identifier matching the glob anywhere in its tree — through
// the hand-walked expression kinds and the ast.Inspect fallback alike.
func TestExprVarMentionsIdent(t *testing.T) {
	for _, tc := range []struct {
		glob, cond string
		want       int
	}{
		{"node", "node.Status+retries > 0", 1},
		{"retr*", "node.Status+retries > 0", 1},
		{"Status", "node.Status+retries > 0", 1},
		{"missing", "node.Status+retries > 0", 0},
		{"node,missing", "check(-x, *p, xs[node])", 1},
		{"node", "(ok(T{f: node}))", 1},
		{"node", "func() bool { return node }()", 1},
		{"node", "func() bool { return nodes }()", 0},
		{"*", "1 > 0", 0},
	} {
		spec := "change {\n\tif $EXPR{var=" + tc.glob + "} {\n\t\t$BLOCK{stmts=1,*}\n\t}\n} into {\n}"
		if n := matchCount(t, spec, "if "+tc.cond+" {\n\tf()\n}"); n != tc.want {
			t.Errorf("var=%s on %q: %d matches, want %d", tc.glob, tc.cond, n, tc.want)
		}
	}
}

func TestCalleeNameShapes(t *testing.T) {
	for _, tc := range []struct {
		expr string
		want string
	}{
		{"f(x)", "f"},
		{"pkg.F(x)", "pkg.F"},
		{"a.b.C(x)", "a.b.C"},
		{"(pkg.F)(x)", "pkg.F"},
		{"funcs[0](x)", ""},
	} {
		e, err := parser.ParseExpr(tc.expr)
		if err != nil {
			t.Fatal(err)
		}
		call, ok := e.(*ast.CallExpr)
		if !ok {
			t.Fatalf("%s is not a call", tc.expr)
		}
		if got := pattern.CalleeName(call.Fun); got != tc.want {
			t.Errorf("CalleeName(%s) = %q, want %q", tc.expr, got, tc.want)
		}
	}
}

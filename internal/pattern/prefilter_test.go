package pattern_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"

	"profipy/internal/dsl"
	"profipy/internal/pattern"
)

// bruteForce is the scan the index must agree with: MatchPrefix at every
// start of the list.
func bruteForce(mm *pattern.MetaModel, stmts []ast.Stmt) [][2]int {
	var out [][2]int
	for start := range stmts {
		if n, _, ok := mm.MatchPrefix(stmts, start); ok {
			out = append(out, [2]int{start, n})
		}
	}
	return out
}

// indexed is what Scan finds in the same list through an index.
func indexed(mm *pattern.MetaModel, stmts []ast.Stmt) [][2]int {
	var out [][2]int
	mm.Scan(pattern.NewIndex([][]ast.Stmt{stmts}), func(_, start, n int) {
		out = append(out, [2]int{start, n})
	})
	return out
}

func parseBody(t *testing.T, body string) []ast.Stmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body.List
}

// TestPrefilterAgreesWithMatch: the lead anchor may only skip start
// positions that MatchPrefix would reject too — across pattern heads of
// every flavor (concrete statement, bare $CALL, $BLOCK, $ANY).
func TestPrefilterAgreesWithMatch(t *testing.T) {
	specs := map[string]string{
		"if-head": `
change {
	if $EXPR#e {
		$BLOCK{stmts=1,4}
	}
} into {
}`,
		"assign-head": `
change {
	$VAR#v := $CALL#c{name=*}(...)
} into {
	$VAR#v := $NIL
}`,
		"call-head": `
change {
	$CALL{name=*}(...)
} into {
}`,
		"block-head": `
change {
	$BLOCK{tag=b; stmts=1,*}
	return $EXPR#e
} into {
	$BLOCK{tag=b}
}`,
		"any-head": `
change {
	$ANY#a
	$CALL{name=mark}(...)
} into {
	$ANY#a
}`,
		"return-head": `
change {
	return $EXPR#e
} into {
	return $NIL
}`,
	}
	stmts := parseBody(t, `
	x := get(1)
	use(x)
	mark(x)
	if x != nil {
		mark(x)
	}
	for i := 0; i < 3; i++ {
		step(i)
	}
	return x
`)
	for name, spec := range specs {
		mm, err := dsl.Compile(name, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := bruteForce(mm, stmts)
		if len(want) == 0 {
			t.Errorf("%s: matches nowhere, the case proves nothing", name)
		}
		if got := indexed(mm, stmts); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: indexed scan found %v, MatchPrefix at every start %v", name, got, want)
		}
		for _, w := range want {
			if admits, blockLed := mm.LeadAdmits(stmts[w[0]]); !blockLed && !admits {
				t.Errorf("%s: anchor rejects start %d that the matcher accepts", name, w[0])
			}
		}
	}
}

// TestPrefilterRejectsImpossibleKinds: the anchor must actually prune —
// an if-headed pattern refuses non-if starts without a unify.
func TestPrefilterRejectsImpossibleKinds(t *testing.T) {
	mm, err := dsl.Compile("mifs", `
change {
	if $EXPR#e {
		$BLOCK{stmts=1,4}
	}
} into {
}`)
	if err != nil {
		t.Fatal(err)
	}
	stmts := parseBody(t, `
	x := get(1)
	use(x)
	if x != nil {
		mark(x)
	}
`)
	if ok, _ := mm.LeadAdmits(stmts[0]); ok {
		t.Error("if-headed pattern must reject an assignment start")
	}
	if ok, _ := mm.LeadAdmits(stmts[1]); ok {
		t.Error("if-headed pattern must reject a call start")
	}
	if ok, _ := mm.LeadAdmits(stmts[2]); !ok {
		t.Error("if-headed pattern must accept an if start")
	}
}

// TestPrefilterCallHead: a statement-position $CALL can only open on an
// expression statement.
func TestPrefilterCallHead(t *testing.T) {
	mm, err := dsl.Compile("mfc", `
change {
	$CALL{name=*}(...)
} into {
}`)
	if err != nil {
		t.Fatal(err)
	}
	stmts := parseBody(t, `
	x := get(1)
	use(x)
`)
	if ok, _ := mm.LeadAdmits(stmts[0]); ok {
		t.Error("$CALL head must reject an assignment")
	}
	if ok, _ := mm.LeadAdmits(stmts[1]); !ok {
		t.Error("$CALL head must accept an expression statement")
	}
}

// TestPrefilterFeatureAnchors: a literal callee — written as a $CALL
// name or as a raw call, plain or dotted — anchors on the callee's final
// segment, a $STRING that names its value on a literal among the
// statement's operands; a glob or a list of alternatives anchors on the
// statement kind alone.
func TestPrefilterFeatureAnchors(t *testing.T) {
	stmts := parseBody(t, `
	audit(x)
	c.conn.Do(x)
	v := conn.Do(x)
	w := 1
	label := ("abc")
	run(x, "abc", "abc")
	run(x, "ab")
`)
	cases := []struct{ pat, admits string }{
		{"$CALL{name=audit}(...)", "1000000"},
		{"$CALL{name=Do}(...)", "0100000"},
		{"$CALL{name=c.conn.Do}(...)", "0100000"},
		{"$VAR#v := $CALL{name=conn.Do}(...)", "0010000"},
		{"$VAR#v := conn.Do($EXPR#e)", "0010000"},
		{"$VAR#v := $EXPR#o.Do($EXPR#e)", "0010000"},
		{"$VAR#v := $EXPR#f($EXPR#e)", "0011100"},
		{"$CALL{name=D*}(...)", "1100011"},
		{"$CALL{name=audit,Do}(...)", "1100011"},
		{"$VAR#v := $STRING#s{val=abc}", "0000100"},
		{"$VAR#v := $STRING#s{val=a*}", "0011100"},
		{"$CALL{name=run}(..., $STRING#s{val=abc}, ...)", "0000010"},
		{"$CALL{name=*}(..., $STRING#s{val=abc})", "0000010"},
		{"run($EXPR#e, $STRING#s{val=ab})", "0000001"},
	}
	for _, tc := range cases {
		mm, err := dsl.Compile("m", "change {\n\t"+tc.pat+"\n} into {\n}")
		if err != nil {
			t.Fatalf("%s: %v", tc.pat, err)
		}
		for i, s := range stmts {
			if got, _ := mm.LeadAdmits(s); got != (tc.admits[i] == '1') {
				t.Errorf("%s: anchor admits statement %d = %v, want %c", tc.pat, i, got, tc.admits[i])
			}
		}
		want := bruteForce(mm, stmts)
		if len(want) == 0 {
			t.Errorf("%s: matches nowhere, the case proves nothing", tc.pat)
		}
		if got := indexed(mm, stmts); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: indexed scan found %v, MatchPrefix at every start %v", tc.pat, got, want)
		}
	}
}

// TestPrefilterBlockHeadIsPermissive: $BLOCK swallows any leading
// statement, so a block-led model is anchored on what follows the block
// and still matches from a start of any kind.
func TestPrefilterBlockHeadIsPermissive(t *testing.T) {
	mm, err := dsl.Compile("mfc", `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=DeletePort}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`)
	if err != nil {
		t.Fatal(err)
	}
	stmts := parseBody(t, `
	x := get(1)
	use(x)
	if x != nil {
		mark(x)
	}
	DeletePort(x)
	DeletePort(y)
	return x
`)
	if admits, blockLed := mm.LeadAdmits(stmts[3]); !blockLed || !admits {
		t.Errorf("lead anchor: admits DeletePort(x) = %v, blockLed = %v; want true, true", admits, blockLed)
	}
	if admits, _ := mm.LeadAdmits(stmts[1]); admits {
		t.Error("lead anchor admits use(x); the callee is fixed to DeletePort")
	}
	// Starts 0-2 end their block at the first DeletePort, start 3 at the
	// second (the block takes at least one statement).
	want := [][2]int{{0, 5}, {1, 4}, {2, 3}, {3, 3}}
	if got := indexed(mm, stmts); !reflect.DeepEqual(got, want) {
		t.Errorf("indexed scan found %v, want %v", got, want)
	}
	if got := bruteForce(mm, stmts); !reflect.DeepEqual(got, want) {
		t.Errorf("MatchPrefix at every start found %v, want %v", got, want)
	}
}

// TestBlockBindingsSurviveBacktracking: the block matcher reuses one
// trial bindings map across extents; a successful match must still carry
// the binding of the extent that succeeded, not a stale or clobbered one.
func TestBlockBindingsSurviveBacktracking(t *testing.T) {
	mm, err := dsl.Compile("mfc", `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`)
	if err != nil {
		t.Fatal(err)
	}
	stmts := parseBody(t, `
	one()
	two()
	DeletePort(x)
	three()
`)
	n, b, ok := mm.MatchPrefix(stmts, 0)
	if !ok || n != 4 {
		t.Fatalf("match: n=%d ok=%v", n, ok)
	}
	if got := len(b["b1"].Stmts); got != 2 {
		t.Errorf("b1 bound %d stmts, want 2 (one(); two())", got)
	}
	if got := len(b["b2"].Stmts); got != 1 {
		t.Errorf("b2 bound %d stmts, want 1 (three())", got)
	}
}

package scanner

import (
	"go/ast"
	"strings"
	"testing"

	"profipy/internal/dsl"
	"profipy/internal/pattern"
)

// A miniature target program exercising the Fig. 1 fault types.
const target = `package client

func Cleanup(c *Conn, node string) {
	prepare(c)
	DeletePort(c, node)
	finish(c)
}

func Sweep(nodes []string) {
	for _, node := range nodes {
		if node == "" {
			logSkip(node)
			continue
		}
		process(node)
	}
}

func Provision(c *Conn) {
	setup(c)
	utils.Execute("iptables", "-A INPUT", "allow")
	utils.Execute("plain", "noflag")
	teardown(c)
}
`

func compile(t *testing.T, name, src string) *pattern.MetaModel {
	t.Helper()
	mm, err := dsl.Compile(name, src)
	if err != nil {
		t.Fatalf("Compile(%s): %v", name, err)
	}
	return mm
}

func TestScanMFC(t *testing.T) {
	mm := compile(t, "MFC", `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`)
	pts, err := ScanSource("client.go", []byte(target), []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatalf("ScanSource: %v", err)
	}
	if len(pts) != 1 {
		t.Fatalf("points = %d, want 1 (the DeletePort call with neighbours)", len(pts))
	}
	p := pts[0]
	if p.Func != "Cleanup" || p.N != 3 {
		t.Errorf("point = %+v, want func Cleanup consuming 3 stmts", p)
	}
	if !strings.Contains(p.Snippet, "prepare") {
		t.Errorf("snippet = %q, want window starting at prepare(c)", p.Snippet)
	}
}

func TestScanMIFS(t *testing.T) {
	mm := compile(t, "MIFS", `
change {
	if $EXPR{var=node} {
		$BLOCK{stmts=1,4}
		continue
	}
} into {
}`)
	pts, err := ScanSource("client.go", []byte(target), []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatalf("ScanSource: %v", err)
	}
	if len(pts) != 1 {
		t.Fatalf("points = %d, want 1 (the if/continue in Sweep)", len(pts))
	}
	if pts[0].Func != "Sweep" {
		t.Errorf("func = %q, want Sweep", pts[0].Func)
	}
}

func TestScanWPF(t *testing.T) {
	mm := compile(t, "WPF", `
change {
	$CALL#c{name=utils.Execute}(..., $STRING#s{val=*-*}, ...)
} into {
	$CALL#c(..., $CORRUPT($STRING#s), ...)
}`)
	pts, err := ScanSource("client.go", []byte(target), []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatalf("ScanSource: %v", err)
	}
	// Only the call with a "-"-bearing string literal matches.
	if len(pts) != 1 {
		t.Fatalf("points = %d, want 1", len(pts))
	}
	if !strings.Contains(pts[0].Snippet, "iptables") {
		t.Errorf("snippet = %q, want the iptables call", pts[0].Snippet)
	}
}

func TestScanCallReturnValueUsedDoesNotMatch(t *testing.T) {
	// Statement-position $CALL must only match calls whose return value
	// is unused (G-SWFIT MFC rule).
	src := `package p

func F() {
	before()
	x := DeleteNet("a")
	after(x)
}
`
	mm := compile(t, "MFC", `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`)
	pts, err := ScanSource("p.go", []byte(src), []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatalf("ScanSource: %v", err)
	}
	if len(pts) != 0 {
		t.Fatalf("points = %d, want 0 (return value is assigned)", len(pts))
	}
}

func TestScanProjectDeterministicOrder(t *testing.T) {
	mm := compile(t, "calls", `
change {
	$CALL{name=*}(...)
} into {
}`)
	files := map[string][]byte{
		"b.go": []byte("package p\nfunc B() { x() }\n"),
		"a.go": []byte("package p\nfunc A() { y() }\n"),
	}
	pts, err := ScanProject(files, []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatalf("ScanProject: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	if pts[0].File != "a.go" || pts[1].File != "b.go" {
		t.Errorf("order = %s, %s; want a.go then b.go", pts[0].File, pts[1].File)
	}
}

func TestScanParseError(t *testing.T) {
	if _, err := ScanSource("bad.go", []byte("not go"), nil); err == nil {
		t.Fatal("ScanSource should fail on invalid source")
	}
}

func TestCollectListsCoversNestedBodies(t *testing.T) {
	src := `package p

func F(xs []int) {
	if len(xs) > 0 {
		g()
	} else {
		h()
	}
	for i := 0; i < 3; i++ {
		g()
	}
	switch len(xs) {
	case 0:
		g()
	default:
		h()
	}
}
`
	mm := compile(t, "g", `
change {
	$CALL{name=g}(...)
} into {
}`)
	pts, err := ScanSource("p.go", []byte(src), []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatalf("ScanSource: %v", err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3 (if body, for body, case body)", len(pts))
	}
}

// TestCollectListsRecordsDecl: every list knows the top-level function
// it sits in, however deep — clause bodies and function literals buried
// in expressions included.
func TestCollectListsRecordsDecl(t *testing.T) {
	src := `package p

func F(xs []int) {
	if len(xs) > 0 {
		g()
	} else if len(xs) < 0 {
		h()
	}
	defer func() {
		go func() { g() }()
	}()
	use(1, []any{func() { h() }})
}

func (r *R) M() {
	switch v := r.v.(type) {
	case int:
		g(v)
	}
}
`
	pf, err := ParseFileOnce("p.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Lists) != 8 {
		t.Fatalf("%d lists, want 8", len(pf.Lists))
	}
	for i, sl := range pf.Lists {
		want := pf.File.Decls[0].(*ast.FuncDecl)
		if sl.Func == "R.M" {
			want = pf.File.Decls[1].(*ast.FuncDecl)
		}
		if sl.Decl != want {
			t.Errorf("list %d (%s): Decl is %v", i, sl.Func, sl.Decl)
		}
	}
}

func TestInjectionPointID(t *testing.T) {
	p := InjectionPoint{Spec: "MFC", File: "a.go", Func: "F", ListIndex: 2, Start: 1, N: 3}
	q := p
	q.Start = 2
	if p.ID() == q.ID() {
		t.Error("distinct points must have distinct IDs")
	}
}

func TestScanMethodReceiverNames(t *testing.T) {
	src := `package p

type C struct{}

func (c *C) Close() {
	pre()
	DeleteAll(c)
	post()
}
`
	mm := compile(t, "MFC", `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`)
	pts, err := ScanSource("p.go", []byte(src), []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatalf("ScanSource: %v", err)
	}
	if len(pts) != 1 || pts[0].Func != "C.Close" {
		t.Fatalf("points = %+v, want one point in C.Close", pts)
	}
}

func TestScanFuncLitBodies(t *testing.T) {
	// Injection points inside function literals (deferred closures,
	// callbacks) must be discovered too.
	src := `package p

func F() {
	run(func() {
		pre()
		DeleteAll()
		post()
	})
	defer func() {
		pre()
		DeleteAll()
		post()
	}()
}
`
	mm := compile(t, "MFC", `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`)
	pts, err := ScanSource("p.go", []byte(src), []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatalf("ScanSource: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2 (callback body + deferred closure body)", len(pts))
	}
}

func TestScanDeterministicAcrossReparse(t *testing.T) {
	// ListIndex-based injection points must survive a re-parse of the
	// same source (the mutator depends on this).
	mm := compile(t, "calls", `
change {
	$CALL{name=*}(...)
} into {
}`)
	pts1, err := ScanSource("client.go", []byte(target), []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatal(err)
	}
	pts2, err := ScanSource("client.go", []byte(target), []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts1) != len(pts2) {
		t.Fatalf("counts differ: %d vs %d", len(pts1), len(pts2))
	}
	for i := range pts1 {
		if pts1[i].ID() != pts2[i].ID() {
			t.Fatalf("point %d differs: %s vs %s", i, pts1[i].ID(), pts2[i].ID())
		}
	}
}

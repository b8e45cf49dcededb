package mutator

import (
	"bytes"
	"strings"
	"testing"

	"profipy/internal/dsl"
	"profipy/internal/pattern"
	"profipy/internal/scanner"
)

// TestApplyParsedMatchesApply: the cached path and the parse-per-call path
// must produce identical mutated sources.
func TestApplyParsedMatchesApply(t *testing.T) {
	mm, pts := compileAndScan(t, "MFC", `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`)
	pf, err := scanner.ParseFileOnce("client.go", []byte(target))
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Triggered: true}} {
		fresh, err := Apply("client.go", []byte(target), mm, pts[0], opts)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		cached, err := ApplyParsed(pf, mm, pts[0], opts)
		if err != nil {
			t.Fatalf("ApplyParsed: %v", err)
		}
		if !bytes.Equal(fresh.Source, cached.Source) {
			t.Errorf("triggered=%v: cached and fresh mutation differ:\n--- fresh\n%s\n--- cached\n%s",
				opts.Triggered, fresh.Source, cached.Source)
		}
	}
}

// TestApplyParsedIsReadOnly: the same cached parse serves many experiments
// (concurrently, in a real campaign), so applying a mutation must not
// disturb the shared AST — a second application of the same point yields
// byte-identical output, and other points still resolve.
func TestApplyParsedIsReadOnly(t *testing.T) {
	mm, err := dsl.Compile("calls", `
change {
	$CALL{name=Delete*}(...)
} into {
}`)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := scanner.ScanSource("client.go", []byte(target), []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	pf, err := scanner.ParseFileOnce("client.go", []byte(target))
	if err != nil {
		t.Fatal(err)
	}
	first, err := ApplyParsed(pf, mm, pts[0], Options{Triggered: true})
	if err != nil {
		t.Fatal(err)
	}
	second, err := ApplyParsed(pf, mm, pts[0], Options{Triggered: true})
	if err != nil {
		t.Fatalf("second application on shared parse: %v", err)
	}
	if !bytes.Equal(first.Source, second.Source) {
		t.Error("repeated application on a shared parse must be idempotent")
	}
	if !bytes.Equal(pf.Src, []byte(target)) {
		t.Error("shared source bytes were mutated")
	}
}

// TestApplyParsedPreservesSurroundingBytes: text outside the mutated
// statement window survives byte-for-byte (the splice touches only the
// window), so unrelated formatting and content cannot drift per
// experiment.
func TestApplyParsedPreservesSurroundingBytes(t *testing.T) {
	mm, pts := compileAndScan(t, "WPF", `
change {
	$CALL#c{name=utils.Execute}(..., $STRING#s{val=*-*}, ...)
} into {
	$CALL#c(..., $CORRUPT($STRING#s), ...)
}`)
	res, err := Apply("client.go", []byte(target), mm, pts[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := string(res.Source)
	// Everything before the mutated function's body line is untouched.
	head := target[:strings.Index(target, "func Provision")]
	if !strings.HasPrefix(out, head) {
		t.Error("bytes before the mutation window changed")
	}
	if !strings.HasSuffix(out, "teardown(c)\n}\n") {
		t.Errorf("bytes after the mutation window changed:\n%s", out)
	}
}

// TestApplyZeroWidthPoint: a pattern that consumes no statements (a
// 0-minimum block) produces N=0 injection points; applying one is a pure
// insertion before the statement at Start, not a panic (regression: the
// first text-splice implementation indexed an empty window).
func TestApplyZeroWidthPoint(t *testing.T) {
	mm, err := dsl.Compile("zw", `
change {
	$BLOCK{stmts=0,0}
} into {
	injected()
}`)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := scanner.ScanSource("client.go", []byte(target), []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 || pts[0].N != 0 {
		t.Fatalf("expected zero-width points, got %+v", pts)
	}
	for _, opts := range []Options{{}, {Triggered: true}} {
		res, err := Apply("client.go", []byte(target), mm, pts[0], opts)
		if err != nil {
			t.Fatalf("triggered=%v: %v", opts.Triggered, err)
		}
		out := string(res.Source)
		if !strings.Contains(out, "injected()") {
			t.Errorf("triggered=%v: insertion missing:\n%s", opts.Triggered, out)
		}
		if !strings.Contains(out, "prepare(c)") {
			t.Errorf("triggered=%v: statement at Start must survive:\n%s", opts.Triggered, out)
		}
		if _, err := scanner.ScanSource("client.go", res.Source, nil); err != nil {
			t.Errorf("triggered=%v: mutated source does not parse: %v\n%s", opts.Triggered, err, out)
		}
	}
}

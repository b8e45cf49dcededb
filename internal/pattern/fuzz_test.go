// Fuzz coverage for the matching engine, in the external test package
// so the fixed meta-models can be compiled through the DSL front end
// (dsl imports pattern, so the in-package test cannot).
package pattern_test

import (
	"fmt"
	"go/ast"
	"reflect"
	"testing"

	"profipy/internal/dsl"
	"profipy/internal/pattern"
	"profipy/internal/scanner"
)

// fuzzModels is a fixed panel of meta-models covering the matcher's
// directive kinds — calls with argument patterns and globs, blocks with
// cardinalities, expression/variable/literal holes — and every way a
// model is or is not anchored: by kind, by literal, dotted, glob or
// alternative callee, raw callee on a placeholder base, by string literal, block-led with a bounded or an
// unbounded block, block-then-$ANY (unanchorable).
func fuzzModels(tb testing.TB) []*pattern.MetaModel {
	tb.Helper()
	specs := []struct{ name, src string }{
		{"mfc", "change {\n\t$BLOCK{tag=b1; stmts=0,*}\n\t$CALL{name=*}(...)\n\t$BLOCK{tag=b2; stmts=0,*}\n} into {\n\t$BLOCK{tag=b1}\n\t$BLOCK{tag=b2}\n}"},
		{"mia", "change {\n\tif $EXPR#e {\n\t\t$BLOCK{tag=body; stmts=1,4}\n\t}\n} into {\n\t$BLOCK{tag=body}\n}"},
		{"wvav", "change {\n\t$VAR#x = $STRING#v\n} into {\n\t$VAR#x = $CORRUPT($STRING#v)\n}"},
		{"assign-call", "change {\n\t$VAR#v := $CALL#c{name=u*.*}($EXPR#a, ...)\n} into {\n\t$VAR#v := $NIL\n}"},
		{"int-arg", "change {\n\t$CALL#c{name=*}(..., $INT#n)\n} into {\n\t$CALL#c(..., $CORRUPT($INT#n))\n}"},
		{"lit-callee", "change {\n\t$CALL{name=f}(...)\n} into {\n}"},
		{"raw-callee", "change {\n\t$VAR#v := g($EXPR#e)\n} into {\n\t$VAR#v := $NIL\n}"},
		{"dotted-callee", "change {\n\t$VAR#v := $CALL#c{name=urllib.*}(...)\n} into {\n\t$VAR#v := $NIL\n}"},
		{"dotted-lit-callee", "change {\n\t$CALL{name=s.Set}(...)\n} into {\n}"},
		{"hole-base-callee", "change {\n\t$EXPR#o.Set($EXPR#k, $EXPR#v, $INT#n)\n} into {\n}"},
		{"alt-callee", "change {\n\t$CALL{name=delete_*,remove_*,g}(...)\n} into {\n}"},
		{"string-val", "change {\n\t$VAR#x = $STRING#v{val=s}\n} into {\n\t$VAR#x = $CORRUPT($STRING#v)\n}"},
		{"string-arg", "change {\n\t$CALL#c{name=*}(..., $STRING#s{val=k}, ...)\n} into {\n\t$CALL#c(..., $CORRUPT($STRING#s), ...)\n}"},
		{"bounded-block", "change {\n\t$BLOCK{tag=b; stmts=1,3}\n\tg($EXPR#e)\n} into {\n\t$BLOCK{tag=b}\n}"},
		{"block-any", "change {\n\t$BLOCK{tag=b; stmts=1,2}\n\t$ANY#a\n\treturn\n} into {\n\t$BLOCK{tag=b}\n}"},
		{"two-block", "change {\n\t$BLOCK{tag=b1; stmts=1,*}\n\t$CALL{name=f}(...)\n\t$BLOCK{tag=b2; stmts=1,*}\n} into {\n\t$BLOCK{tag=b1}\n\t$BLOCK{tag=b2}\n}"},
	}
	models := make([]*pattern.MetaModel, 0, len(specs))
	for _, s := range specs {
		mm, err := dsl.Compile(s.name, s.src)
		if err != nil {
			tb.Fatalf("fixed model %s failed to compile: %v", s.name, err)
		}
		models = append(models, mm)
	}
	return models
}

// parseFuzzFile parses fuzzed text as a Go function body (nil when the
// fragment does not parse).
func parseFuzzFile(src string) *scanner.ParsedFile {
	pf, err := scanner.ParseFileOnce("fuzz.go", []byte("package p\nfunc fuzzTarget() {\n"+src+"\n}"))
	if err != nil {
		return nil
	}
	return pf
}

// parseFuzzBody returns the statements of the fuzzed body (nil when the
// fragment does not parse).
func parseFuzzBody(src string) []ast.Stmt {
	pf := parseFuzzFile(src)
	if pf == nil {
		return nil
	}
	for _, d := range pf.File.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "fuzzTarget" && fd.Body != nil {
			return fd.Body.List
		}
	}
	return nil
}

// fuzzSeeds are the inline seeds both fuzz targets start from.
var fuzzSeeds = []string{
	"x := f(1)\ng(x)\nreturn",
	"a = \"s\"\nb = `raw`",
	"if cond {\n\tf()\n}",
	"if a && b {\n\tg(1, 2)\n}",
	"v := urllib.Request(\"GET\", url, params)",
	"for i := 0; i < 10; i++ {\n\th(i)\n}",
	"switch v {\ncase 1:\n\tf()\ndefault:\n\tg()\n}",
	"defer f()\ngo g()",
	"x, y := f(), g()\nx = y",
	"f(g(h(1)), []any{1, 2}, map[string]any{\"k\": v})",
	"s.Set(key, value, 7)",
	"h()\nf(\"k\")\nv := g(\"k\", \"k\")\nremove_port(v)\nreturn",
	"a()\nb()\nc()\nd()\nf(1)\ne()\nf(2)\nx = (\"s\")\n(f)(3)\nreturn",
	"func() {\n\th()\n\tf()\n\tg(1)\n}()",
	"",
}

// FuzzMatchPrefix throws arbitrary Go statement fragments at the
// matcher with the fixed model panel. The matcher must never panic and
// every reported match must satisfy the window invariants: a
// non-negative statement count that stays inside the list, a rematch at
// the same start reproducing the same window, and the lead anchor never
// rejecting a start the matcher accepts.
//
// Seed corpus: testdata/fuzz/FuzzMatchPrefix/ plus the inline seeds.
func FuzzMatchPrefix(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	models := fuzzModels(f)
	f.Fuzz(func(t *testing.T, src string) {
		stmts := parseFuzzBody(src)
		if stmts == nil {
			return
		}
		for _, mm := range models {
			for start := 0; start <= len(stmts); start++ {
				n, bindings, ok := mm.MatchPrefix(stmts, start)
				if !ok {
					continue
				}
				if n < 0 || start+n > len(stmts) {
					t.Fatalf("%s: match window [%d,+%d) escapes list of %d statements", mm.Name, start, n, len(stmts))
				}
				if start < len(stmts) {
					if admits, blockLed := mm.LeadAdmits(stmts[start]); !blockLed && !admits {
						t.Fatalf("%s: the lead anchor rejects a start the matcher accepts (stmt %d)", mm.Name, start)
					}
				}
				n2, _, ok2 := mm.MatchPrefix(stmts, start)
				if !ok2 || n2 != n {
					t.Fatalf("%s: rematch at %d diverged: (%d,%v) vs (%d,%v)", mm.Name, start, n, ok, n2, ok2)
				}
				for tag, b := range bindings {
					if b.Expr == nil && b.Stmts == nil {
						t.Fatalf("%s: binding %q captured nothing", mm.Name, tag)
					}
				}
			}
		}
	})
}

// FuzzScanAgreesWithMatchPrefix holds the scanner's index to its
// contract — it may only skip work, never change an answer: for every
// fuzzed body, scanner.ScanParsed with the whole panel must report exactly
// the (spec, list, start, n) sequence of the brute-force loop "for model,
// for list, for start: MatchPrefix".
func FuzzScanAgreesWithMatchPrefix(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	models := fuzzModels(f)
	f.Fuzz(func(t *testing.T, src string) {
		pf := parseFuzzFile(src)
		if pf == nil {
			return
		}
		var want []string
		for _, mm := range models {
			for li, sl := range scanner.CollectLists(pf.File) {
				for start := range *sl.Ptr {
					if n, _, ok := mm.MatchPrefix(*sl.Ptr, start); ok {
						want = append(want, fmt.Sprintf("%s #%d @%d+%d", mm.Name, li, start, n))
					}
				}
			}
		}
		var got []string
		for _, pt := range scanner.ScanParsed(pf, models) {
			got = append(got, fmt.Sprintf("%s #%d @%d+%d", pt.Spec, pt.ListIndex, pt.Start, pt.N))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("indexed scan and MatchPrefix at every start disagree\nscan:  %v\nbrute: %v", got, want)
		}
	})
}

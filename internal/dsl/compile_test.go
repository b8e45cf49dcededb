package dsl

import (
	"strings"
	"testing"

	"profipy/internal/pattern"
)

// The three bug specifications of Fig. 1 of the paper, transliterated to
// the Go-flavoured DSL.

// Fig. 1a — Missing function call (MFC).
const specMFC = `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`

// Fig. 1b — Missing IF construct plus statements (MIFS).
const specMIFS = `
change {
	if $EXPR{var=node} {
		$BLOCK{stmts=1,4}
		continue
	}
} into {
}`

// Fig. 1c — Wrong parameter in function call (WPF).
const specWPF = `
change {
	$CALL#c{name=utils.Execute}(..., $STRING#s{val=*-*}, ...)
} into {
	$CALL#c(..., $CORRUPT($STRING#s), ...)
}`

func TestFig1aMFCCompiles(t *testing.T) {
	mm, err := Compile("MFC", specMFC)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(mm.Pattern) != 3 {
		t.Fatalf("pattern stmts = %d, want 3", len(mm.Pattern))
	}
	if len(mm.Replace) != 2 {
		t.Fatalf("replace stmts = %d, want 2", len(mm.Replace))
	}
	var blocks, calls int
	for _, d := range mm.Holes {
		switch d.Kind {
		case pattern.KindBlock:
			blocks++
			if d.MinStmts != 1 || d.MaxStmts != -1 {
				t.Errorf("block cardinality = %d,%d, want 1,*", d.MinStmts, d.MaxStmts)
			}
		case pattern.KindCall:
			calls++
			if got := d.Attrs["name"]; got != "Delete*" {
				t.Errorf("call name pattern = %q, want Delete*", got)
			}
			if !d.HasArgs || len(d.Args) != 1 || !d.Args[0].Ellipsis {
				t.Errorf("call args = %+v, want single ellipsis", d.Args)
			}
		}
	}
	if blocks != 4 || calls != 1 {
		t.Fatalf("directives: blocks=%d calls=%d, want 4 blocks (2 pattern + 2 replace) and 1 call", blocks, calls)
	}
}

func TestFig1bMIFSCompiles(t *testing.T) {
	mm, err := Compile("MIFS", specMIFS)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(mm.Pattern) != 1 {
		t.Fatalf("pattern stmts = %d, want 1 (the if)", len(mm.Pattern))
	}
	if len(mm.Replace) != 0 {
		t.Fatalf("replace stmts = %d, want 0 (omission)", len(mm.Replace))
	}
	var haveExpr, haveBlock bool
	for _, d := range mm.Holes {
		switch d.Kind {
		case pattern.KindExpr:
			haveExpr = true
			if d.Attrs["var"] != "node" {
				t.Errorf("expr var = %q, want node", d.Attrs["var"])
			}
		case pattern.KindBlock:
			haveBlock = true
			if d.MinStmts != 1 || d.MaxStmts != 4 {
				t.Errorf("block cardinality = %d,%d, want 1,4", d.MinStmts, d.MaxStmts)
			}
		}
	}
	if !haveExpr || !haveBlock {
		t.Fatalf("missing directives: expr=%v block=%v", haveExpr, haveBlock)
	}
}

func TestFig1cWPFCompiles(t *testing.T) {
	mm, err := Compile("WPF", specWPF)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var call, corrupt, str *pattern.Directive
	for _, d := range mm.Holes {
		switch d.Kind {
		case pattern.KindCall:
			if d.Attrs["name"] != "" {
				call = d
			}
		case pattern.KindCorrupt:
			corrupt = d
		case pattern.KindString:
			if d.Tag == "s" && d.Attrs["val"] != "" {
				str = d
			}
		}
	}
	if call == nil || call.Tag != "c" || call.Attrs["name"] != "utils.Execute" {
		t.Fatalf("pattern $CALL directive wrong: %+v", call)
	}
	if len(call.Args) != 3 || !call.Args[0].Ellipsis || call.Args[1].Ellipsis || !call.Args[2].Ellipsis {
		t.Fatalf("pattern $CALL args = %+v, want [..., expr, ...]", call.Args)
	}
	if str == nil || str.Attrs["val"] != "*-*" {
		t.Fatalf("pattern $STRING directive wrong: %+v", str)
	}
	if corrupt == nil || len(corrupt.Args) != 1 {
		t.Fatalf("replacement $CORRUPT directive wrong: %+v", corrupt)
	}
}

// TestCompileFullRuntimeClauses covers the runtime spec form: trigger
// and action blocks compile into a fault, the trigger block is optional
// (defaulting to always), and the site pattern scans like any other.
func TestCompileFullRuntimeClauses(t *testing.T) {
	cs, err := CompileFull("rt", `
change {
	$VAR#v := $CALL#c{name=urllib.*}(...)
} trigger {
	prob(0.25)
} action {
	raise(ConnectTimeoutError, "flaky")
}`)
	if err != nil {
		t.Fatalf("CompileFull: %v", err)
	}
	if !cs.IsRuntime() || cs.SiteOnly {
		t.Fatalf("spec kind wrong: runtime=%v siteOnly=%v", cs.IsRuntime(), cs.SiteOnly)
	}
	if cs.Runtime.When.Mode != "prob" || cs.Runtime.When.P != 0.25 {
		t.Fatalf("trigger = %+v", cs.Runtime.When)
	}
	if cs.Runtime.Do.Kind != "raise" || cs.Runtime.Do.ExcType != "ConnectTimeoutError" || cs.Runtime.Do.Message != "flaky" {
		t.Fatalf("action = %+v", cs.Runtime.Do)
	}
	if cs.Runtime.Site != "" {
		t.Fatalf("site must stay unbound at compile time, got %q", cs.Runtime.Site)
	}
	if len(cs.Model.Pattern) == 0 || len(cs.Model.Replace) != 0 {
		t.Fatalf("runtime model shape: pattern=%d replace=%d", len(cs.Model.Pattern), len(cs.Model.Replace))
	}

	// Trigger block omitted → always.
	cs2, err := CompileFull("rt2", `change { f() } action { corrupt(offbyone) }`)
	if err != nil {
		t.Fatalf("CompileFull (no trigger): %v", err)
	}
	if cs2.Runtime.When.Mode != "always" || cs2.Runtime.Do.Corruption != "offbyone" {
		t.Fatalf("defaulted fault = %+v", cs2.Runtime)
	}

	// Site-only form compiles, flagged for the caller to resolve.
	cs3, err := CompileFull("rt3", `change { f() }`)
	if err != nil {
		t.Fatalf("CompileFull (site-only): %v", err)
	}
	if !cs3.SiteOnly || cs3.IsRuntime() {
		t.Fatalf("site-only kind wrong: %+v", cs3)
	}
}

func TestCompileErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"missing change", `into { }`, "expected 'change'"},
		{"missing into", `change { x() }`, "change block without into or trigger/action blocks"},
		{"trailing after change", `change { x() } junk`, "expected 'into'"},
		{"trigger without action", `change { x() } trigger { always }`, "expected 'action' block"},
		{"empty pattern", `change { } into { x() }`, "change block is empty"},
		{"unknown directive", `change { $BOGUS } into { }`, "unknown directive"},
		{"stray dollar", `change { $ } into { }`, "stray '$'"},
		{"bad stmts", `change { $BLOCK{stmts=z} } into { }`, "bad stmts"},
		{"inverted stmts", `change { $BLOCK{stmts=4,2} } into { }`, "bad stmts"},
		{"corrupt in pattern", `change { $CORRUPT(x) } into { }`, "replacement-only"},
		{"unbound tag", `change { $CALL{name=f}(...) } into { $BLOCK{tag=zz} }`, "never binds"},
		{"trailing text", `change { f() } into { } garbage`, "trailing text"},
		{"bad go syntax", `change { if if } into { }`, "not valid target syntax"},
		{"unterminated string", `change { Log("abc } into { }`, "unterminated"},
		{"malformed attr", `change { $CALL{name}(...) } into { }`, "malformed attribute"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile("bad", tc.src)
			if err == nil {
				t.Fatalf("Compile succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestCompileTagSyntaxVariants(t *testing.T) {
	// Tag can be written as #tag or as {tag=...}; both in either order
	// relative to the attribute block.
	for _, src := range []string{
		`change { $CALL#c{name=f}(...) } into { $CALL#c }`,
		`change { $CALL{name=f}#c(...) } into { $CALL#c }`,
		`change { $CALL{name=f; tag=c}(...) } into { $CALL#c }`,
	} {
		mm, err := Compile("tags", src)
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		found := false
		for _, d := range mm.Holes {
			if d.Kind == pattern.KindCall && d.Tag == "c" && d.HasArgs {
				found = true
			}
		}
		if !found {
			t.Fatalf("Compile(%q): no tagged $CALL directive found", src)
		}
	}
}

func TestCompileConflictingTags(t *testing.T) {
	_, err := Compile("conflict", `change { $CALL#a{tag=b; name=f}(...) } into { }`)
	if err == nil || !strings.Contains(err.Error(), "conflicting tags") {
		t.Fatalf("err = %v, want conflicting tags", err)
	}
}

func TestCompileStringsWithBraces(t *testing.T) {
	// Braces and $ inside string literals must not confuse the splitter.
	mm, err := Compile("strs", `
change {
	Log("a { b } $ c")
} into {
	Log("mutated")
}`)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(mm.Pattern) != 1 || len(mm.Replace) != 1 {
		t.Fatalf("unexpected shape: %d pattern, %d replace", len(mm.Pattern), len(mm.Replace))
	}
}

func TestCompilePanicHogTimeoutDirectives(t *testing.T) {
	mm, err := Compile("extras", `
change {
	$CALL#c{name=Do}(...)
} into {
	$PANIC{type=ConnectTimeoutError; msg=injected}
	$HOG{res=cpu; amount=3}
	$TIMEOUT{ms=500}
}`)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	kinds := map[pattern.Kind]bool{}
	for _, d := range mm.Holes {
		kinds[d.Kind] = true
	}
	for _, k := range []pattern.Kind{pattern.KindPanic, pattern.KindHog, pattern.KindTimeout} {
		if !kinds[k] {
			t.Errorf("missing directive kind %v", k)
		}
	}
}

// TestDiagnosticsAreDeterministic: an error that quotes a directive lists
// its attributes in one order, without the compiler's __argN stash keys,
// and with several bad directives the first one in the text is reported.
func TestDiagnosticsAreDeterministic(t *testing.T) {
	const bad = `
change {
	$CALL#c{name=Execute; tag=c; zeta=1; alpha=2}($EXPR#a, 1 +, $STRING#s)
	$CALL{name=Later}(2 *)
} into {
}`
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		_, err := Compile("bad", bad)
		if err == nil {
			t.Fatal("bad argument pattern compiled")
		}
		seen[err.Error()] = true
	}
	if len(seen) != 1 {
		t.Fatalf("50 compilations of one spec gave %d different errors: %v", len(seen), seen)
	}
	for msg := range seen {
		if strings.Contains(msg, "__arg") {
			t.Errorf("diagnostic leaks the compiler's stash keys: %s", msg)
		}
		if want := `bad argument pattern "1 +" in $CALL#c{alpha=2; name=Execute; tag=c; zeta=1}`; !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q does not contain %q", msg, want)
		}
	}
}

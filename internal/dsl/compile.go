package dsl

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"

	"profipy/internal/pattern"
	"profipy/internal/runtimefault"
)

// CompiledSpec is the compiled form of one bug specification. Model is
// always set: the site pattern the scanner matches against target code.
// For compile-time specs the model also carries the replacement (the
// `into` block); for runtime specs Runtime holds the trigger/action
// pair instead and the model's Replace is empty (the scanner still
// enumerates injection points from the `change` pattern, but execution
// attaches an injector rather than mutating source).
type CompiledSpec struct {
	Model   *pattern.MetaModel
	Runtime *runtimefault.Fault
	// SiteOnly marks a spec whose DSL is a bare change{} block: a site
	// pattern with no injection behaviour of its own. Valid only when
	// the caller supplies the trigger/action out of band (the faultload
	// fields); dsl.Compile rejects it.
	SiteOnly bool
}

// IsRuntime reports whether the spec injects at run time.
func (cs *CompiledSpec) IsRuntime() bool { return cs.Runtime != nil }

// Compile compiles a compile-time bug specification written in the
// ProFIPy DSL into a meta-model. name is a human-readable identifier
// used in plans and reports; src is the `change { ... } into { ... }`
// text. Specs carrying runtime trigger/action clauses are rejected —
// use CompileFull for those.
func Compile(name, src string) (*pattern.MetaModel, error) {
	cs, err := CompileFull(name, src)
	if err != nil {
		return nil, err
	}
	if cs.IsRuntime() {
		return nil, fmt.Errorf("spec %q: runtime trigger/action spec where a compile-time spec is required", name)
	}
	if cs.SiteOnly {
		return nil, fmt.Errorf("spec %q: change block without into or trigger/action blocks", name)
	}
	return cs.Model, nil
}

// HasRuntimeClauses reports whether the spec text uses the runtime
// trigger/action form, from the section split alone — no preprocessing
// or pattern compilation. Malformed texts report false; CompileFull
// surfaces their errors.
func HasRuntimeClauses(src string) bool {
	sec, err := splitSections(src)
	return err == nil && sec.runtime
}

// CompileFull compiles a bug specification of either kind:
//
//	change { <pattern> } into { <replacement> }           // compile-time
//	change { <pattern> } trigger { <when> } action { <do> }  // runtime
//
// The runtime trigger clause is one of always, prob(p), every(k),
// after(n), round(r); the action clause is raise(Exc, "msg"),
// corrupt(bitflip|offbyone|null) or delay(duration). The trigger clause
// may be omitted (defaulting to always), the action clause may not.
func CompileFull(name, src string) (*CompiledSpec, error) {
	sec, err := splitSections(src)
	if err != nil {
		return nil, fmt.Errorf("spec %q: %w", name, err)
	}

	pre := newPreprocessor()
	patText, err := pre.rewrite(sec.change)
	if err != nil {
		return nil, fmt.Errorf("spec %q (change block): %w", name, err)
	}
	repText, err := pre.rewrite(sec.into)
	if err != nil {
		return nil, fmt.Errorf("spec %q (into block): %w", name, err)
	}

	fset := token.NewFileSet()
	patStmts, err := parseStmts(fset, patText)
	if err != nil {
		return nil, fmt.Errorf("spec %q: change block is not valid target syntax: %w", name, err)
	}
	repStmts, err := parseStmts(fset, repText)
	if err != nil {
		return nil, fmt.Errorf("spec %q: into block is not valid target syntax: %w", name, err)
	}
	if len(patStmts) == 0 {
		return nil, fmt.Errorf("spec %q: change block is empty", name)
	}

	mm := &pattern.MetaModel{
		Name:    name,
		Pattern: patStmts,
		Replace: repStmts,
		Holes:   pre.holes,
		Fset:    fset,
	}
	if err := attachArgExprs(mm); err != nil {
		return nil, fmt.Errorf("spec %q: %w", name, err)
	}
	mm.Finish()
	if err := validate(mm); err != nil {
		return nil, fmt.Errorf("spec %q: %w", name, err)
	}

	cs := &CompiledSpec{Model: mm, SiteOnly: sec.siteOnly}
	if sec.runtime {
		rf, err := compileRuntimeClauses(name, sec)
		if err != nil {
			return nil, err
		}
		cs.Runtime = rf
	}
	return cs, nil
}

// compileRuntimeClauses builds the runtime fault of a trigger/action
// spec through the shared constructor (runtimefault.NewFault), so the
// DSL-clause spelling and the faultload-field spelling can never drift.
func compileRuntimeClauses(name string, sec sections) (*runtimefault.Fault, error) {
	rf, err := runtimefault.NewFault(name, sec.trigger, strings.TrimSpace(sec.action))
	if err != nil {
		return nil, fmt.Errorf("spec %q (trigger/action blocks): %w", name, err)
	}
	return rf, nil
}

// sections holds the raw block bodies of one spec.
type sections struct {
	change   string
	into     string
	trigger  string
	action   string
	runtime  bool
	siteOnly bool
}

// splitSections extracts the spec's block bodies, honouring nested
// braces and string literals. A spec is `change{...}` followed either
// by `into{...}` (compile-time) or by `[trigger{...}] action{...}`
// (runtime); the two forms are mutually exclusive. A bare `change{...}`
// is a site-only pattern, valid only with an out-of-band trigger/action
// (the faultload's Trigger/Action fields).
func splitSections(src string) (sections, error) {
	var sec sections
	i := skipSpaceAndComments(src, 0)
	if !strings.HasPrefix(src[i:], "change") {
		return sec, fmt.Errorf("dsl: expected 'change' keyword")
	}
	var err error
	i = skipSpaceAndComments(src, i+len("change"))
	sec.change, i, err = braceBlock(src, i)
	if err != nil {
		return sec, err
	}
	i = skipSpaceAndComments(src, i)
	switch {
	case strings.HasPrefix(src[i:], "into"):
		i = skipSpaceAndComments(src, i+len("into"))
		sec.into, i, err = braceBlock(src, i)
		if err != nil {
			return sec, err
		}
	case strings.HasPrefix(src[i:], "trigger"), strings.HasPrefix(src[i:], "action"):
		sec.runtime = true
		if strings.HasPrefix(src[i:], "trigger") {
			i = skipSpaceAndComments(src, i+len("trigger"))
			sec.trigger, i, err = braceBlock(src, i)
			if err != nil {
				return sec, err
			}
			i = skipSpaceAndComments(src, i)
		}
		if !strings.HasPrefix(src[i:], "action") {
			return sec, fmt.Errorf("dsl: expected 'action' block after trigger block")
		}
		i = skipSpaceAndComments(src, i+len("action"))
		sec.action, i, err = braceBlock(src, i)
		if err != nil {
			return sec, err
		}
	default:
		if strings.TrimSpace(src[i:]) == "" {
			sec.siteOnly = true
			return sec, nil
		}
		return sec, fmt.Errorf("dsl: expected 'into' (compile-time spec) or 'trigger'/'action' (runtime spec) after change block")
	}
	if rest := strings.TrimSpace(src[i:]); rest != "" {
		return sec, fmt.Errorf("dsl: unexpected trailing text %q", truncate(rest, 40))
	}
	return sec, nil
}

// braceBlock reads a balanced {...} block starting at src[at]=='{' and
// returns the inner text plus the offset after the closing brace.
func braceBlock(src string, at int) (string, int, error) {
	if at >= len(src) || src[at] != '{' {
		return "", 0, fmt.Errorf("dsl: expected '{' at offset %d", at)
	}
	depth := 0
	i := at
	for i < len(src) {
		switch src[i] {
		case '"', '`', '\'':
			end, err := skipString(src, i)
			if err != nil {
				return "", 0, err
			}
			i = end
			continue
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return src[at+1 : i], i + 1, nil
			}
		}
		i++
	}
	return "", 0, fmt.Errorf("dsl: unterminated block starting at offset %d", at)
}

func skipSpaceAndComments(src string, i int) int {
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			nl := strings.IndexByte(src[i:], '\n')
			if nl < 0 {
				return len(src)
			}
			i += nl + 1
		default:
			return i
		}
	}
	return i
}

// parseStmts parses a statement list fragment with the standard Go parser.
func parseStmts(fset *token.FileSet, body string) ([]ast.Stmt, error) {
	src := "package __p\nfunc __pat() {\n" + body + "\n}"
	f, err := parser.ParseFile(fset, "spec.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "__pat" {
			return fd.Body.List, nil
		}
	}
	return nil, fmt.Errorf("dsl: internal error: wrapper function not found")
}

// attachArgExprs parses the stashed argument-piece texts of directives
// that carry argument patterns ($CALL, $CORRUPT, ...) into expressions.
func attachArgExprs(mm *pattern.MetaModel) error {
	// In placeholder order, so the first error is the same on every run.
	for h := 0; h < len(mm.Holes); h++ {
		d := mm.Holes[holeName(h)]
		for i := range d.Args {
			if d.Args[i].Ellipsis {
				continue
			}
			key := "__arg" + strconv.Itoa(i)
			text, ok := d.Attrs[key]
			if !ok {
				return fmt.Errorf("dsl: internal error: missing argument text for %s arg %d", d, i)
			}
			expr, err := parser.ParseExpr(text)
			if err != nil {
				return fmt.Errorf("dsl: bad argument pattern %q in %s: %w", text, d, err)
			}
			d.Args[i].Expr = expr
			delete(d.Attrs, key)
		}
	}
	return nil
}

// validate enforces structural rules: pattern-position directives must be
// matchable kinds, and tags referenced in the replacement must be bound by
// the pattern.
func validate(mm *pattern.MetaModel) error {
	bound := map[string]bool{}
	var err error
	walkHoles(mm, mm.Pattern, func(d *pattern.Directive) {
		switch d.Kind {
		case pattern.KindCorrupt, pattern.KindHog, pattern.KindTimeout, pattern.KindPanic:
			err = fmt.Errorf("dsl: $%s is a replacement-only directive and cannot appear in the change block", d.Kind)
		}
		if d.Tag != "" {
			bound[d.Tag] = true
		}
	})
	if err != nil {
		return err
	}
	walkHoles(mm, mm.Replace, func(d *pattern.Directive) {
		if d.Tag != "" && !bound[d.Tag] {
			switch d.Kind {
			case pattern.KindCorrupt, pattern.KindHog, pattern.KindTimeout, pattern.KindPanic:
				// These define behaviour, not references; tags are ignored.
			default:
				err = fmt.Errorf("dsl: replacement references tag %q which the change block never binds", d.Tag)
			}
		}
	})
	return err
}

// walkHoles visits every directive reachable from a statement list,
// including directives nested in argument patterns.
func walkHoles(mm *pattern.MetaModel, stmts []ast.Stmt, fn func(*pattern.Directive)) {
	var visitExpr func(e ast.Expr)
	var seen map[*pattern.Directive]bool
	seen = map[*pattern.Directive]bool{}
	var visitDirective func(d *pattern.Directive)
	visitDirective = func(d *pattern.Directive) {
		if d == nil || seen[d] {
			return
		}
		seen[d] = true
		fn(d)
		for _, a := range d.Args {
			if a.Expr != nil {
				visitExpr(a.Expr)
			}
		}
	}
	visitExpr = func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				visitDirective(mm.Holes[id.Name])
			}
			return true
		})
	}
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				visitDirective(mm.Holes[id.Name])
			}
			return true
		})
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// Package mutator implements ProFIPy's source-code mutator: given a
// compiled bug specification and one injection point found by the scanner,
// it produces a mutated version of the target source file.
//
// Mutations are wrapped in a run-time trigger (EDFI-style): the mutated
// code has the shape
//
//	if __fault_enabled() { <faulty statements> } else { <original> }
//
// so the sandbox can enable the fault during round 1 of the workload and
// disable it during round 2 without redeploying, which is what powers the
// service-availability analysis (§IV-B of the paper).
package mutator

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"reflect"

	"profipy/internal/pattern"
	"profipy/internal/scanner"
)

// Options controls how a mutation is applied.
type Options struct {
	// Triggered wraps the faulty code in the run-time trigger branch.
	// When false the faulty code replaces the original unconditionally.
	Triggered bool
}

// Mutant is one injection point applied to a cached parse, in structured
// form: the statement window it replaces and the statements it puts
// there. It yields the mutated declaration as a tree (Decl) for the
// compiler and the mutated file as text (Render) for deployment; both
// come from the same statements, so they describe the same program.
type Mutant struct {
	pf       *scanner.ParsedFile
	list     scanner.StmtList
	start, n int
	injected []ast.Stmt
}

// Result is a rendered Mutant: the full mutated file next to the
// structured form it was printed from.
type Result struct {
	Source []byte // full mutated file
	*Mutant
}

// Apply mutates one injection point in a source file: the file is parsed,
// the match is re-established (scan ordering is deterministic), the
// replacement template is instantiated against the match bindings, and the
// mutated file is produced. Callers holding a campaign parse cache should
// prefer ApplyParsed, which skips the per-experiment parse.
func Apply(filename string, src []byte, mm *pattern.MetaModel, point scanner.InjectionPoint, opts Options) (*Result, error) {
	pf, err := scanner.ParseFileOnce(filename, src)
	if err != nil {
		return nil, err
	}
	return ApplyParsed(pf, mm, point, opts)
}

// ApplyParsed is Mutate followed by Render, for callers that want the
// mutated file's text only.
func ApplyParsed(pf *scanner.ParsedFile, mm *pattern.MetaModel, point scanner.InjectionPoint, opts Options) (*Result, error) {
	m, err := Mutate(pf, mm, point, opts)
	if err != nil {
		return nil, err
	}
	src, err := m.Render()
	if err != nil {
		return nil, err
	}
	return &Result{Source: src, Mutant: m}, nil
}

// Mutate applies one injection point against a cached parse: it
// re-establishes the match, instantiates the replacement template
// against the bindings and wraps it in the run-time trigger. The cached
// AST is strictly read-only — the same ParsedFile is shared by every
// parallel experiment of a campaign — and nothing is printed here.
func Mutate(pf *scanner.ParsedFile, mm *pattern.MetaModel, point scanner.InjectionPoint, opts Options) (*Mutant, error) {
	if point.Spec != mm.Name {
		return nil, fmt.Errorf("mutator: injection point is for spec %q, not %q", point.Spec, mm.Name)
	}
	lists := pf.Lists
	if point.ListIndex < 0 || point.ListIndex >= len(lists) {
		return nil, fmt.Errorf("mutator: stale injection point: list index %d out of range", point.ListIndex)
	}
	stmts := *lists[point.ListIndex].Ptr
	if point.Start < 0 || point.Start >= len(stmts) {
		return nil, fmt.Errorf("mutator: stale injection point: start %d out of range", point.Start)
	}

	n, bindings, ok := mm.MatchPrefix(stmts, point.Start)
	if !ok || n != point.N {
		return nil, fmt.Errorf("mutator: stale injection point: pattern no longer matches at %s", point.ID())
	}

	ex := &expander{b: bindings}
	injected, err := ex.expandStmts(mm.Replace)
	if err != nil {
		return nil, err
	}
	if opts.Triggered {
		// Keep a pristine copy of the originals in the else branch so the
		// fault can be disabled at run time.
		injected = []ast.Stmt{&ast.IfStmt{
			Cond: &ast.CallExpr{Fun: ast.NewIdent(HookTrigger)},
			Body: &ast.BlockStmt{List: injected},
			Else: &ast.BlockStmt{List: clonePlainStmts(stmts[point.Start : point.Start+n])},
		}}
	}
	parenHeaderLits(injected)
	return &Mutant{pf: pf, list: lists[point.ListIndex], start: point.Start, n: n, injected: injected}, nil
}

// Original is the source text of the replaced statements.
func (m *Mutant) Original() string {
	return renderStmts(m.pf.Fset, (*m.list.Ptr)[m.start:m.start+m.n])
}

// Mutated is the source text of the injected statements.
func (m *Mutant) Mutated() string { return renderStmts(m.pf.Fset, m.injected) }

// Decl returns the enclosing top-level function with the window
// replaced. Only the nodes on the path from the function body to the
// window's statement list are copied; every other subtree is shared
// with the cached parse, which is left untouched.
func (m *Mutant) Decl() *ast.FuncDecl {
	old := *m.list.Ptr
	list := make([]ast.Stmt, 0, len(old)-m.n+len(m.injected))
	list = append(list, old[:m.start]...)
	list = append(list, m.injected...)
	list = append(list, old[m.start+m.n:]...)

	// The path: every node from the body down to the list's owner, each
	// a child of the one before (Inspect pops a node once its subtree is
	// done, unless the owner was found inside). node is the owner's copy
	// holding the new list.
	var path []ast.Node
	var node ast.Node
	ptr := m.list.Ptr
	ast.Inspect(m.list.Decl.Body, func(n ast.Node) bool {
		if node != nil {
			return false
		}
		if n == nil {
			path = path[:len(path)-1]
			return true
		}
		path = append(path, n)
		switch owner := n.(type) {
		case *ast.BlockStmt:
			if &owner.List == ptr {
				c := *owner
				c.List, node = list, &c
			}
		case *ast.CaseClause:
			if &owner.Body == ptr {
				c := *owner
				c.Body, node = list, &c
			}
		case *ast.CommClause:
			if &owner.Body == ptr {
				c := *owner
				c.Body, node = list, &c
			}
		}
		return node == nil
	})
	for i := len(path) - 2; i >= 0; i-- {
		node = withChild(path[i], path[i+1], node)
	}
	fd := *m.list.Decl
	fd.Body = node.(*ast.BlockStmt)
	return &fd
}

// withChild returns a shallow copy of parent in which the child old is
// replaced by repl. The path to a statement list can run through any
// node kind (a function literal sits anywhere an expression does), so
// the fields are found by reflection instead of one case per kind.
func withChild(parent, old, repl ast.Node) ast.Node {
	src := reflect.ValueOf(parent).Elem()
	cp := reflect.New(src.Type())
	cp.Elem().Set(src)
	for i := 0; i < src.NumField(); i++ {
		f := cp.Elem().Field(i)
		switch f.Kind() {
		case reflect.Pointer, reflect.Interface:
			if !f.IsNil() && f.Interface() == old {
				f.Set(reflect.ValueOf(repl))
				return cp.Interface().(ast.Node)
			}
		case reflect.Slice:
			for j := 0; j < f.Len(); j++ {
				if e := f.Index(j); e.Kind() == reflect.Interface && e.Interface() == old {
					elems := reflect.MakeSlice(f.Type(), f.Len(), f.Len())
					reflect.Copy(elems, f)
					elems.Index(j).Set(reflect.ValueOf(repl))
					f.Set(elems)
					return cp.Interface().(ast.Node)
				}
			}
		}
	}
	panic(fmt.Sprintf("mutator: %T is not a child of %T", old, parent))
}

// Render returns the mutated file. Instead of re-printing the whole
// file, the rendered replacement text is spliced into a copy of the
// source bytes at the statement window's byte offsets; source outside
// the window is preserved byte-for-byte.
func (m *Mutant) Render() ([]byte, error) {
	pf, stmts := m.pf, *m.list.Ptr
	// Zero-width matches (a pattern that consumes no statements, e.g. a
	// 0-minimum block) insert before the statement at Start instead of
	// replacing a window.
	startOff := pf.Offset(stmts[m.start].Pos())
	endOff := startOff
	if m.n > 0 {
		endOff = pf.Offset(stmts[m.start+m.n-1].End())
	}
	spliceFrom, indent := spliceAnchor(pf.Src, startOff)
	rendered, err := renderIndented(m.injected, indent)
	if err != nil {
		return nil, err
	}

	out := make([]byte, 0, len(pf.Src)-(endOff-spliceFrom)+len(rendered)+1)
	out = append(out, pf.Src[:spliceFrom]...)
	out = append(out, rendered...)
	if m.n == 0 {
		// Pure insertion: the statement at Start survives on its own
		// line (endOff sits at spliceFrom or just past the indent, so
		// the indent bytes cut by the anchor are restored too).
		out = append(out, '\n')
		out = append(out, pf.Src[spliceFrom:startOff]...)
	}
	out = append(out, pf.Src[endOff:]...)
	return out, nil
}

// spliceAnchor decides where a statement-window splice begins. When the
// window's first statement has only whitespace before it on its line, the
// splice starts at the line start and the replacement is re-indented to
// the same depth; when code precedes it (single-line blocks like
// `if x { g() }`), the splice starts at the statement itself, unindented —
// still valid Go, just less pretty.
func spliceAnchor(src []byte, startOff int) (from, indent int) {
	lineStart := startOff
	for lineStart > 0 && src[lineStart-1] != '\n' {
		lineStart--
	}
	tabs, spaces := 0, 0
	for _, ch := range src[lineStart:startOff] {
		switch ch {
		case '\t':
			tabs++
		case ' ':
			spaces++
		default:
			return startOff, 0
		}
	}
	return lineStart, tabs + spaces/8
}

// renderIndented renders statements at the given indent depth. The
// go/printer protects raw string literals from the indentation pass, so
// multi-line literals inside the window survive unchanged.
func renderIndented(stmts []ast.Stmt, indent int) ([]byte, error) {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8, Indent: indent}
	fset := token.NewFileSet()
	for i, s := range stmts {
		if i > 0 {
			buf.WriteByte('\n')
		}
		if err := cfg.Fprint(&buf, fset, s); err != nil {
			return nil, fmt.Errorf("mutator: render mutated statements: %w", err)
		}
	}
	return buf.Bytes(), nil
}

func renderStmts(fset *token.FileSet, stmts []ast.Stmt) string {
	var buf bytes.Buffer
	for i, s := range stmts {
		if i > 0 {
			buf.WriteString("; ")
		}
		pattern.PrintNode(&buf, fset, s)
	}
	return buf.String()
}

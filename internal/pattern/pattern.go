// Package pattern implements the meta-model that the ProFIPy DSL compiles
// into, and the engine that matches a meta-model against a target Go AST.
//
// A meta-model is a pair of statement lists — the code pattern and the code
// replacement — expressed as ordinary Go AST fragments in which special
// placeholder identifiers stand for DSL directives ($CALL, $BLOCK, $EXPR,
// $STRING, ...). The matching engine walks target statement windows and
// unifies directive placeholders with concrete AST nodes, producing a set
// of tag bindings that the mutator later splices into the replacement.
package pattern

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies a DSL directive.
type Kind int

// Directive kinds. KindCall matches call expressions, KindBlock matches a
// run of consecutive statements, and so on. The remaining kinds (KindCorrupt,
// KindHog, KindTimeout, KindPanic) are replacement-only directives that
// expand into runtime hook calls.
const (
	KindCall Kind = iota + 1
	KindBlock
	KindExpr
	KindVar
	KindString
	KindInt
	KindAny
	KindNil
	KindCorrupt
	KindHog
	KindTimeout
	KindPanic
)

var kindNames = map[Kind]string{
	KindCall:    "CALL",
	KindBlock:   "BLOCK",
	KindExpr:    "EXPR",
	KindVar:     "VAR",
	KindString:  "STRING",
	KindInt:     "INT",
	KindAny:     "ANY",
	KindNil:     "NIL",
	KindCorrupt: "CORRUPT",
	KindHog:     "HOG",
	KindTimeout: "TIMEOUT",
	KindPanic:   "PANIC",
}

// String returns the DSL spelling of the directive kind (without the $).
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "UNKNOWN(" + strconv.Itoa(int(k)) + ")"
}

// KindByName maps a DSL directive name (e.g. "CALL") to its Kind.
// The second return value reports whether the name is known.
func KindByName(name string) (Kind, bool) {
	for k, s := range kindNames {
		if s == name {
			return k, true
		}
	}
	return 0, false
}

// ArgPat is one element of a $CALL argument pattern. Either Ellipsis is
// true (matches zero or more arguments) or Expr holds an expression pattern
// (which may itself contain directive placeholders).
type ArgPat struct {
	Ellipsis bool
	Expr     ast.Expr
}

// Directive is the compiled form of one DSL directive occurrence.
type Directive struct {
	Kind  Kind
	Tag   string            // binding tag ("" when untagged)
	Attrs map[string]string // raw key=value attributes
	Args  []ArgPat          // for KindCall: argument patterns; nil = no parens

	// Block cardinality, for KindBlock. MaxStmts < 0 means unbounded (*).
	MinStmts int
	MaxStmts int

	// HasArgs records whether an argument list was written at all. A bare
	// $CALL{...} with no parentheses matches a call with any arguments.
	HasArgs bool

	// glob is the attribute the matcher compares text against — name= of
	// $CALL/$VAR, val= of $STRING/$INT, var= of $EXPR — split and
	// classified by Finish; nil when the attribute is absent.
	glob *globSet
}

// String renders the directive roughly in DSL syntax, for diagnostics.
func (d *Directive) String() string {
	var sb strings.Builder
	sb.WriteByte('$')
	sb.WriteString(d.Kind.String())
	if d.Tag != "" {
		sb.WriteByte('#')
		sb.WriteString(d.Tag)
	}
	// Sorted, and without the compiler's __argN stash keys, so a
	// diagnostic reads the same on every run.
	keys := make([]string, 0, len(d.Attrs))
	for k := range d.Attrs {
		if !strings.HasPrefix(k, "__arg") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i == 0 {
			sb.WriteByte('{')
		} else {
			sb.WriteString("; ")
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(d.Attrs[k])
	}
	if len(keys) > 0 {
		sb.WriteByte('}')
	}
	return sb.String()
}

// MetaModel is a compiled bug specification: the code pattern to search
// for and the code replacement to inject, plus the directive table keyed
// by placeholder identifier (__dsl_N).
type MetaModel struct {
	Name    string
	Pattern []ast.Stmt
	Replace []ast.Stmt
	Holes   map[string]*Directive
	Fset    *token.FileSet

	// anchors, set by Finish, holds for each element of Pattern what it
	// demands of a statement before a unify is worth trying.
	anchors []anchor
}

// Finish completes a model whose Pattern, Replace, Holes and argument
// expressions are in place, so that matching decides nothing twice:
// every placeholder identifier is tied to its directive (HoleFor reads
// the link, it does not look the name up), every name=/val=/var= glob is
// split and classified, and every pattern element gets its anchor. The
// model is read-only afterwards.
func (m *MetaModel) Finish() {
	link := func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if d := m.Holes[id.Name]; d != nil {
				id.Obj = &ast.Object{Kind: ast.Bad, Name: id.Name, Data: d}
			}
		}
		return true
	}
	for _, list := range [][]ast.Stmt{m.Pattern, m.Replace} {
		for _, s := range list {
			ast.Inspect(s, link)
		}
	}
	for _, d := range m.Holes {
		for _, a := range d.Args {
			if a.Expr != nil {
				ast.Inspect(a.Expr, link)
			}
		}
		if pat, ok := d.Attrs[globAttr(d.Kind)]; ok {
			d.glob = compileGlobs(pat)
		}
	}
	m.anchors = make([]anchor, len(m.Pattern))
	for i, p := range m.Pattern {
		m.anchors[i] = anchorOf(p)
	}
}

// globAttr names the attribute a directive kind compares text against.
func globAttr(k Kind) string {
	switch k {
	case KindCall, KindVar:
		return "name"
	case KindString, KindInt:
		return "val"
	case KindExpr:
		return "var"
	}
	return ""
}

// HoleFor returns the directive bound to a placeholder expression, or nil
// when the expression is not a placeholder. Directives that consume an
// argument list ($CALL, $CORRUPT, ...) are emitted as zero-argument calls
// (`__dsl_N()`) so they parse in call-only positions such as defer and go
// statements; both spellings resolve here. The link is the one Finish
// stored on the identifier: target code, parsed without object
// resolution, never carries one.
func HoleFor(e ast.Expr) *Directive {
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 0 {
		e = call.Fun
	}
	if id, ok := e.(*ast.Ident); ok && id.Obj != nil {
		d, _ := id.Obj.Data.(*Directive)
		return d
	}
	return nil
}

// stmtDirective returns the directive when the pattern statement is a bare
// placeholder expression statement, else nil.
func stmtDirective(s ast.Stmt) *Directive {
	if es, ok := s.(*ast.ExprStmt); ok {
		return HoleFor(es.X)
	}
	return nil
}

// Bound is a value captured by a tagged directive during matching: either
// a statement run (for $BLOCK) or a single expression (everything else).
type Bound struct {
	Stmts []ast.Stmt
	Expr  ast.Expr
}

// Bindings maps directive tags to the nodes they captured. The matcher
// records them on a trail (see unifier) and materializes this map once
// per successful MatchPrefix.
type Bindings map[string]Bound

// Match is one occurrence of a meta-model's code pattern in a target file:
// a window of N consecutive statements starting at Start within the
// statement list identified by BlockPath.
type Match struct {
	File      string
	FuncName  string // enclosing function or method, "" at file scope
	BlockPath []int  // child indices from the function body to the stmt list
	Start     int    // first statement index in the window
	N         int    // statements consumed by the pattern
	Pos       token.Position
	Bindings  Bindings
}

// Package scanner implements ProFIPy's source-code scanner: it walks the
// AST of the software-under-injection and finds every match of a compiled
// bug specification (meta-model), producing the list of fault injection
// points from which the fault injection plan is built.
package scanner

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"runtime"
	"sync"
	"unicode/utf8"

	"profipy/internal/pattern"
)

// InjectionPoint identifies one location where a bug specification can be
// injected: a statement window within a statement list of a file.
type InjectionPoint struct {
	Spec      string `json:"spec"`
	File      string `json:"file"`
	Func      string `json:"func"`
	ListIndex int    `json:"listIndex"`
	Start     int    `json:"start"`
	N         int    `json:"n"`
	Line      int    `json:"line"`
	Snippet   string `json:"snippet"`
}

// ID returns a stable identifier for the point, unique within a project.
func (p InjectionPoint) ID() string {
	return fmt.Sprintf("%s/%s#%d@%d+%d:%s", p.File, p.Func, p.ListIndex, p.Start, p.N, p.Spec)
}

// StmtList is an addressable statement list inside a parsed file, in
// deterministic DFS order. The same source always yields the same list
// ordering, so ListIndex survives a re-parse.
type StmtList struct {
	Ptr  *[]ast.Stmt
	Func string
	// Decl is the top-level function the list sits in.
	Decl *ast.FuncDecl
}

// CollectLists returns every statement list in the file in deterministic
// order: function bodies first (in declaration order), then nested lists
// (if/else/for/range/switch-case bodies) depth-first.
func CollectLists(f *ast.File) []StmtList {
	var lists []StmtList
	var decl *ast.FuncDecl
	var walkStmts func(fn string, ptr *[]ast.Stmt)
	var walkStmt func(fn string, s ast.Stmt)

	walkStmts = func(fn string, ptr *[]ast.Stmt) {
		lists = append(lists, StmtList{Ptr: ptr, Func: fn, Decl: decl})
		for _, s := range *ptr {
			walkStmt(fn, s)
			// Function-literal bodies hang off expressions (deferred
			// closures, callbacks); their statement lists are injection
			// targets too.
			for _, fl := range funcLitsInStmtExprs(s) {
				walkStmts(fn, &fl.Body.List)
			}
		}
	}
	walkStmt = func(fn string, s ast.Stmt) {
		switch st := s.(type) {
		case *ast.BlockStmt:
			walkStmts(fn, &st.List)
		case *ast.IfStmt:
			walkStmts(fn, &st.Body.List)
			if st.Else != nil {
				walkStmt(fn, st.Else)
			}
		case *ast.ForStmt:
			walkStmts(fn, &st.Body.List)
		case *ast.RangeStmt:
			walkStmts(fn, &st.Body.List)
		case *ast.SwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkStmts(fn, &cc.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkStmts(fn, &cc.Body)
				}
			}
		case *ast.LabeledStmt:
			walkStmt(fn, st.Stmt)
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkStmts(fn, &cc.Body)
				}
			}
		}
	}

	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		decl = fd
		walkStmts(funcDisplayName(fd), &fd.Body.List)
	}
	return lists
}

// funcLitsInStmtExprs finds function literals directly contained in a
// statement's expressions, without descending into nested statement blocks
// (those are visited separately, so stopping at BlockStmt avoids
// double-counting).
func funcLitsInStmtExprs(s ast.Stmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(s, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.BlockStmt:
			return false
		case *ast.FuncLit:
			out = append(out, nn)
			return false
		}
		return true
	})
	return out
}

func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if se, ok := recv.(*ast.StarExpr); ok {
		recv = se.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// ParseSource parses one target source file.
func ParseSource(fset *token.FileSet, filename string, src []byte) (*ast.File, error) {
	f, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", filename, err)
	}
	return f, nil
}

// snippetMax bounds injection-point snippet length (bytes, before the
// ellipsis).
const snippetMax = 120

// truncateSnippet cuts a snippet to at most max bytes without splitting a
// UTF-8 rune mid-sequence: the cut backs up to the nearest rune boundary.
func truncateSnippet[T string | []byte](s T, max int) string {
	if len(s) <= max {
		return string(s)
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return string(s[:cut]) + "..."
}

// ScanFile finds all matches of the given meta-models in a parsed file.
// Matches are enumerated deterministically: per spec, per statement list
// (DFS order), per start index.
func ScanFile(fset *token.FileSet, filename string, f *ast.File, specs []*pattern.MetaModel) []InjectionPoint {
	lists := CollectLists(f)
	return scanLists(fset, filename, lists, indexLists(lists), specs)
}

// ScanParsed scans a cached parse, reusing its pre-collected statement
// lists and their index across every spec.
func ScanParsed(pf *ParsedFile, specs []*pattern.MetaModel) []InjectionPoint {
	return scanLists(pf.Fset, pf.Name, pf.Lists, pf.Index, specs)
}

func indexLists(lists []StmtList) *pattern.Index {
	raw := make([][]ast.Stmt, len(lists))
	for i, sl := range lists {
		raw[i] = *sl.Ptr
	}
	return pattern.NewIndex(raw)
}

// scanLists asks each model for its matches (pattern.Scan decides which
// starts are worth a unify) and turns them into injection points. Line
// and snippet belong to the start statement, not to the spec, so each is
// rendered once however many specs match there, into one buffer.
func scanLists(fset *token.FileSet, filename string, lists []StmtList, ix *pattern.Index, specs []*pattern.MetaModel) []InjectionPoint {
	base := make([]int, len(lists)+1)
	for i, sl := range lists {
		base[i+1] = base[i] + len(*sl.Ptr)
	}
	rendered := make([]struct {
		line    int
		snippet string
	}, base[len(lists)])
	var (
		points []InjectionPoint
		spec   string
		buf    bytes.Buffer
	)
	emit := func(li, start, n int) {
		r := &rendered[base[li]+start]
		if r.line == 0 {
			stmt := (*lists[li].Ptr)[start]
			r.line = fset.Position(stmt.Pos()).Line
			buf.Reset()
			pattern.PrintNode(&buf, fset, stmt)
			r.snippet = truncateSnippet(buf.Bytes(), snippetMax)
		}
		points = append(points, InjectionPoint{
			Spec:      spec,
			File:      filename,
			Func:      lists[li].Func,
			ListIndex: li,
			Start:     start,
			N:         n,
			Line:      r.line,
			Snippet:   r.snippet,
		})
	}
	for _, mm := range specs {
		spec = mm.Name
		mm.Scan(ix, emit)
	}
	return points
}

// ScanSource parses and scans one source file in a single call.
func ScanSource(filename string, src []byte, specs []*pattern.MetaModel) ([]InjectionPoint, error) {
	fset := token.NewFileSet()
	f, err := ParseSource(fset, filename, src)
	if err != nil {
		return nil, err
	}
	return ScanFile(fset, filename, f, specs), nil
}

// ScanProject scans a set of named source files (filename -> contents)
// with a set of specs, using one worker per available CPU. The output is
// deterministic: points appear in sorted-file-name order regardless of
// worker count or scheduling.
func ScanProject(files map[string][]byte, specs []*pattern.MetaModel) ([]InjectionPoint, error) {
	return ScanCache(NewProjectCache(files), specs, 0)
}

// ScanProjectParallel scans with an explicit worker count (0 = one per
// available CPU).
func ScanProjectParallel(files map[string][]byte, specs []*pattern.MetaModel, workers int) ([]InjectionPoint, error) {
	return ScanCache(NewProjectCache(files), specs, workers)
}

// ScanCache scans every file of a project cache with a worker pool,
// leaving the parses behind for the coverage and mutation phases. Results
// are concatenated in sorted-file-name order; when several files fail to
// parse, the error of the first failing file (in that same order) is
// returned, so error reporting is deterministic too.
func ScanCache(cache *ProjectCache, specs []*pattern.MetaModel, workers int) ([]InjectionPoint, error) {
	names := cache.Names()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(names) {
		workers = len(names)
	}
	if workers < 1 {
		workers = 1
	}

	perFile := make([][]InjectionPoint, len(names))
	errs := make([]error, len(names))
	if workers == 1 {
		for i, name := range names {
			perFile[i], errs[i] = scanCached(cache, name, specs)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					perFile[i], errs[i] = scanCached(cache, names[i], specs)
				}
			}()
		}
		for i := range names {
			next <- i
		}
		close(next)
		wg.Wait()
	}

	total := 0
	for i := range names {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total += len(perFile[i])
	}
	all := make([]InjectionPoint, 0, total)
	for _, pts := range perFile {
		all = append(all, pts...)
	}
	return all, nil
}

func scanCached(cache *ProjectCache, name string, specs []*pattern.MetaModel) ([]InjectionPoint, error) {
	pf, err := cache.Get(name)
	if err != nil {
		return nil, err
	}
	return ScanParsed(pf, specs), nil
}

func errNoSuchFile(name string) error {
	return fmt.Errorf("scanner: no such file in project: %s", name)
}

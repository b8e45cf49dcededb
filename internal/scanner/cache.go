package scanner

import (
	"go/ast"
	"go/token"
	"sort"
	"sync"

	"profipy/internal/pattern"
)

// ParsedFile is one target source file parsed once and shared by every
// consumer of the scan→plan→mutate pipeline: the scanner matches against
// it, the coverage phase reads its points' statement offsets off it, and the
// mutator re-establishes matches on it for each experiment.
//
// A ParsedFile is READ-ONLY after construction: the AST, the statement
// lists and the source bytes are shared across goroutines (parallel scan
// workers, parallel experiments), so no consumer may mutate them. The
// mutator honours this by splicing rendered text into a copy of Src
// instead of rewriting the AST.
type ParsedFile struct {
	Name  string
	Src   []byte
	Fset  *token.FileSet
	File  *ast.File
	Lists []StmtList
	// Index answers, for every model and every scan of this parse, which
	// statements of Lists a pattern element could unify with.
	Index *pattern.Index
	// tok is File's entry in Fset: position lookups go straight to it.
	tok *token.File
}

// ParseFileOnce parses a source file and pre-collects its statement lists.
func ParseFileOnce(name string, src []byte) (*ParsedFile, error) {
	fset := token.NewFileSet()
	f, err := ParseSource(fset, name, src)
	if err != nil {
		return nil, err
	}
	lists := CollectLists(f)
	return &ParsedFile{Name: name, Src: src, Fset: fset, File: f, Lists: lists, Index: indexLists(lists), tok: fset.File(f.Pos())}, nil
}

// Offset translates a token position into a byte offset within Src.
func (pf *ParsedFile) Offset(pos token.Pos) int {
	return pf.tok.Offset(pos)
}

// ProjectCache is a per-campaign parse cache: filename -> lazily parsed
// ParsedFile. Each file is parsed exactly once no matter how many specs
// scan it, how many experiments mutate it, or how many goroutines ask for
// it concurrently.
type ProjectCache struct {
	files map[string][]byte
	names []string

	mu      sync.Mutex
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	pf   *ParsedFile
	err  error
}

// NewProjectCache creates a cache over a project file set. The map is
// captured by reference; callers must not mutate it while the cache is in
// use.
func NewProjectCache(files map[string][]byte) *ProjectCache {
	return &ProjectCache{
		files:   files,
		names:   SortedNames(files),
		entries: make(map[string]*cacheEntry, len(files)),
	}
}

// Names returns the project's file names in sorted order.
func (c *ProjectCache) Names() []string { return c.names }

// Get returns the parsed form of a file, parsing it on first use. It is
// safe for concurrent use; concurrent callers of the same file share one
// parse.
func (c *ProjectCache) Get(name string) (*ParsedFile, error) {
	c.mu.Lock()
	e, ok := c.entries[name]
	if !ok {
		e = &cacheEntry{}
		c.entries[name] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		src, ok := c.files[name]
		if !ok {
			e.err = errNoSuchFile(name)
			return
		}
		e.pf, e.err = ParseFileOnce(name, src)
	})
	return e.pf, e.err
}

// SortedNames returns the keys of a file map in sorted order; every layer
// that needs deterministic file ordering (scan, plan, coverage) shares it.
func SortedNames(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

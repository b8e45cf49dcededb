package interp

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"sync"
	"sync/atomic"
)

// SourceUnit is one target file handed to the compiler. When AST is set
// it is used as-is (the campaign passes the scanner's cached parse, so a
// file is parsed once per campaign); otherwise Src is parsed. The AST is
// treated as read-only and may be shared across goroutines.
type SourceUnit struct {
	Name string
	Src  []byte
	AST  *ast.File
}

// linker is the program-wide symbol table plus the content-hash unit
// cache shared by a base program and every derived (mutated) program of
// a campaign. Interning happens at compile time under the lock; compiled
// code carries baked indices and never touches the linker at run time.
type linker struct {
	mu    sync.Mutex
	names []string
	idx   map[string]int
	// proto is the global-slot prototype NewRun copies, parallel to
	// names: the builtins pre-bound, every other slot unbound.
	proto []Value
	// hostSlot caches, per installed host environment, the global slot
	// of each of its names — resolved once per program family, so an
	// Install on the Nth interpreter of a campaign is a few stores.
	hostSlot map[*HostEnv][]int
	units    map[[sha256.Size]byte]*unit
	// shapes holds the field-less root shape of every struct type the
	// program family names; literal shapes hang off them as transitions,
	// so all experiments of a campaign share one shape tree.
	shapes map[string]*Shape
	// hits/misses count WithFiles derivations served from the unit
	// cache vs recompiled — the campaign layer reports them as
	// compile-cache metrics.
	hits   atomic.Uint64
	misses atomic.Uint64
	// incremental counts the subset of misses served by the
	// declaration-level recompile fast path (see incrRecompile).
	incremental atomic.Uint64
}

func newLinker() *linker {
	l := &linker{idx: make(map[string]int), units: make(map[[sha256.Size]byte]*unit),
		shapes: make(map[string]*Shape), hostSlot: make(map[*HostEnv][]int)}
	for i, s := range l.hostSlots(builtinEnv) {
		l.proto[s] = builtinEnv.vals[i]
	}
	return l
}

func (l *linker) intern(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.internLocked(name)
}

func (l *linker) internLocked(name string) int {
	if i, ok := l.idx[name]; ok {
		return i
	}
	i := len(l.names)
	l.names = append(l.names, name)
	l.proto = append(l.proto, unbound)
	l.idx[name] = i
	return i
}

// hostSlots returns the global slot of each of e's names, interning
// them on first use.
func (l *linker) hostSlots(e *HostEnv) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	slots, ok := l.hostSlot[e]
	if !ok {
		slots = make([]int, len(e.names))
		for i, name := range e.names {
			slots[i] = l.internLocked(name)
		}
		l.hostSlot[e] = slots
	}
	return slots
}

// newGlobals returns a fresh global slot array: a copy of the prototype.
func (l *linker) newGlobals() []Value {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Value(nil), l.proto...)
}

// rootShape returns the interned field-less shape of a struct type.
func (l *linker) rootShape(typeName string) *Shape {
	l.mu.Lock()
	defer l.mu.Unlock()
	sh, ok := l.shapes[typeName]
	if !ok {
		sh = &Shape{typeName: typeName}
		l.shapes[typeName] = sh
	}
	return sh
}

func (l *linker) lookup(name string) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.idx[name]
	return i, ok
}

func (l *linker) cachedUnit(key [sha256.Size]byte) (*unit, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	u, ok := l.units[key]
	return u, ok
}

func (l *linker) storeUnit(key [sha256.Size]byte, u *unit) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.units[key] = u
}

// importBind records one import declaration: at boot the registered
// module for path is stored into the bound global slot.
type importBind struct {
	gidx int
	path string
	name string
}

// initOp is one top-level declaration, executed at boot in source order:
// either a function binding or a var/const initializer.
type initOp struct {
	gidx int
	name string
	fn   *compiledClosure // function binding when non-nil
	init cexpr            // var initializer; nil means zero value (nil)
}

// unit is the compiled form of one source file.
type unit struct {
	name     string
	imports  []importBind
	ops      []initOp
	methods  map[string]map[string]*compiledFunc
	topNames []string
	// allFns is every compiledFunc the unit's compile produced, nested
	// function literals included — the provenance set snapshot/fork
	// consults when deciding whether a captured closure belongs to a
	// unit that was swapped out by WithFiles.
	allFns []*compiledFunc
	// incr is the incremental-recompile index: the unit's source bytes
	// plus the byte span and provenance range of every top-level
	// function, so WithFiles can recompile just the one declaration a
	// mutation touched. Nil (or ok=false) disables the fast path.
	incr *incrInfo
}

// Incremental recompilation: a fault-injection campaign derives hundreds
// of programs that each differ from the base in one contiguous byte
// window inside one function body. Reparsing and recompiling the whole
// file per experiment is the single largest shared cost of the execute
// phase, so WithFiles first tries a declaration-level fast path: diff
// the new source against the unit's recorded source, and when the
// changed window falls inside exactly one top-level function, reparse
// and recompile only that declaration, splicing the fresh artifact into
// a copy of the unit. Compiled functions are position-free and resolve
// globals through the shared interned symbol table, so the spliced unit
// is observably identical to a full recompile. Anything unusual — a
// window spanning declarations, a renamed function, a changed receiver
// type, a parse error — falls back to the full path.

const (
	siteFunc   = iota // top-level plain function
	siteMethod        // method declaration
)

// declSite records where one top-level function declaration sits in the
// unit's source and which artifacts it produced.
type declSite struct {
	start, end int    // byte offsets of the decl ("func" .. closing brace)
	kind       int    // siteFunc or siteMethod
	name       string // function or method name
	typeName   string // receiver type for methods
	opIdx      int    // index into unit.ops (siteFunc only)
	fnsLo      int    // provenance range [fnsLo,fnsHi) into allFns:
	fnsHi      int    // the decl's compiledFunc plus its nested literals
}

type incrInfo struct {
	src   []byte
	sites []declSite
	ok    bool // offsets validated against src
}

// Program is a compiled, immutable minigo program: safe for concurrent
// use, one compile serves unlimited rounds and experiments. Derived
// programs (WithFiles) share unchanged units and the symbol table.
type Program struct {
	ln      *linker
	units   []*unit
	methods map[string]map[string]*compiledFunc
	globals map[string]bool
}

// CompileProgram compiles an ordered file set (the workload's load
// order) into a Program. Compilation errors mirror the tree-walk's
// LoadSource errors; constructs the tree-walk reports lazily stay lazy.
func CompileProgram(files []SourceUnit) (*Program, error) {
	ln := newLinker()

	// Phase 1: parse everything and collect the statically known global
	// names (top-level declarations of every file, import-bound names and
	// builtins). Function bodies resolve names against this set.
	asts := make([]*ast.File, len(files))
	globals := make(map[string]bool)
	for b := range builtinFuncs {
		globals[b] = true
	}
	for i, su := range files {
		f := su.AST
		if f == nil {
			var err error
			f, err = parser.ParseFile(token.NewFileSet(), su.Name, su.Src, parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("interp: parse %s: %w", su.Name, err)
			}
		}
		asts[i] = f
		for _, n := range topLevelNames(f) {
			globals[n] = true
		}
	}

	// Phase 2: compile each unit against the shared table.
	p := &Program{ln: ln, globals: globals}
	for i, su := range files {
		c := &compiler{file: su.Name, syms: ln, globals: globals}
		u, err := compileUnit(c, su.Name, su.Src, asts[i])
		if err != nil {
			return nil, err
		}
		if len(su.Src) > 0 {
			ln.storeUnit(unitKey(su.Name, su.Src), u)
		}
		p.units = append(p.units, u)
	}
	p.methods = mergeMethods(p.units)
	return p, nil
}

// Files returns the unit names in load order.
func (p *Program) Files() []string {
	out := make([]string, len(p.units))
	for i, u := range p.units {
		out[i] = u.name
	}
	return out
}

// WithFiles derives a program with the named units recompiled from new
// sources — the per-experiment "recompile only the mutated file" path.
// Unchanged units and the symbol table are shared; recompiles are
// memoized by content hash, so identical mutations compile once per
// campaign. Overlay entries naming files outside the program are
// ignored (the tree-walk never loads them either).
func (p *Program) WithFiles(overlay map[string][]byte) (*Program, error) {
	byName := make(map[string]int, len(p.units))
	for i, u := range p.units {
		byName[u.name] = i
	}
	np := &Program{ln: p.ln, globals: p.globals, units: append([]*unit(nil), p.units...)}
	changed := false
	for name, src := range overlay {
		i, ok := byName[name]
		if !ok {
			continue
		}
		key := unitKey(name, src)
		u, ok := p.ln.cachedUnit(key)
		if ok {
			p.ln.hits.Add(1)
		} else if nu, ok := p.incrRecompile(p.units[i], src); ok {
			p.ln.misses.Add(1)
			p.ln.incremental.Add(1)
			u = nu
			p.ln.storeUnit(key, u)
		} else {
			p.ln.misses.Add(1)
			f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("interp: parse %s: %w", name, err)
			}
			globals := p.globals
			if extra := topLevelNames(f); hasNew(globals, extra) {
				globals = cloneWith(globals, extra)
			}
			c := &compiler{file: name, syms: p.ln, globals: globals}
			u, err = compileUnit(c, name, src, f)
			if err != nil {
				return nil, err
			}
			p.ln.storeUnit(key, u)
		}
		np.units[i] = u
		changed = true
	}
	if !changed {
		return p, nil
	}
	np.methods = mergeMethods(np.units)
	return np, nil
}

// CacheStats reports how many WithFiles unit derivations were served
// from the content-hash cache (hits) vs freshly compiled (misses),
// accumulated across the program and everything derived from it —
// base and derived programs share one linker, so a campaign reads its
// whole compile-cache history off its base program.
func (p *Program) CacheStats() (hits, misses uint64) {
	return p.ln.hits.Load(), p.ln.misses.Load()
}

// IncrementalRecompiles reports how many of the CacheStats misses were
// served by the declaration-level fast path (one decl reparsed and
// recompiled) instead of a whole-file recompile.
func (p *Program) IncrementalRecompiles() uint64 {
	return p.ln.incremental.Load()
}

// incrRecompile attempts the declaration-level WithFiles fast path:
// when src differs from base's recorded source in one contiguous
// window inside a single top-level function, recompile only that
// declaration and splice it into a copy of the unit. Returns false
// whenever the diff is not provably that shape — the caller then takes
// the full reparse+recompile path, which handles everything.
func (p *Program) incrRecompile(base *unit, src []byte) (*unit, bool) {
	inc := base.incr
	if inc == nil || !inc.ok {
		return nil, false
	}
	old := inc.src
	delta := len(src) - len(old)

	// Changed window: common prefix, then common suffix of the rest.
	n := min(len(old), len(src))
	a := 0
	for a < n && old[a] == src[a] {
		a++
	}
	if a == len(old) && delta == 0 {
		return nil, false // identical bytes; the unit cache already covers this
	}
	b := 0
	for b < n-a && old[len(old)-1-b] == src[len(src)-1-b] {
		b++
	}
	lo, hi := a, len(old)-b // changed window in old's coordinates

	// The window must fall inside exactly one recorded function decl.
	var site *declSite
	for i := range inc.sites {
		s := &inc.sites[i]
		if lo >= s.start && hi <= s.end {
			site = s
			break
		}
	}
	if site == nil {
		return nil, false
	}

	// Reparse just that declaration. A standalone parse needs a package
	// clause; compiled artifacts are position-free, so the shifted
	// offsets don't matter. Parse errors fall back to the full path,
	// which reports them with the file's real context.
	text := src[site.start : site.end+delta]
	pf, err := parser.ParseFile(token.NewFileSet(), base.name,
		append([]byte("package p\n"), text...), parser.SkipObjectResolution)
	if err != nil || len(pf.Decls) != 1 || len(pf.Imports) != 0 {
		return nil, false
	}
	fd, ok := pf.Decls[0].(*ast.FuncDecl)
	if !ok || fd.Name.Name != site.name || fd.Body == nil {
		return nil, false
	}

	// Compile the one declaration against the shared symbol table and
	// the program's global name set (unchanged: the name check above
	// rules out new top-level bindings).
	c := &compiler{file: base.name, syms: p.ln, globals: p.globals}
	var newFn *compiledFunc
	var newOp initOp
	switch site.kind {
	case siteMethod:
		if fd.Recv == nil || len(fd.Recv.List) == 0 {
			return nil, false
		}
		typeName, recvName := recvInfo(fd)
		if typeName != site.typeName {
			return nil, false
		}
		newFn = c.compileFunc(nil, typeName+"."+fd.Name.Name, fd.Type, fd.Body, recvName)
	default:
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			return nil, false
		}
		newFn = c.compileFunc(nil, fd.Name.Name, fd.Type, fd.Body, "")
		newOp = initOp{gidx: p.ln.intern(fd.Name.Name), name: fd.Name.Name,
			fn: &compiledClosure{fn: newFn}}
	}

	// Splice: copy the unit, swap the one artifact, rebuild provenance
	// and the incremental index (byte spans and provenance ranges after
	// the changed decl shift by the respective deltas).
	nu := &unit{name: base.name, imports: base.imports, topNames: base.topNames}
	nu.ops = append([]initOp(nil), base.ops...)
	nu.methods = base.methods
	if site.kind == siteMethod {
		nu.methods = make(map[string]map[string]*compiledFunc, len(base.methods))
		for tn, ms := range base.methods {
			nu.methods[tn] = ms
		}
		ms := make(map[string]*compiledFunc, len(base.methods[site.typeName]))
		for mn, fn := range base.methods[site.typeName] {
			ms[mn] = fn
		}
		ms[site.name] = newFn
		nu.methods[site.typeName] = ms
	} else {
		nu.ops[site.opIdx] = newOp
	}
	newFns := c.fns
	dn := len(newFns) - (site.fnsHi - site.fnsLo)
	nu.allFns = make([]*compiledFunc, 0, len(base.allFns)+dn)
	nu.allFns = append(nu.allFns, base.allFns[:site.fnsLo]...)
	nu.allFns = append(nu.allFns, newFns...)
	nu.allFns = append(nu.allFns, base.allFns[site.fnsHi:]...)

	sites := append([]declSite(nil), inc.sites...)
	for i := range sites {
		s := &sites[i]
		switch {
		case s.start >= site.end: // strictly after the changed decl
			s.start += delta
			s.end += delta
			s.fnsLo += dn
			s.fnsHi += dn
		case s.start == site.start: // the changed decl itself
			s.end += delta
			s.fnsHi = s.fnsLo + len(newFns)
		}
	}
	nu.incr = &incrInfo{src: src, sites: sites, ok: true}
	return nu, true
}

func unitKey(name string, src []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write(src)
	var key [sha256.Size]byte
	copy(key[:], h.Sum(nil))
	return key
}

func hasNew(set map[string]bool, names []string) bool {
	for _, n := range names {
		if !set[n] {
			return true
		}
	}
	return false
}

func cloneWith(set map[string]bool, names []string) map[string]bool {
	out := make(map[string]bool, len(set)+len(names))
	for k := range set {
		out[k] = true
	}
	for _, n := range names {
		out[n] = true
	}
	return out
}

func mergeMethods(units []*unit) map[string]map[string]*compiledFunc {
	out := make(map[string]map[string]*compiledFunc)
	for _, u := range units {
		for tn, ms := range u.methods {
			if out[tn] == nil {
				out[tn] = make(map[string]*compiledFunc, len(ms))
			}
			for mn, fn := range ms {
				out[tn][mn] = fn
			}
		}
	}
	return out
}

// topLevelNames lists the global names a file contributes: import-bound
// names, function names and var/const names.
func topLevelNames(f *ast.File) []string {
	var out []string
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(name, "/"); i >= 0 {
			name = name[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out = append(out, name)
	}
	for _, d := range f.Decls {
		switch decl := d.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil || len(decl.Recv.List) == 0 {
				out = append(out, decl.Name.Name)
			}
		case *ast.GenDecl:
			if decl.Tok == token.VAR || decl.Tok == token.CONST {
				for _, spec := range decl.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, n := range vs.Names {
							out = append(out, n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// compileUnit lowers one parsed file, mirroring LoadSource's declaration
// walk (imports, then declarations in source order). src, when
// non-empty, is the file's source bytes; it feeds the incremental
// recompile index (declaration byte spans validated against it).
func compileUnit(c *compiler, name string, src []byte, f *ast.File) (*unit, error) {
	u := &unit{name: name, topNames: topLevelNames(f)}
	defer func() { u.allFns = c.fns }()
	if len(src) > 0 {
		u.incr = &incrInfo{src: src, ok: true}
	}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		bound := path
		if i := strings.LastIndex(bound, "/"); i >= 0 {
			bound = bound[i+1:]
		}
		if imp.Name != nil {
			bound = imp.Name.Name
		}
		u.imports = append(u.imports, importBind{gidx: c.syms.intern(bound), path: path, name: bound})
	}
	for _, d := range f.Decls {
		switch decl := d.(type) {
		case *ast.FuncDecl:
			if decl.Body == nil {
				// Same load-time rejection as the tree-walk's LoadSource.
				return nil, fmt.Errorf("interp: %s: function %s has no body", name, decl.Name.Name)
			}
			site := declSite{opIdx: -1, fnsLo: len(c.fns)}
			if u.incr != nil {
				// Offsets are fset-independent: positions relative to the
				// file's own start. Validate against the bytes so an AST
				// parsed from a different source can never mislead the
				// incremental differ.
				site.start = int(decl.Pos() - f.FileStart)
				site.end = int(decl.End() - f.FileStart)
				if site.start < 0 || site.end <= site.start || site.end > len(src) ||
					!strings.HasPrefix(string(src[site.start:min(site.start+4, len(src))]), "func") {
					u.incr.ok = false
				}
			}
			if decl.Recv != nil && len(decl.Recv.List) > 0 {
				typeName, recvName := recvInfo(decl)
				if typeName == "" {
					return nil, fmt.Errorf("interp: %s: unsupported receiver on %s", name, decl.Name.Name)
				}
				fn := c.compileFunc(nil, typeName+"."+decl.Name.Name, decl.Type, decl.Body, recvName)
				if u.methods == nil {
					u.methods = make(map[string]map[string]*compiledFunc)
				}
				if u.methods[typeName] == nil {
					u.methods[typeName] = make(map[string]*compiledFunc)
				}
				u.methods[typeName][decl.Name.Name] = fn
				if u.incr != nil {
					site.kind, site.name, site.typeName = siteMethod, decl.Name.Name, typeName
					site.fnsHi = len(c.fns)
					u.incr.sites = append(u.incr.sites, site)
				}
				continue
			}
			fn := c.compileFunc(nil, decl.Name.Name, decl.Type, decl.Body, "")
			u.ops = append(u.ops, initOp{
				gidx: c.syms.intern(decl.Name.Name),
				name: decl.Name.Name,
				fn:   &compiledClosure{fn: fn},
			})
			if u.incr != nil {
				site.kind, site.name, site.opIdx = siteFunc, decl.Name.Name, len(u.ops)-1
				site.fnsHi = len(c.fns)
				u.incr.sites = append(u.incr.sites, site)
			}
		case *ast.GenDecl:
			if decl.Tok == token.VAR || decl.Tok == token.CONST {
				for _, spec := range decl.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, vn := range vs.Names {
						op := initOp{gidx: c.syms.intern(vn.Name), name: vn.Name}
						if i < len(vs.Values) {
							op.init = c.compileExpr(nil, vs.Values[i])
						}
						u.ops = append(u.ops, op)
					}
				}
			}
		}
	}
	return u, nil
}

// ---------------------------------------------------------------------------
// Run-time side: NewRun / Boot / compiled calls / pools

// NewRun creates an interpreter executing a compiled program: the
// compile-once / run-many counterpart of New+LoadSource. Register host
// modules and hooks as usual, then call Boot once before Call.
func NewRun(p *Program, cfg Config) *Interp {
	cfg = cfg.withDefaults()
	it := &Interp{
		stepNS:     cfg.StepNS,
		deadlineNS: cfg.DeadlineNS,
		maxSteps:   cfg.MaxSteps,
		stdout:     cfg.Stdout,
		hook:       cfg.Hook,
		prog:       p,
		envs:       baseEnvs, // already bound: the prototype carries the builtins
	}
	it.gslots = p.ln.newGlobals()
	return it
}

// Boot resolves imports against the registered modules and executes the
// top-level declarations (function bindings and var initializers) in
// load order — the compiled analog of LoadSource's load-time work. Call
// it after installing the environment and before the first Call.
func (it *Interp) Boot() error {
	if it.prog == nil {
		return fmt.Errorf("interp: Boot on a non-compiled interpreter")
	}
	for _, u := range it.prog.units {
		for _, imp := range u.imports {
			mod, ok := it.module(imp.path)
			if !ok {
				return fmt.Errorf("interp: %s imports unknown module %q", u.name, imp.path)
			}
			it.gslots[imp.gidx] = mod
		}
		for _, op := range u.ops {
			if op.fn != nil {
				it.gslots[op.gidx] = op.fn
				continue
			}
			var v Value
			if op.init != nil {
				var err error
				v, err = op.init(it, nil)
				if err != nil {
					return fmt.Errorf("interp: %s: init %s: %w", u.name, op.name, err)
				}
			}
			it.gslots[op.gidx] = v
		}
	}
	return nil
}

// defineGlobal binds a host-registered name on the compiled path: into
// its interned slot when compiled code references the name, else into
// the side table consulted by Global and Call.
func (it *Interp) defineGlobal(name string, v Value) {
	if idx, ok := it.prog.ln.lookup(name); ok && idx < len(it.gslots) {
		it.gslots[idx] = v
		return
	}
	if it.extras == nil {
		it.extras = make(map[string]Value)
	}
	it.extras[name] = v
}

func (it *Interp) lookupGlobal(name string) (Value, bool) {
	if idx, ok := it.prog.ln.lookup(name); ok && idx < len(it.gslots) {
		if v := it.gslots[idx]; v != unbound {
			return v, true
		}
		return nil, false
	}
	v, ok := it.extras[name]
	return v, ok
}

// callCompiled executes a compiled function with defer/recover semantics
// identical to callClosure, against a pooled slot frame; the caller has
// charged the call's step (see call and callMethod).
func (it *Interp) callCompiled(fn *compiledFunc, caps []*cell, recv Value, args []Value) (result Value, err error) {
	if len(it.frames) > 200 {
		return nil, it.throw("RecursionError", "maximum call depth exceeded in "+fn.name)
	}
	fr := getFrame(fn.name)
	it.frames = append(it.frames, fr)
	cf := getCframe(fn.nslots)
	cf.caps = caps

	for _, s := range fn.rootCells {
		cf.slots[s] = &cell{v: unbound}
	}
	if fn.recv != nil {
		bindSlot(cf, fn.recv, recv)
	}
	for i, p := range fn.params {
		var v Value
		if i < len(args) {
			v = args[i]
		}
		bindSlot(cf, p, v)
	}
	// Extra args beyond declared params are dropped (tree-walk parity).

	var cerr error
	if it.hook != nil {
		cerr = it.hook.EnterCall(it, fn.name)
	}
	if cerr == nil {
		var ctl control
		var ret Value
		ctl, ret, cerr = runCstmts(it, cf, fn.body)
		if ctl == ctlReturn {
			result = ret
		}
	}
	err = it.runDefers(fr, cerr)
	if err == nil && it.hook != nil {
		result, err = it.hook.LeaveCall(it, fn.name, result)
	}
	it.frames = it.frames[:len(it.frames)-1]
	putCframe(cf)
	putFrame(fr)
	return result, err
}

func bindSlot(cf *cframe, b *vbind, v Value) {
	if b.cell {
		cf.slots[b.slot].(*cell).v = v
	} else {
		cf.slots[b.slot] = v
	}
}

// Frame and slot-frame pools: the per-call allocations that survive
// compilation are recycled so the slot-frame hot path stays allocation
// free (see BenchmarkCompiledCallAllocs).
var framePool = sync.Pool{New: func() any { return &frame{} }}

func getFrame(name string) *frame {
	fr := framePool.Get().(*frame)
	fr.name = name
	return fr
}

func putFrame(fr *frame) {
	for i := range fr.defers {
		fr.defers[i] = deferredCall{}
	}
	fr.defers = fr.defers[:0]
	fr.panicking = nil
	fr.name = ""
	framePool.Put(fr)
}

var cframePool = sync.Pool{New: func() any { return &cframe{} }}

func getCframe(n int) *cframe {
	cf := cframePool.Get().(*cframe)
	if cap(cf.slots) < n {
		cf.slots = make([]Value, n)
	} else {
		cf.slots = cf.slots[:n]
	}
	for i := range cf.slots {
		cf.slots[i] = unbound
	}
	return cf
}

func putCframe(cf *cframe) {
	for i := range cf.slots {
		cf.slots[i] = nil
	}
	cf.slots = cf.slots[:0]
	cf.caps = nil
	cframePool.Put(cf)
}

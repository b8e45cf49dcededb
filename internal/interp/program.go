package interp

import (
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

// linker is the program-wide symbol table shared by a base program and
// every derived (mutated) program of a campaign. Interning happens at
// compile time under the lock; compiled code carries baked indices and
// never touches the linker at run time.
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
	// shapes holds the field-less root shape of every struct type the
	// program family names; literal shapes hang off them as transitions,
	// so all experiments of a campaign share one shape tree.
	shapes map[string]*Shape
	mids   map[string]int // selector name -> ID (methodID)
}

// compileCounts tallies the derivations of one program lineage: decl
// counts those that compiled one declaration, file those that recompiled
// a whole file, by the reason the declaration path did not apply
// (indexed by the file* constants).
type compileCounts struct {
	decl atomic.Uint64
	file [len(fileReasons)]atomic.Uint64
}

// Why a derivation recompiled a whole file instead of one declaration.
const (
	fileNoDecl  = iota // no declaration given: the caller holds only text
	fileRename         // the declaration names no single function of the unit
	fileNewName        // the file declares a top-level name the program did not have
)

var fileReasons = [...]string{"no_decl", "rename", "new_name"}

func newLinker() *linker {
	l := &linker{idx: make(map[string]int), shapes: make(map[string]*Shape), hostSlot: make(map[*HostEnv][]int), mids: make(map[string]int)}
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

// structShape returns the interned field-less shape of a struct type.
func (l *linker) structShape(typeName string) *Shape {
	l.mu.Lock()
	defer l.mu.Unlock()
	sh, ok := l.shapes[typeName]
	if !ok {
		sh = &Shape{typeName: typeName}
		l.shapes[typeName] = sh
	}
	return sh
}

// methodID returns the ID of a selector name, numbering it on first use.
func (l *linker) methodID(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.mids[name]; !ok {
		l.mids[name] = len(l.mids)
	}
	return l.mids[name]
}

func (l *linker) lookup(name string) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.idx[name]
	return i, ok
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
	methods  methodTable
	topNames []string
	// allFns is every compiledFunc the unit's compile produced, nested
	// function literals included — the provenance set snapshot/fork
	// consults when deciding whether a captured closure belongs to a
	// declaration a derivation swapped out.
	allFns []*compiledFunc
	// sites indexes the unit's top-level functions, in source order, so
	// a derivation can recompile just the one declaration a mutation
	// touched.
	sites []declSite
	// offs[i] is the byte offset of the statement with ID stmt0+i.
	stmt0 int
	offs  []int
}

// Derivation: a fault-injection campaign derives hundreds of programs
// that each differ from the base inside one function body. Compiled
// functions are position-free and resolve globals through the shared
// interned symbol table, so a derived program is the base with one
// freshly compiled declaration spliced into a copy of its unit —
// observably identical to recompiling the file. The campaign's mutator
// holds the mutated declaration as a tree and hands it over (WithDecl).
// Everything else — callers that hold only text (WithFiles), a renamed
// function, a changed receiver type — recompiles the whole file,
// counted by reason.

const (
	siteFunc   = iota // top-level plain function
	siteMethod        // method declaration
)

// declSite records one top-level function declaration of a unit: how it
// is named and which artifacts it produced.
type declSite struct {
	kind     int    // siteFunc or siteMethod
	name     string // function or method name
	typeName string // receiver type for methods
	opIdx    int    // index into unit.ops (siteFunc only)
	fnsLo    int    // provenance range [fnsLo,fnsHi) into allFns:
	fnsHi    int    // the decl's compiledFunc plus its nested literals
}

// siteOf returns the index of the one site fd redeclares, or -1 when
// the unit has no such function or more than one.
func (u *unit) siteOf(fd *ast.FuncDecl) int {
	kind, typeName := siteFunc, ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		kind = siteMethod
		typeName, _ = recvInfo(fd)
	}
	found := -1
	for i := range u.sites {
		s := &u.sites[i]
		if s.kind == kind && s.name == fd.Name.Name && s.typeName == typeName {
			if found >= 0 {
				return -1
			}
			found = i
		}
	}
	return found
}

// Program is a compiled, immutable minigo program: safe for concurrent
// use, one compile serves unlimited rounds and experiments. Derived
// programs (WithDecl, WithFiles) share unchanged units, unchanged method
// tables and the symbol table.
type Program struct {
	ln *linker
	// counts is shared with every program derived from this one.
	counts  *compileCounts
	units   []*unit
	methods methodTable
	globals map[string]bool
	// nstmt bounds the program's reach IDs: [0, nstmt).
	nstmt int
}

// CompileProgram compiles an ordered file set (the workload's load
// order) into a Program. Compilation errors mirror the tree-walk
// oracle's load errors; constructs the tree-walk reports lazily stay
// lazy.
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
	p := &Program{ln: ln, counts: new(compileCounts), globals: globals}
	for i, su := range files {
		c := &compiler{file: su.Name, syms: ln, globals: globals, nextStmt: p.nstmt}
		u, err := compileUnit(c, su.Name, asts[i])
		if err != nil {
			return nil, err
		}
		p.units = append(p.units, u)
		p.nstmt = c.nextStmt
	}
	p.methods = mergeMethods(p.units)
	return p, nil
}

func (p *Program) unitIndex(name string) int {
	for i, u := range p.units {
		if u.name == name {
			return i
		}
	}
	return -1
}

// WithDecl derives a program in which fd replaces the same-named
// top-level function (or method of the same receiver type) of the named
// unit: one compileFunc, nothing parsed. fd is read, never written, and
// may share subtrees with the tree the unit was compiled from. src is
// the file's text with the same change applied; it is compiled instead,
// whole, when fd is nil or names no single function of the unit. A file
// outside the program is ignored, as WithFiles does.
func (p *Program) WithDecl(file string, fd *ast.FuncDecl, src []byte) (*Program, error) {
	ui := p.unitIndex(file)
	if ui < 0 {
		return p, nil
	}
	if fd == nil {
		return p.withFile(ui, src, fileNoDecl)
	}
	if fd.Body == nil {
		return nil, fmt.Errorf("interp: %s: function %s has no body", file, fd.Name.Name)
	}
	si := p.units[ui].siteOf(fd)
	if si < 0 {
		return p.withFile(ui, src, fileRename)
	}
	return p.withSite(ui, si, fd), nil
}

// WithFiles derives a program with each named unit recompiled whole from
// its new source — the derivation for callers that hold only text.
// Overlay entries naming files outside the program are ignored (the
// tree-walk never loads them either).
func (p *Program) WithFiles(overlay map[string][]byte) (*Program, error) {
	np := p
	for name, src := range overlay {
		ui := p.unitIndex(name)
		if ui < 0 {
			continue
		}
		var err error
		if np, err = np.withFile(ui, src, fileNoDecl); err != nil {
			return nil, err
		}
	}
	return np, nil
}

// withFile derives a program with unit ui recompiled whole from src.
func (p *Program) withFile(ui int, src []byte, reason int) (*Program, error) {
	name := p.units[ui].name
	f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.SkipObjectResolution)
	if err != nil {
		p.counts.file[reason].Add(1)
		return nil, fmt.Errorf("interp: parse %s: %w", name, err)
	}
	globals := p.globals
	if extra := topLevelNames(f); hasNew(globals, extra) {
		globals = cloneWith(globals, extra)
		reason = fileNewName
	}
	p.counts.file[reason].Add(1)
	c := &compiler{file: name, syms: p.ln, globals: globals, nextStmt: p.nstmt}
	u, err := compileUnit(c, name, f)
	if err != nil {
		return nil, err
	}
	np := &Program{ln: p.ln, counts: p.counts, globals: p.globals, units: append([]*unit(nil), p.units...), nstmt: c.nextStmt}
	np.units[ui] = u
	np.methods = mergeMethods(np.units)
	return np, nil
}

// Counted returns p with derivation counters of its own, starting at
// zero: campaigns that share one compiled base program each derive from
// their own Counted view, so MutantCompiles reads one campaign's mutants.
func (p *Program) Counted() *Program {
	np := *p
	np.counts = new(compileCounts)
	return &np
}

// CacheStats reports how many unit derivations this program and
// everything derived from it performed (base and derived programs share
// one set of counters, so a campaign reads its whole history off its
// base program). There is no unit cache any more — hits is always 0 and
// misses is the derivation count; the two-value shape stays only because
// the repository benchmark (bench/) calls it.
func (p *Program) CacheStats() (hits, misses uint64) {
	misses = p.counts.decl.Load()
	for i := range p.counts.file {
		misses += p.counts.file[i].Load()
	}
	return 0, misses
}

// Stmts bounds the statement IDs a ReachHook sees on p.
func (p *Program) Stmts() int { return p.nstmt }

// StmtAt returns the ID of the statement that starts at byte offset off
// of file; a declaration WithDecl compiled has none.
func (p *Program) StmtAt(file string, off int) (int, bool) {
	ui := p.unitIndex(file)
	if ui < 0 {
		return 0, false
	}
	u := p.units[ui]
	for i, o := range u.offs {
		if o == off {
			return u.stmt0 + i, true
		}
	}
	return 0, false
}

// MutantCompiles splits the derivation count by what was compiled: one
// declaration (decl), or the whole file, keyed by why the declaration
// path did not apply ("no_decl", "rename", "new_name"; reasons that never
// occurred are absent).
func (p *Program) MutantCompiles() (decl uint64, file map[string]uint64) {
	file = make(map[string]uint64)
	for i := range p.counts.file {
		if n := p.counts.file[i].Load(); n > 0 {
			file[fileReasons[i]] = n
		}
	}
	return p.counts.decl.Load(), file
}

// withSite derives a program in which fd, freshly compiled, replaces
// site si of unit ui.
func (p *Program) withSite(ui, si int, fd *ast.FuncDecl) *Program {
	p.counts.decl.Add(1)
	base := p.units[ui]
	site := &base.sites[si]

	// Compile the one declaration against the shared symbol table and
	// the program's global name set (unchanged: the site lookup rules
	// out new top-level bindings).
	c := &compiler{file: base.name, syms: p.ln, globals: p.globals, nextStmt: p.nstmt}
	nu := &unit{name: base.name, imports: base.imports, topNames: base.topNames,
		ops: base.ops, methods: base.methods, stmt0: base.stmt0, offs: base.offs}
	np := &Program{ln: p.ln, counts: p.counts, globals: p.globals, methods: p.methods, units: append([]*unit(nil), p.units...)}
	np.units[ui] = nu
	if site.kind == siteMethod {
		_, recvName := recvInfo(fd)
		fn := c.compileFunc(nil, site.typeName+"."+site.name, fd.Type, fd.Body, recvName)
		mid := p.ln.methodID(site.name)
		old := base.methods.lookup(site.typeName, mid)
		nu.methods = base.methods.with(site.typeName, mid, fn)
		// The program-wide table changes only where this unit's method
		// was the one it held (a later unit may redeclare it).
		if p.methods.lookup(site.typeName, mid) == old {
			np.methods = p.methods.with(site.typeName, mid, fn)
		}
	} else {
		fn := c.compileFunc(nil, site.name, fd.Type, fd.Body, "")
		nu.ops = append([]initOp(nil), base.ops...)
		nu.ops[site.opIdx] = initOp{gidx: base.ops[site.opIdx].gidx, name: site.name, fn: &compiledClosure{fn: fn}}
	}

	// Provenance and site index: ranges after the changed decl shift by
	// the change in its function count.
	dn := len(c.fns) - (site.fnsHi - site.fnsLo)
	nu.allFns = make([]*compiledFunc, 0, len(base.allFns)+dn)
	nu.allFns = append(nu.allFns, base.allFns[:site.fnsLo]...)
	nu.allFns = append(nu.allFns, c.fns...)
	nu.allFns = append(nu.allFns, base.allFns[site.fnsHi:]...)
	np.nstmt = c.nextStmt
	nu.sites = base.sites
	if dn != 0 {
		nu.sites = append([]declSite(nil), base.sites...)
		nu.sites[si].fnsHi += dn
		for i := si + 1; i < len(nu.sites); i++ {
			nu.sites[i].fnsLo += dn
			nu.sites[i].fnsHi += dn
		}
	}
	return np
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

// methodTable resolves a method call without hashing: row mid holds the
// methods selector ID mid names, one per receiver type. Each program has
// its own, so programs derived from one base never see each other's.
type methodTable [][]methodEntry

type methodEntry struct {
	typeName string
	fn       *compiledFunc
}

func (t methodTable) lookup(typeName string, mid int) *compiledFunc {
	if mid < len(t) {
		for _, e := range t[mid] {
			if e.typeName == typeName {
				return e.fn
			}
		}
	}
	return nil
}

// with returns t with typeName's method mid set to fn, sharing the rest.
func (t methodTable) with(typeName string, mid int, fn *compiledFunc) methodTable {
	out := append(methodTable(nil), t...)
	for len(out) <= mid {
		out = append(out, nil)
	}
	row := []methodEntry{{typeName, fn}}
	for _, e := range out[mid] {
		if e.typeName != typeName {
			row = append(row, e)
		}
	}
	out[mid] = row
	return out
}

// mergeMethods builds a program's table; later units override.
func mergeMethods(units []*unit) methodTable {
	var t methodTable
	for _, u := range units {
		for mid, row := range u.methods {
			for _, e := range row {
				t = t.with(e.typeName, mid, e.fn)
			}
		}
	}
	return t
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

// compileUnit lowers one parsed file, mirroring the tree-walk oracle's
// declaration walk (imports, then declarations in source order).
func compileUnit(c *compiler, name string, f *ast.File) (*unit, error) {
	u := &unit{name: name, topNames: topLevelNames(f), stmt0: c.nextStmt}
	c.base = f.FileStart
	defer func() { u.allFns, u.offs = c.fns, c.offs }()
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
				// Rejected at load time, as the tree-walk oracle does.
				return nil, fmt.Errorf("interp: %s: function %s has no body", name, decl.Name.Name)
			}
			site := declSite{name: decl.Name.Name, opIdx: -1, fnsLo: len(c.fns)}
			if decl.Recv != nil && len(decl.Recv.List) > 0 {
				typeName, recvName := recvInfo(decl)
				if typeName == "" {
					return nil, fmt.Errorf("interp: %s: unsupported receiver on %s", name, decl.Name.Name)
				}
				fn := c.compileFunc(nil, typeName+"."+decl.Name.Name, decl.Type, decl.Body, recvName)
				u.methods = u.methods.with(typeName, c.syms.methodID(decl.Name.Name), fn)
				site.kind, site.typeName = siteMethod, typeName
			} else {
				fn := c.compileFunc(nil, decl.Name.Name, decl.Type, decl.Body, "")
				u.ops = append(u.ops, initOp{
					gidx: c.syms.intern(decl.Name.Name),
					name: decl.Name.Name,
					fn:   &compiledClosure{fn: fn},
				})
				site.kind, site.opIdx = siteFunc, len(u.ops)-1
			}
			site.fnsHi = len(c.fns)
			u.sites = append(u.sites, site)
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

// NewRun creates an interpreter executing a compiled program. Install
// the host environment and hooks, then call Boot once before Call.
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
	it.reach, _ = cfg.Hook.(ReachHook)
	it.gslots = p.ln.newGlobals()
	return it
}

// Boot resolves imports against the installed modules and executes the
// top-level declarations (function bindings and var initializers) in
// load order. Call it after installing the environment and before the
// first Call.
func (it *Interp) Boot() error {
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

// callCompiled executes a compiled function with defer/recover semantics
// against a recycled slot frame; the caller has charged the call's step
// (see call and invoke). checkpoint is nil except on CallPrefix's entry
// call, whose top-level body statements it pauses before (see
// runCheckpointed).
func (it *Interp) callCompiled(fn *compiledFunc, caps []*cell, recv Value, args []Value, checkpoint func(int) bool) (result Value, err error) {
	if len(it.frames) > 200 {
		return nil, it.throw("RecursionError", "maximum call depth exceeded in "+fn.name)
	}
	fr := it.getFrame(fn.name)
	it.frames = append(it.frames, fr)
	cf := it.getCframe(fn.nslots)
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

	var ctl control
	if it.hook != nil {
		err = it.hook.EnterCall(it, fn.name)
	}
	if err == nil && checkpoint == nil {
		ctl, result, err = runCstmts(it, cf, fn.body)
	} else if err == nil {
		ctl, result, err = it.runCheckpointed(fn, fr, cf, checkpoint)
	}
	return it.endCall(fn.name, fr, cf, ctl, result, err)
}

// endCall is the epilogue of every compiled call, Fork's resumed entry
// included, once its body ended with ctl: it runs the pending defers,
// then the LeaveCall hook, and pops and recycles the call's frames.
func (it *Interp) endCall(name string, fr *frame, cf *cframe, ctl control, result Value, err error) (Value, error) {
	if ctl != ctlReturn {
		result = nil
	}
	err = it.runDefers(fr, err)
	if err == nil && it.hook != nil {
		result, err = it.hook.LeaveCall(it, name, result)
	}
	it.frames = it.frames[:len(it.frames)-1]
	it.putCframe(cf)
	it.putFrame(fr)
	return result, err
}

func bindSlot(cf *cframe, b *vbind, v Value) {
	if b.cell {
		cf.slots[b.slot].(*cell).v = v
	} else {
		cf.slots[b.slot] = v
	}
}

// Frame free lists: the per-call allocations that survive compilation
// are recycled per interpreter, so the slot-frame hot path allocates
// only until the deepest call chain has been reached once (see
// TestCompiledHotPathAllocs) and pays no synchronization to do it.

func (it *Interp) getFrame(name string) *frame {
	if n := len(it.freeFrames); n > 0 {
		fr := it.freeFrames[n-1]
		it.freeFrames = it.freeFrames[:n-1]
		fr.name = name
		return fr
	}
	return &frame{name: name}
}

func (it *Interp) putFrame(fr *frame) {
	for i := range fr.defers {
		fr.defers[i] = deferredCall{}
	}
	fr.defers = fr.defers[:0]
	clear(fr.deferArgs)
	fr.deferArgs = fr.deferArgs[:0]
	fr.panicking = nil
	fr.name = ""
	it.freeFrames = append(it.freeFrames, fr)
}

func (it *Interp) getCframe(n int) *cframe {
	var cf *cframe
	if k := len(it.freeCframes); k > 0 {
		cf = it.freeCframes[k-1]
		it.freeCframes = it.freeCframes[:k-1]
	} else {
		cf = &cframe{}
	}
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

func (it *Interp) putCframe(cf *cframe) {
	for i := range cf.slots {
		cf.slots[i] = nil
	}
	cf.slots = cf.slots[:0]
	cf.caps = nil
	it.freeCframes = append(it.freeCframes, cf)
}

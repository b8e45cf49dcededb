package profipy

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testOnlyAllowed names the program functions that only tests call and
// that stay in program files on purpose, each with the reason it is not
// in an export_test.go — which reaches only its own package's tests.
// Keys are "dir.Func" or "dir.Type.Method", dir relative to the module
// root.
var testOnlyAllowed = map[string]string{
	"internal/interp.Interp.Call":                   "by-name entry other packages' tests run compiled programs through; the workload enters through CallPrefix",
	"internal/kvclient.EnableTracing":               "the Campaign.TraceHook the custom-faults Example and campaign tests pass",
	"internal/resultstore.Store.SetSegmentRecords":  "test seam: small segments so saas and resultstore tests cross segment boundaries",
	"internal/resultstore.Store.SetRetainCampaigns": "test seam: a small retention bound saas and resultstore tests can fill",
	"internal/saas.NewServer":                       "memory-only server the tests of six packages and the saas-server Example start; profipyd passes Options",
	"internal/saas.DemoCampaignRequest":             "the §V demo campaign requests saas, profipyd and Example tests submit",
	"internal/sandbox.Runtime.Create":               "counter-seeded container the sandbox, workload and kvclient tests create; campaigns seed theirs",
	"internal/sandbox.Container.State":              "lifecycle probe the sandbox and workload tests assert on",
	"internal/sandbox.RunBatch":                     "N−1 parallel batch the root benchmarks run experiments with",
	"internal/scanner.ScanSource":                   "one-file scan the tests of seven packages build injection points with",
	"internal/trace.Recorder.Merge":                 "per-worker trace lanes, pending ROADMAP item 2(b)",
}

// TestProgramFunctionsHaveProgramCallers keeps test-only code out of the
// program: every function and method declared in a program file under
// internal/ or cmd/ must be used by some program file — the separately
// built bench/ module counts — or satisfy an interface, the standard
// library's included. A helper only tests call belongs in a _test.go file
// (export_test.go when another package's tests need it) or in
// testOnlyAllowed with its reason. The module root package is the
// library's API: its callers live outside the module, and the Examples
// show them.
//
// The module's packages are type-checked from source once, in import
// order; the standard library comes from the toolchain's export data.
func TestProgramFunctionsHaveProgramCallers(t *testing.T) {
	start := time.Now()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> files
	add := func(_ *token.FileSet, f *ast.File, _ string) {
		dir := filepath.ToSlash(filepath.Dir(fset.File(f.Pos()).Name()))
		files[modulePath(dir)] = append(files[modulePath(dir)], f)
	}
	walkProgramFiles(t, fset, ".", "", "", add)
	walkProgramFiles(t, fset, "bench", "", "", add)

	pkgs := map[string]*types.Package{}
	infos := map[string]*types.Info{}
	std := importer.Default()
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		if pkg, ok := pkgs[p]; ok {
			return pkg, nil
		}
		return std.Import(p)
	})}
	var check func(p string) // imports first; Go has no import cycles
	check = func(p string) {
		if pkgs[p] != nil {
			return
		}
		for _, f := range files[p] {
			for _, imp := range f.Imports {
				if ip, _ := strconv.Unquote(imp.Path.Value); files[ip] != nil {
					check(ip)
				}
			}
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := conf.Check(p, fset, files[p], info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
		pkgs[p], infos[p] = pkg, info
	}
	for p := range files {
		check(p)
	}

	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	for _, info := range infos {
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, interfacesOf(pkgs)...)

	var unused []string
	allowed := map[string]bool{}
	for p, info := range infos {
		if !strings.HasPrefix(p, "profipy/internal/") && !strings.HasPrefix(p, "profipy/cmd/") {
			continue // the library API and the benchmark are users, not subjects
		}
		for id, obj := range info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || used[fn] || id.Name == "main" || id.Name == "init" || id.Name == "_" {
				continue
			}
			sig := fn.Type().(*types.Signature)
			name := strings.TrimPrefix(p, "profipy/") + "." + fn.Name()
			if recv := sig.Recv(); recv != nil {
				if types.IsInterface(recv.Type()) || satisfiesInterface(fn, ifaces) {
					continue
				}
				name = strings.TrimSuffix(name, fn.Name()) + recvName(recv.Type()) + "." + fn.Name()
			}
			if _, ok := testOnlyAllowed[name]; ok {
				allowed[name] = true
				continue
			}
			unused = append(unused, fset.Position(id.Pos()).String()+": "+name+
				" has no program caller: move it to a _test.go file, delete it, or allowlist it with its reason")
		}
	}
	for name := range testOnlyAllowed {
		if !allowed[name] {
			unused = append(unused, "testOnlyAllowed: "+name+" is not a test-only function (any more)")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Error(u)
	}
	t.Logf("type-checked %d packages in %v", len(pkgs), time.Since(start).Round(time.Millisecond))
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// modulePath maps a directory relative to the module root to its import
// path.
func modulePath(dir string) string {
	if dir == "." {
		return "profipy"
	}
	return path.Join("profipy", dir)
}

// interfacesOf returns every named method-set interface declared in pkgs
// or in a package they import, transitively, plus error.
func interfacesOf(pkgs map[string]*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	return out
}

// satisfiesInterface reports whether method fn's receiver type, or a
// pointer to it, implements an interface that has a method of fn's name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if named, ok := recv.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
	}
	return false
}

// recvName is a method receiver's type name without pointer or type
// arguments.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

package interp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
)

// TreeWalk is the tree-walk reference interpreter (treewalk_test.go), the
// oracle the compiled engine is tested against: New builds one,
// LoadSource parses target files into it and Call evaluates their AST
// directly. The embedded Interp is what host functions, hooks and
// environment set-up see; it runs an empty compiled program, so Install
// binds into its slots as on any interpreter.
type TreeWalk struct {
	*Interp
	fset    *token.FileSet
	globals *Scope
	methods map[string]map[string]*ast.FuncDecl
	// nenvs counts the installed environments whose globals are defined
	// in globals (see bindEnvs).
	nenvs int
}

// New creates a tree-walk interpreter.
func New(cfg Config) *TreeWalk {
	empty, err := CompileProgram(nil)
	if err != nil {
		panic(err)
	}
	tw := &TreeWalk{
		Interp:  NewRun(empty, cfg),
		fset:    token.NewFileSet(),
		globals: NewScope(nil),
		methods: make(map[string]map[string]*ast.FuncDecl),
	}
	tw.bindEnvs()
	return tw
}

// bindEnvs defines the globals of the environments installed since its
// last call, in install order (the builtins first), as an Install bound
// them into the global scope: Install reaches the tree-walk through its
// Interp, so LoadSource, Call and Global catch up before reading globals.
func (tw *TreeWalk) bindEnvs() {
	for _, e := range tw.envs.envs[tw.nenvs:] {
		for i, name := range e.names {
			tw.globals.Define(name, e.vals[i])
		}
	}
	tw.nenvs = len(tw.envs.envs)
}

// LoadSource parses and loads one target source file: top-level functions,
// methods, constants and vars become available for execution. Imports are
// resolved against the installed host environments' modules.
func (tw *TreeWalk) LoadSource(filename string, src []byte) error {
	tw.bindEnvs()
	f, err := parser.ParseFile(tw.fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return fmt.Errorf("interp: parse %s: %w", filename, err)
	}
	// Resolve imports first so top-level vars can use modules.
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		mod, ok := tw.module(path)
		if !ok {
			return fmt.Errorf("interp: %s imports unknown module %q", filename, path)
		}
		name := mod.Name
		if i := strings.LastIndex(name, "/"); i >= 0 {
			name = name[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		tw.globals.Define(name, mod)
	}
	// Declarations.
	for _, d := range f.Decls {
		switch decl := d.(type) {
		case *ast.FuncDecl:
			if decl.Body == nil {
				// A declaration without a body is legal Go syntax (an
				// external function) but meaningless in minigo; calling
				// one can only crash, so reject it at load time. The
				// compiled path raises the identical error.
				return fmt.Errorf("interp: %s: function %s has no body", filename, decl.Name.Name)
			}
			if decl.Recv != nil && len(decl.Recv.List) > 0 {
				typeName, _ := recvInfo(decl)
				if typeName == "" {
					return fmt.Errorf("interp: %s: unsupported receiver on %s", filename, decl.Name.Name)
				}
				if tw.methods[typeName] == nil {
					tw.methods[typeName] = make(map[string]*ast.FuncDecl)
				}
				tw.methods[typeName][decl.Name.Name] = decl
				continue
			}
			tw.globals.Define(decl.Name.Name, &Closure{
				tw:     tw,
				Name:   decl.Name.Name,
				Params: paramNames(decl.Type),
				Body:   decl.Body,
				Env:    tw.globals,
			})
		case *ast.GenDecl:
			if decl.Tok == token.VAR || decl.Tok == token.CONST {
				for _, spec := range decl.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						var v Value
						if i < len(vs.Values) {
							var err error
							v, err = tw.evalExpr(vs.Values[i], tw.globals)
							if err != nil {
								return fmt.Errorf("interp: %s: init %s: %w", filename, name.Name, err)
							}
						}
						tw.globals.Define(name.Name, v)
					}
				}
			}
			// Type declarations carry no runtime information in minigo;
			// struct literals create dynamic Objects by name.
		}
	}
	return nil
}

// Global returns the value bound to a global name.
func (tw *TreeWalk) Global(name string) (Value, bool) {
	tw.bindEnvs()
	return tw.globals.Lookup(name)
}

// Call invokes a loaded function by name with the given arguments.
func (tw *TreeWalk) Call(name string, args ...Value) (Value, error) {
	fn, ok := tw.Global(name)
	if !ok {
		return nil, fmt.Errorf("interp: undefined function %q", name)
	}
	return tw.call(fn, args)
}

// SetCallHook installs (or clears, with nil) the call hook. Install it
// before the first Call; swapping hooks mid-execution is not supported.
func (it *Interp) SetCallHook(h CallHook) { it.hook = h; it.reach, _ = h.(ReachHook) }

// Stmt returns the entry-body statement index the snapshot resumes at.
func (s *Snapshot) Stmt() int { return s.stmt }

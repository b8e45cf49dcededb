package interp

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"strings"
	"sync/atomic"
)

// Sentinel errors for abnormal terminations of interpreted code.
var (
	// ErrTimeout is returned when the virtual deadline is exceeded
	// (the analog of a hung experiment killed by the workload timeout).
	ErrTimeout = errors.New("interp: virtual deadline exceeded")
	// ErrSteps is returned when the hard step budget is exhausted
	// (a backstop against real non-termination of interpreted code).
	ErrSteps = errors.New("interp: step budget exhausted")
	// ErrInterrupted is returned when Interrupt was called from another
	// goroutine — the workload watchdog killing a wall-clock-hung
	// experiment so it cannot stall its whole shard.
	ErrInterrupted = errors.New("interp: interrupted")
)

// PanicError is an uncaught exception escaping interpreted code — the
// analog of an unhandled Python exception crashing the client process.
type PanicError struct {
	Val   Value
	Stack []string
}

func (e *PanicError) Error() string {
	return "uncaught exception: " + Repr(e.Val) + " (in " + strings.Join(e.Stack, " < ") + ")"
}

// Exception returns the panic value as an *Exc when it is one.
func (e *PanicError) Exception() (*Exc, bool) {
	x, ok := e.Val.(*Exc)
	return x, ok
}

// Config parameterises an interpreter instance.
type Config struct {
	// StepNS is the virtual nanoseconds charged per interpreter step.
	StepNS int64
	// DeadlineNS aborts execution with ErrTimeout once the virtual clock
	// passes it; 0 means no deadline.
	DeadlineNS int64
	// MaxSteps is the hard step budget; 0 selects a large default.
	MaxSteps int64
	// Stdout receives print/println output; nil discards it.
	Stdout io.Writer
	// Hook observes (and may perturb) every interpreted function call;
	// nil disables the mechanism. See CallHook.
	Hook CallHook
}

// CallHook interposes on interpreted function calls — the runtime fault
// injection surface. Both execution paths (tree-walk and compiled)
// invoke the hook at exactly the same points with exactly the same
// function names, so a deterministic hook observes an identical call
// sequence on either path:
//
//   - EnterCall runs after the callee's frame is pushed and parameters
//     are bound, before the first body statement. A non-nil error aborts
//     the call as if its body had failed (a *PanicError is recoverable
//     by outer defers, like any interpreted panic).
//   - LeaveCall runs after the body and its defers complete without an
//     error; the returned value replaces the call's result.
//
// Function names are the interpreter's display names: top-level
// functions by declaration name, methods as "Type.Method", function
// literals as "<func>". Host functions and builtins are not hooked.
type CallHook interface {
	EnterCall(it *Interp, fn string) error
	LeaveCall(it *Interp, fn string, result Value) (Value, error)
}

// Interp executes a loaded minigo program.
type Interp struct {
	fset    *token.FileSet
	globals *Scope
	methods map[string]map[string]*ast.FuncDecl
	modules map[string]*Module

	clockNS    int64
	stepNS     int64
	deadlineNS int64
	steps      int64
	maxSteps   int64
	// interrupted is the only cross-goroutine channel into the
	// interpreter: a watchdog sets it, the step loop polls it.
	interrupted atomic.Bool

	stdout io.Writer
	hook   CallHook
	frames []*frame

	// Compiled-execution state (NewRun): the program, the flat global
	// slot array indexed by the program's symbol table, and the side
	// table for host-registered names compiled code never references.
	prog   *Program
	gslots []Value
	extras map[string]Value
	// argStack holds the evaluated arguments of the compiled calls in
	// progress, innermost last (see compileCall).
	argStack []Value
	// freeFrames and freeCframes hold the frames of returned compiled
	// calls for the next call to reuse (see getFrame, getCframe).
	freeFrames  []*frame
	freeCframes []*cframe

	// Host environment: the shared environments installed on this
	// interpreter (Install) and the per-run state their functions read
	// (SetHostData), plus the tree-walk path's root-shape intern table.
	envs     []*HostEnv
	hostData []hostDatum
	shapes   map[string]*Shape

	// hostVals records every individually registered host value by a
	// stable registration key ("g:name" for globals, "m:name" for
	// modules). Snapshot/fork uses the keys — of these and of the
	// installed environments — to translate host references between the
	// capturing interpreter and a forked one, whose environment
	// registers equivalent values under the same keys.
	hostVals map[string]Value

	// Checkpoint context, non-nil only while a CallPrefix checkpoint
	// callback runs: the paused entry frame Snapshot captures.
	cpFrame *cframe
	cpEntry *compiledClosure
	cpMeta  *frame
	cpStmt  int
}

type frame struct {
	name      string
	defers    []deferredCall
	panicking *PanicError
}

type deferredCall struct {
	fn   Value
	args []Value
}

// withDefaults normalizes a Config; New and NewRun must share it so the
// tree-walk and compiled paths always run under the same budgets.
func (cfg Config) withDefaults() Config {
	if cfg.StepNS <= 0 {
		cfg.StepNS = 1000 // 1µs of virtual time per step
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 50_000_000
	}
	if cfg.Stdout == nil {
		cfg.Stdout = io.Discard
	}
	return cfg
}

// New creates a tree-walk interpreter: LoadSource parses target files
// and Call evaluates their AST directly. It is the reference the
// compiled path (CompileProgram + NewRun) is tested against; nothing
// outside tests runs experiments on it.
func New(cfg Config) *Interp {
	cfg = cfg.withDefaults()
	it := &Interp{
		fset:       token.NewFileSet(),
		globals:    NewScope(nil),
		methods:    make(map[string]map[string]*ast.FuncDecl),
		stepNS:     cfg.StepNS,
		deadlineNS: cfg.DeadlineNS,
		maxSteps:   cfg.MaxSteps,
		stdout:     cfg.Stdout,
		hook:       cfg.Hook,
		envs:       baseEnvs,
	}
	it.bind(builtinEnv)
	return it
}

// SetCallHook installs (or clears, with nil) the call hook. Install it
// before the first Call; swapping hooks mid-execution is not supported.
func (it *Interp) SetCallHook(h CallHook) { it.hook = h }

// Throw raises an interpreted exception from host code (hook or host
// function): the error is a *PanicError carrying an *Exc, recoverable by
// deferred recover() like any interpreted panic.
func (it *Interp) Throw(excType, msg string) error {
	return it.throw(excType, msg)
}

// RegisterModule makes a host module importable by target sources.
func (it *Interp) RegisterModule(m *Module) {
	if it.modules == nil {
		it.modules = make(map[string]*Module)
	}
	it.modules[m.Name] = m
	it.noteHost("m:"+m.Name, m)
}

// rootShape returns the tree-walk path's interned field-less shape of a
// struct type (compiled programs intern theirs in the linker).
func (it *Interp) rootShape(typeName string) *Shape {
	sh, ok := it.shapes[typeName]
	if !ok {
		if it.shapes == nil {
			it.shapes = make(map[string]*Shape)
		}
		sh = &Shape{typeName: typeName}
		it.shapes[typeName] = sh
	}
	return sh
}

// RegisterGlobal binds a name in the global scope (used for fault hooks
// such as __fault_enabled and __corrupt).
func (it *Interp) RegisterGlobal(name string, v Value) {
	it.noteHost("g:"+name, v)
	if it.prog != nil {
		it.defineGlobal(name, v)
		return
	}
	it.globals.Define(name, v)
}

// noteHost records a host registration for snapshot/fork translation.
func (it *Interp) noteHost(key string, v Value) {
	if it.hostVals == nil {
		it.hostVals = make(map[string]Value)
	}
	it.hostVals[key] = v
}

// RegisterHostFunc binds a global host function.
func (it *Interp) RegisterHostFunc(name string, fn func(it *Interp, args []Value) (Value, error)) {
	it.RegisterGlobal(name, &HostFunc{Name: name, Fn: fn})
}

// Clock returns the current virtual time in nanoseconds.
func (it *Interp) Clock() int64 { return it.clockNS }

// Steps returns the number of interpreter steps executed so far.
func (it *Interp) Steps() int64 { return it.steps }

// AdvanceClock adds virtual time; host functions emulating slow
// operations (sleeps, CPU hogs, network latency) call this. The clock
// is monotone: negative deltas (a corrupt `delay` action, for example)
// are dropped rather than rewinding the clock past DeadlineNS checks,
// and additions saturate instead of overflowing to a negative clock.
func (it *Interp) AdvanceClock(ns int64) {
	if ns <= 0 {
		return
	}
	if it.clockNS > math.MaxInt64-ns {
		it.clockNS = math.MaxInt64
		return
	}
	it.clockNS += ns
}

// Interrupt asks the interpreter to abort execution with ErrInterrupted
// at the next interrupt poll. It is the only method safe to call from
// another goroutine while the interpreter runs; the workload watchdog
// uses it to kill experiments that exhaust their wall-clock budget.
func (it *Interp) Interrupt() { it.interrupted.Store(true) }

// interruptPollMask throttles the atomic interrupt check to one load
// every 1024 steps, keeping the hot step loop branch-cheap while still
// bounding watchdog reaction time to microseconds of real work.
const interruptPollMask = 1<<10 - 1

// step charges one interpreter step and enforces deadline and budget.
func (it *Interp) step() error {
	it.steps++
	it.clockNS += it.stepNS
	if it.deadlineNS > 0 && it.clockNS > it.deadlineNS {
		return ErrTimeout
	}
	if it.steps > it.maxSteps {
		return ErrSteps
	}
	if it.steps&interruptPollMask == 0 && it.interrupted.Load() {
		return ErrInterrupted
	}
	return nil
}

// LoadSource parses and loads one target source file: top-level functions,
// methods, constants and vars become available for execution. Imports are
// resolved against registered host modules.
func (it *Interp) LoadSource(filename string, src []byte) error {
	f, err := parser.ParseFile(it.fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return fmt.Errorf("interp: parse %s: %w", filename, err)
	}
	// Resolve imports first so top-level vars can use modules.
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		mod, ok := it.module(path)
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
		it.globals.Define(name, mod)
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
				typeName, recvName := recvInfo(decl)
				if typeName == "" {
					return fmt.Errorf("interp: %s: unsupported receiver on %s", filename, decl.Name.Name)
				}
				if it.methods[typeName] == nil {
					it.methods[typeName] = make(map[string]*ast.FuncDecl)
				}
				it.methods[typeName][decl.Name.Name] = decl
				_ = recvName
				continue
			}
			it.globals.Define(decl.Name.Name, &Closure{
				Name:   decl.Name.Name,
				Params: paramNames(decl.Type),
				Body:   decl.Body,
				Env:    it.globals,
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
							v, err = it.evalExpr(vs.Values[i], it.globals)
							if err != nil {
								return fmt.Errorf("interp: %s: init %s: %w", filename, name.Name, err)
							}
						}
						it.globals.Define(name.Name, v)
					}
				}
			}
			// Type declarations carry no runtime information in minigo;
			// struct literals create dynamic Objects by name.
		}
	}
	return nil
}

func recvInfo(decl *ast.FuncDecl) (typeName, recvName string) {
	recv := decl.Recv.List[0]
	t := recv.Type
	if se, ok := t.(*ast.StarExpr); ok {
		t = se.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if len(recv.Names) > 0 {
		recvName = recv.Names[0].Name
	}
	return id.Name, recvName
}

func paramNames(ft *ast.FuncType) []string {
	var names []string
	if ft.Params == nil {
		return names
	}
	for _, f := range ft.Params.List {
		if len(f.Names) == 0 {
			names = append(names, "_")
			continue
		}
		for _, n := range f.Names {
			names = append(names, n.Name)
		}
	}
	return names
}

// Global returns the value bound to a global name.
func (it *Interp) Global(name string) (Value, bool) {
	if it.prog != nil {
		return it.lookupGlobal(name)
	}
	return it.globals.Lookup(name)
}

// Call invokes a loaded function by name with the given arguments.
func (it *Interp) Call(name string, args ...Value) (Value, error) {
	fn, ok := it.Global(name)
	if !ok {
		return nil, fmt.Errorf("interp: undefined function %q", name)
	}
	return it.call(fn, args)
}

// call dispatches a call on a callable value.
func (it *Interp) call(fn Value, args []Value) (Value, error) {
	if err := it.step(); err != nil {
		return nil, err
	}
	switch f := fn.(type) {
	case *HostFunc:
		return f.Fn(it, args)
	case *Closure:
		return it.callClosure(f, args)
	case *compiledClosure:
		return it.callCompiled(f.fn, f.caps, f.recv, args)
	case nil:
		return nil, it.throw("AttributeError", "nil object is not callable")
	default:
		return nil, it.throw("TypeError", TypeName(fn)+" object is not callable")
	}
}

// popArgs drops the argument stack back to base, releasing the values.
func (it *Interp) popArgs(base int) {
	clear(it.argStack[base:])
	it.argStack = it.argStack[:base]
}

// callMethod invokes a method straight off its receiver, charging the
// step call would charge for the bound closure.
func (it *Interp) callMethod(mfn *compiledFunc, recv Value, args []Value) (Value, error) {
	if err := it.step(); err != nil {
		return nil, err
	}
	return it.callCompiled(mfn, nil, recv, args)
}

// callClosure executes a user function with defer/recover semantics.
func (it *Interp) callClosure(f *Closure, args []Value) (result Value, err error) {
	if len(it.frames) > 200 {
		return nil, it.throw("RecursionError", "maximum call depth exceeded in "+f.Name)
	}
	fr := &frame{name: f.Name}
	it.frames = append(it.frames, fr)
	defer func() { it.frames = it.frames[:len(it.frames)-1] }()

	scope := NewScope(f.Env)
	scope.funcRoot = true
	if f.RecvN != "" {
		scope.Define(f.RecvN, f.Recv)
	}
	for i, p := range f.Params {
		var v Value
		if i < len(args) {
			v = args[i]
		}
		scope.Define(p, v)
	}
	// Extra args beyond declared params are dropped (emulating the
	// paper's "omitted parameters use defaults" semantics in reverse).

	var cerr error
	if it.hook != nil {
		cerr = it.hook.EnterCall(it, f.Name)
	}
	if cerr == nil {
		var ctl control
		var ret Value
		ctl, ret, cerr = it.execBlock(f.Body.List, scope)
		if ctl == ctlReturn {
			result = ret
		}
	}
	// Run defers (LIFO); a deferred recover() may squash a panic.
	err = it.runDefers(fr, cerr)
	if err == nil && it.hook != nil {
		result, err = it.hook.LeaveCall(it, f.Name, result)
	}
	return result, err
}

// runDefers executes the frame's deferred calls; if execution was
// panicking and a deferred call recovers, the error is cleared.
func (it *Interp) runDefers(fr *frame, callErr error) error {
	if len(fr.defers) == 0 {
		return callErr
	}
	var pe *PanicError
	if errors.As(callErr, &pe) {
		fr.panicking = pe
	} else if callErr != nil {
		// Timeouts and budget exhaustion are not recoverable.
		return callErr
	}
	for i := len(fr.defers) - 1; i >= 0; i-- {
		d := fr.defers[i]
		if _, derr := it.call(d.fn, d.args); derr != nil {
			// A panic raised inside a defer replaces the current one.
			var dpe *PanicError
			if errors.As(derr, &dpe) {
				fr.panicking = dpe
			} else {
				return derr
			}
		}
	}
	if fr.panicking != nil {
		return fr.panicking
	}
	return nil
}

// throw raises an exception from host code.
func (it *Interp) throw(excType, msg string) error {
	return &PanicError{Val: &Exc{Type: excType, Msg: msg}, Stack: it.stackNames()}
}

func (it *Interp) stackNames() []string {
	names := make([]string, 0, len(it.frames))
	for i := len(it.frames) - 1; i >= 0; i-- {
		names = append(names, it.frames[i].name)
	}
	if len(names) == 0 {
		names = append(names, "<toplevel>")
	}
	return names
}

// currentFrame returns the innermost frame, or nil at top level.
func (it *Interp) currentFrame() *frame {
	if len(it.frames) == 0 {
		return nil
	}
	return it.frames[len(it.frames)-1]
}

package interp

import (
	"errors"
	"fmt"
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
	// nil disables the mechanism. See CallHook and ReachHook.
	Hook CallHook
}

// CallHook interposes on interpreted function calls — the runtime fault
// injection surface — at these points, with these function names:
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

// ReachHook is an optional interface of Config.Hook: the interpreter
// calls Reach with a statement's ID (below Program.Stmts; see StmtAt) as
// each statement starts, before its step — no step, no clock, and one nil
// check per statement when absent.
type ReachHook interface {
	Reach(stmt int)
}

// Interp executes a loaded minigo program.
type Interp struct {
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
	reach  ReachHook // hook, when it implements ReachHook
	frames []*frame

	// The program and the flat global slot array indexed by its symbol
	// table.
	prog   *Program
	gslots []Value
	// argStack holds the evaluated arguments of the compiled calls in
	// progress, innermost last (see compileCall).
	argStack []Value
	// freeFrames and freeCframes hold the frames of returned compiled
	// calls for the next call to reuse (see getFrame, getCframe).
	freeFrames  []*frame
	freeCframes []*cframe

	// Host environment: the shared environments installed on this
	// interpreter (Install) and the per-run state their functions read
	// (SetHostData).
	envs     *envList
	hostData []hostDatum

	// Checkpoint context, non-nil only while a CallPrefix checkpoint
	// callback runs: the paused entry frame Snapshot captures.
	cpFrame *cframe
	cpFn    *compiledFunc
	cpMeta  *frame
	cpStmt  int
}

type frame struct {
	name   string
	defers []deferredCall
	// deferArgs holds the arguments of the compiled defers.
	deferArgs []Value
	panicking *PanicError
}

// deferredCall is one pending defer: fn, or the method mfn of recv.
type deferredCall struct {
	fn   Value
	mfn  *compiledFunc
	recv Value
	args []Value
}

// withDefaults normalizes a Config: the budgets an unset field means.
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

// Throw raises an interpreted exception from host code (hook or host
// function): the error is a *PanicError carrying an *Exc, recoverable by
// deferred recover() like any interpreted panic.
func (it *Interp) Throw(excType, msg string) error {
	return it.throw(excType, msg)
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

// Global returns the value bound to a global name.
func (it *Interp) Global(name string) (Value, bool) {
	if idx, ok := it.prog.ln.lookup(name); ok && idx < len(it.gslots) && it.gslots[idx] != unbound {
		return it.gslots[idx], true
	}
	return nil, false
}

// Call invokes a loaded function by name with the given arguments.
func (it *Interp) Call(name string, args ...Value) (Value, error) {
	fn, ok := it.Global(name)
	if !ok {
		return nil, fmt.Errorf("interp: undefined function %q", name)
	}
	return it.call(fn, args)
}

// callable is a function value the compiled engine did not make: the
// test-only tree-walk's closures. call runs one; Repr and TypeName name
// it.
type callable interface {
	callWith(args []Value) (Value, error)
	funcName() string
}

// call dispatches a call on a callable value.
func (it *Interp) call(fn Value, args []Value) (Value, error) {
	if err := it.step(); err != nil {
		return nil, err
	}
	switch f := fn.(type) {
	case *HostFunc:
		return f.Fn(it, args)
	case *compiledClosure:
		return it.callCompiled(f.fn, f.caps, f.recv, args, nil)
	case callable:
		return f.callWith(args)
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

// invoke calls fn or, when mfn is set, the method mfn straight off its
// receiver, charging the step call would charge for the bound closure.
func (it *Interp) invoke(fn Value, mfn *compiledFunc, recv Value, args []Value) (Value, error) {
	if mfn == nil {
		return it.call(fn, args)
	}
	if err := it.step(); err != nil {
		return nil, err
	}
	return it.callCompiled(mfn, nil, recv, args, nil)
}

// runDefers executes the frame's deferred calls; if execution was
// panicking and a deferred call recovers, the error is cleared.
func (it *Interp) runDefers(fr *frame, callErr error) error {
	if len(fr.defers) == 0 {
		return callErr
	}
	if callErr != nil {
		var pe *PanicError
		if !errors.As(callErr, &pe) {
			// Timeouts and budget exhaustion are not recoverable.
			return callErr
		}
		fr.panicking = pe
	}
	for i := len(fr.defers) - 1; i >= 0; i-- {
		d := fr.defers[i]
		if _, derr := it.invoke(d.fn, d.mfn, d.recv, d.args); derr != nil {
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

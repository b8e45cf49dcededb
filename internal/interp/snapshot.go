package interp

// Experiment-prefix snapshot/fork execution. A campaign re-executes the
// same workload prefix for every experiment until the fault site is
// first reached; for late sites that is nearly the whole run, duplicated
// thousands of times. CallPrefix pauses the entry function before each
// top-level body statement so the caller can Snapshot the paused state;
// Fork resumes a snapshot on a fresh interpreter sharing the same
// (immutable, compile-once) Program family, skipping the prefix.
//
// Snapshots are value-deep copies: interpreted state (globals, slots,
// cells, captures, pending defers, step count, virtual clock) is copied
// with aliasing preserved, while host values (modules, host functions)
// are recorded by registration key and translated to the forked
// interpreter's equivalents at fork time. Closures compiled from a unit
// that a derived program replaced are translated function-by-function;
// anything that cannot be translated faithfully makes the snapshot
// unforkable for that experiment (the caller falls back to a full run),
// never silently different.

import (
	"errors"
	"fmt"
	"sort"
)

// ErrUnforkable reports that a snapshot cannot resume on this
// interpreter — the program diverged in a way translation cannot bridge
// (a mutated function literal was captured, a host value is gone, the
// entry function changed shape). Callers fall back to straight
// execution; the error never fires after interpreted code has run.
var ErrUnforkable = errors.New("interp: snapshot not forkable on this interpreter")

// errNotCheckpoint guards Snapshot misuse outside a CallPrefix pause.
var errNotCheckpoint = errors.New("interp: Snapshot is only valid inside a CallPrefix checkpoint")

// Snapshot is a frozen copy of an interpreter paused at a top-level
// statement boundary of its entry function. It is immutable after
// capture and may seed any number of forks concurrently.
type Snapshot struct {
	prog    *Program
	entry   string
	stmt    int // next body statement to execute
	bodyLen int
	nslots  int

	slots  []Value
	caps   []*cell
	defers []deferredCall

	steps   int64
	clockNS int64

	gslots  []Value
	hostKey map[any]string // host value identity -> registration key
}

// CallPrefix invokes a compiled entry function like Call, pausing before
// each top-level statement of its body to run checkpoint(stmt). While
// checkpoint executes, Snapshot may capture the paused state; checkpoint
// returning false stops further checkpointing (execution continues to
// completion either way), and a nil checkpoint makes CallPrefix Call.
// The entry's EnterCall hook fires before checkpoint(0), so a hook
// observing the entry itself sees it with no snapshot boundary
// preceding it.
func (it *Interp) CallPrefix(entry string, checkpoint func(stmt int) bool, args ...Value) (Value, error) {
	fn, ok := it.Global(entry)
	if !ok {
		return nil, fmt.Errorf("interp: undefined function %q", entry)
	}
	f, isCompiled := fn.(*compiledClosure)
	if !isCompiled || checkpoint == nil {
		return it.call(fn, args)
	}
	if err := it.step(); err != nil {
		return nil, err
	}
	return it.callCompiled(f.fn, f.caps, f.recv, args, checkpoint)
}

// runCheckpointed is runCstmts over the entry body with checkpoint run
// before each statement until it declines; the checkpoint itself
// charges nothing, so steps, clock, hooks and defers match Call's.
func (it *Interp) runCheckpointed(fn *compiledFunc, fr *frame, cf *cframe, checkpoint func(int) bool) (control, Value, error) {
	for si, s := range fn.body.list {
		it.cpFrame, it.cpFn, it.cpMeta, it.cpStmt = cf, fn, fr, si
		keep := checkpoint(si)
		it.cpFrame, it.cpFn, it.cpMeta = nil, nil, nil
		if !keep {
			return runCstmts(it, cf, cblock{list: fn.body.list[si:], id: fn.body.id + si})
		}
		if it.reach != nil {
			it.reach.Reach(fn.body.id + si)
		}
		if ctl, v, err := s(it, cf); err != nil || ctl != ctlNone {
			return ctl, v, err
		}
	}
	return ctlNone, nil, nil
}

// Snapshot captures the interpreter state paused at the current
// CallPrefix checkpoint: entry frame slots, captured cells, pending
// defers, the global slot array, step count and virtual
// clock. Valid only while a checkpoint callback runs.
func (it *Interp) Snapshot() (*Snapshot, error) {
	if it.cpFrame == nil {
		return nil, errNotCheckpoint
	}
	fn := it.cpFn
	sn := &Snapshot{
		prog:    it.prog,
		entry:   fn.name,
		stmt:    it.cpStmt,
		bodyLen: len(fn.body.list),
		nslots:  fn.nslots,
		steps:   it.steps,
		clockNS: it.clockNS,
	}
	cp := &valCopier{memo: make(map[any]Value)}
	sn.slots = make([]Value, len(it.cpFrame.slots))
	for i, v := range it.cpFrame.slots {
		sn.slots[i] = cp.copyVal(v)
	}
	if len(it.cpFrame.caps) > 0 {
		sn.caps = make([]*cell, len(it.cpFrame.caps))
		for i, c := range it.cpFrame.caps {
			sn.caps[i] = cp.copyCell(c)
		}
	}
	for _, d := range it.cpMeta.defers {
		sn.defers = append(sn.defers, cp.copyDefer(d))
	}
	sn.gslots = make([]Value, len(it.gslots))
	for i, v := range it.gslots {
		sn.gslots[i] = cp.copyVal(v)
	}
	if cp.err != nil {
		return nil, cp.err
	}
	sn.hostKey = it.envs.byVal
	return sn, nil
}

// Fork resumes a snapshot on this interpreter, which must be a fresh
// NewRun (no Boot, no steps) over a program sharing the snapshot
// program's linker, with the host environment already registered.
// Function bindings and imports are bound program-side (a mini-boot
// that, unlike Boot, runs no var initializers and charges no steps);
// all mutable state then comes from the snapshot, translated into this
// interpreter's program and host values. The entry function's remaining
// body statements run to completion under normal semantics — including
// the LeaveCall hook, but not EnterCall, which fired during the prefix.
func (it *Interp) Fork(snap *Snapshot) (Value, error) {
	if it.steps != 0 || len(it.frames) != 0 {
		return nil, fmt.Errorf("interp: Fork requires a fresh interpreter")
	}
	// Mini-boot: imports and function bindings only. Var initializers
	// already ran in the prefix; their results arrive via gslots below.
	for _, u := range it.prog.units {
		for _, imp := range u.imports {
			mod, ok := it.module(imp.path)
			if !ok {
				return nil, fmt.Errorf("interp: %s imports unknown module %q", u.name, imp.path)
			}
			it.gslots[imp.gidx] = mod
		}
		for _, op := range u.ops {
			if op.fn != nil {
				it.gslots[op.gidx] = op.fn
			}
		}
	}

	fk, err := newForkCtx(snap, it)
	if err != nil {
		return nil, err
	}
	cp := &valCopier{memo: make(map[any]Value), fk: fk}

	// Globals: restore every snapshot slot that was bound. Slots unbound
	// at capture stay at whatever this interpreter's own registrations
	// put there — the straight run's state is registrations plus Boot,
	// and the snapshot carries the Boot-and-beyond part.
	n := len(snap.gslots)
	if n > len(it.gslots) {
		n = len(it.gslots)
	}
	for i := 0; i < n; i++ {
		if snap.gslots[i] == unbound {
			continue
		}
		it.gslots[i] = cp.copyVal(snap.gslots[i])
	}
	if cp.err != nil {
		return nil, cp.err
	}

	// Entry frame: the fork-side entry function must have the shape the
	// snapshot recorded (same slot count, same body length).
	ev, ok := it.Global(snap.entry)
	if !ok {
		return nil, fmt.Errorf("%w: entry %q not bound", ErrUnforkable, snap.entry)
	}
	ec, ok := ev.(*compiledClosure)
	if !ok {
		return nil, fmt.Errorf("%w: entry %q is not a compiled function", ErrUnforkable, snap.entry)
	}
	nf := ec.fn
	if nf.nslots != snap.nslots || len(nf.body.list) != snap.bodyLen || snap.stmt > len(nf.body.list) {
		return nil, fmt.Errorf("%w: entry %q changed shape", ErrUnforkable, snap.entry)
	}

	it.steps = snap.steps
	it.clockNS = snap.clockNS

	fr := it.getFrame(nf.name)
	for _, d := range snap.defers {
		fr.defers = append(fr.defers, cp.copyDefer(d))
	}
	cf := it.getCframe(nf.nslots)
	for i, v := range snap.slots {
		cf.slots[i] = cp.copyVal(v)
	}
	if len(snap.caps) > 0 {
		caps := make([]*cell, len(snap.caps))
		for i, c := range snap.caps {
			caps[i] = cp.copyCell(c)
		}
		cf.caps = caps
	}
	if cp.err != nil {
		it.putCframe(cf)
		it.putFrame(fr)
		return nil, cp.err
	}

	it.frames = append(it.frames, fr)
	ctl, result, err := runCstmts(it, cf, cblock{list: nf.body.list[snap.stmt:], id: nf.body.id + snap.stmt})
	return it.endCall(nf.name, fr, cf, ctl, result, err)
}

// newEnvList indexes the host values of envs both ways: by identity to
// their registration key (capture side) and by key to the value (fork
// side). Keys are stable across interpreters — "g:name" for globals,
// "m:name" for modules, later environments shadowing earlier ones — so a
// forked interpreter, whose environment installs equivalent values under
// the same keys, finds the counterpart of every captured reference.
// Module members get compound keys so a captured reference to a member
// function translates to the fork module's member. Only reference
// values (host functions, modules) are indexed; scalars copy as-is.
func newEnvList(envs []*HostEnv) *envList {
	byVal := make(map[any]string)
	byKey := make(map[string]Value)
	note := func(key string, v Value) {
		switch v.(type) {
		case *HostFunc, *Module:
			if _, dup := byKey[key]; !dup {
				byKey[key] = v
			}
			if _, dup := byVal[v]; !dup {
				byVal[v] = key
			}
		}
	}
	regs := make(map[string]Value)
	for _, e := range envs {
		for i, name := range e.names {
			regs["g:"+name] = e.vals[i]
		}
		for name, m := range e.modules {
			regs["m:"+name] = m
		}
	}
	for _, key := range sortedKeys(regs) {
		v := regs[key]
		note(key, v)
		if m, ok := v.(*Module); ok {
			for _, mk := range sortedKeys(m.Member) {
				note(key+"\x00"+mk, m.Member[mk])
			}
		}
	}
	return &envList{envs: envs, byVal: byVal, byKey: byKey}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// forkCtx translates snapshot values into a fork interpreter: compiled
// functions across program derivations, host values across containers.
type forkCtx struct {
	// funcMap pairs each compiled function of a replaced unit with its
	// counterpart in the fork program's unit (matched by name).
	funcMap map[*compiledFunc]*compiledFunc
	// replaced holds every compiled function originating from a unit the
	// fork program swapped out — including nested literals, which have
	// no nameable counterpart and make a snapshot unforkable if captured.
	replaced map[*compiledFunc]bool
	hostOld  map[any]string
	hostNew  map[string]Value
}

func newForkCtx(snap *Snapshot, it *Interp) (*forkCtx, error) {
	op, np := snap.prog, it.prog
	if op.ln != np.ln || len(op.units) != len(np.units) {
		return nil, fmt.Errorf("%w: fork program does not derive from the snapshot program", ErrUnforkable)
	}
	fk := &forkCtx{
		funcMap:  make(map[*compiledFunc]*compiledFunc),
		replaced: make(map[*compiledFunc]bool),
		hostOld:  snap.hostKey,
	}
	fk.hostNew = it.envs.byKey
	for i := range op.units {
		ou, nu := op.units[i], np.units[i]
		if ou == nu {
			continue
		}
		newTop := make(map[string]*compiledFunc)
		for _, nop := range nu.ops {
			if nop.fn != nil {
				newTop[nop.name] = nop.fn.fn
			}
		}
		for _, oop := range ou.ops {
			if oop.fn == nil {
				continue
			}
			if nfn, ok := newTop[oop.name]; ok {
				fk.funcMap[oop.fn.fn] = nfn
			}
		}
		for mid, row := range ou.methods {
			for _, e := range row {
				if nfn := nu.methods.lookup(e.typeName, mid); nfn != nil {
					fk.funcMap[e.fn] = nfn
				}
			}
		}
		for _, fn := range ou.allFns {
			if _, mapped := fk.funcMap[fn]; !mapped {
				fk.replaced[fn] = true
			}
		}
	}
	return fk, nil
}

// valCopier deep-copies interpreter values, preserving aliasing through
// memo and (when fk is set) translating compiled functions and host
// references into the fork interpreter's world. The first failure
// sticks in err; subsequent copies return nil.
type valCopier struct {
	memo map[any]Value
	fk   *forkCtx
	err  error
}

func (vc *valCopier) fail(format string, args ...any) Value {
	if vc.err == nil {
		vc.err = fmt.Errorf("%w: %s", ErrUnforkable, fmt.Sprintf(format, args...))
	}
	return nil
}

// copyFn translates a compiled function into the fork program (capture
// keeps it); ok is false, with err set, when it cannot.
func (vc *valCopier) copyFn(fn *compiledFunc) (_ *compiledFunc, ok bool) {
	if vc.fk == nil {
		return fn, true
	}
	if nfn, ok := vc.fk.funcMap[fn]; ok {
		if len(nfn.caps) != len(fn.caps) {
			vc.fail("function %s changed capture shape", fn.name)
			return nil, false
		}
		return nfn, true
	}
	if vc.fk.replaced[fn] {
		vc.fail("captured closure %s comes from a mutated file", fn.name)
		return nil, false
	}
	return fn, true
}

func (vc *valCopier) copyDefer(d deferredCall) deferredCall {
	nd := deferredCall{fn: vc.copyVal(d.fn), recv: vc.copyVal(d.recv), args: make([]Value, len(d.args))}
	nd.mfn, _ = vc.copyFn(d.mfn)
	for i, a := range d.args {
		nd.args[i] = vc.copyVal(a)
	}
	return nd
}

func (vc *valCopier) copyCell(c *cell) *cell {
	if c == nil {
		return nil
	}
	if got, ok := vc.memo[c]; ok {
		return got.(*cell)
	}
	nc := &cell{}
	vc.memo[c] = nc
	nc.v = vc.copyVal(c.v)
	return nc
}

func (vc *valCopier) copyVal(v Value) Value {
	switch x := v.(type) {
	case nil, bool, int64, float64, string, unboundMarker:
		return v
	case *List:
		if got, ok := vc.memo[x]; ok {
			return got
		}
		nl := &List{}
		vc.memo[x] = nl
		if x.Elems != nil {
			nl.Elems = make([]Value, len(x.Elems))
			for i, e := range x.Elems {
				nl.Elems[i] = vc.copyVal(e)
			}
		}
		return nl
	case *Map:
		if got, ok := vc.memo[x]; ok {
			return got
		}
		nm := &Map{}
		vc.memo[x] = nm
		// Keys are hashable scalars; copying preserves insertion order.
		if x.ents != nil {
			nm.ents = make([]mapEntry, len(x.ents))
			for i, e := range x.ents {
				nm.ents[i] = mapEntry{e.k, vc.copyVal(e.v)}
			}
		}
		if x.idx != nil {
			nm.idx = make(map[Value]int, len(x.idx))
			for k, i := range x.idx {
				nm.idx[k] = i
			}
		}
		return nm
	case *Tuple:
		if got, ok := vc.memo[x]; ok {
			return got
		}
		nt := &Tuple{}
		vc.memo[x] = nt
		if x.Elems != nil {
			nt.Elems = make([]Value, len(x.Elems))
			for i, e := range x.Elems {
				nt.Elems[i] = vc.copyVal(e)
			}
		}
		return nt
	case *Object:
		if got, ok := vc.memo[x]; ok {
			return got
		}
		// Shapes are immutable and shared; only the slot vector copies.
		// A lazy object's fields are made first, so a snapshot holds
		// whole objects and keeps nothing of the run it was taken from.
		no := x.shape.alloc()
		vc.memo[x] = no
		for i := range x.slots {
			no.slots[i] = vc.copyVal(x.field(i))
		}
		return no
	case *Exc:
		if got, ok := vc.memo[x]; ok {
			return got
		}
		ne := &Exc{Type: x.Type, Msg: x.Msg}
		vc.memo[x] = ne
		return ne
	case *cell:
		return vc.copyCell(x)
	case *compiledClosure:
		if got, ok := vc.memo[x]; ok {
			return got
		}
		fn, ok := vc.copyFn(x.fn)
		if !ok {
			return nil
		}
		nc := &compiledClosure{fn: fn}
		vc.memo[x] = nc
		if x.caps != nil {
			nc.caps = make([]*cell, len(x.caps))
			for i, c := range x.caps {
				nc.caps[i] = vc.copyCell(c)
			}
		}
		nc.recv = vc.copyVal(x.recv)
		return nc
	case *HostFunc, *Module:
		// Host values are owned by the environment, not the snapshot:
		// capture keeps the reference, fork maps it to the equivalent
		// registration in the destination interpreter.
		if vc.fk == nil {
			return v
		}
		key, ok := vc.fk.hostOld[v]
		if !ok {
			return vc.fail("unregistered host value %s", TypeName(v))
		}
		nv, ok := vc.fk.hostNew[key]
		if !ok {
			return vc.fail("host value %q not registered in fork environment", key)
		}
		return nv
	default:
		// Tree-walk closures and anything unknown.
		return vc.fail("unsupported value type %s", TypeName(v))
	}
}

package interp

import "sync/atomic"

// HostEnv is a reusable host environment: global host functions and
// importable modules, built once and installed on any number of
// interpreters, concurrently. A campaign runs hundreds of interpreters
// against the same environment, so the functions of a HostEnv must not
// close over per-run state; they fetch it from the interpreter they are
// called with (SetHostData / HostData). A HostEnv is immutable once
// installed anywhere.
type HostEnv struct {
	names   []string
	vals    []Value
	modules map[string]*Module
}

// NewHostEnv returns an empty environment.
func NewHostEnv() *HostEnv {
	return &HostEnv{modules: make(map[string]*Module)}
}

// Func adds a global host function.
func (e *HostEnv) Func(name string, fn func(it *Interp, args []Value) (Value, error)) *HostEnv {
	e.names = append(e.names, name)
	e.vals = append(e.vals, &HostFunc{Name: name, Fn: fn})
	return e
}

// Module adds an importable host module.
func (e *HostEnv) Module(m *Module) *HostEnv {
	e.modules[m.Name] = m
	return e
}

// Install makes the environment's globals and modules available to the
// interpreter without building anything: on the compiled path the global
// slots are resolved once per program family and an install is a
// handful of stores. Later installs shadow earlier ones.
func (it *Interp) Install(e *HostEnv) {
	l := it.envs
	n := l.next.Load()
	if n == nil || n.envs[len(n.envs)-1] != e {
		n = newEnvList(append(l.envs[:len(l.envs):len(l.envs)], e))
		l.next.Store(n)
	}
	it.envs = n
	it.bind(e)
}

// envList is an installed environment list with its host index. Installs
// of the same environments in the same order share one through next, so
// the index is built once per list, not on every Snapshot and Fork.
type envList struct {
	envs  []*HostEnv
	byVal map[any]string
	byKey map[string]Value
	next  atomic.Pointer[envList]
}

// bind stores the environment's globals into the interpreter's global
// slots.
func (it *Interp) bind(e *HostEnv) {
	for i, s := range it.prog.ln.hostSlots(e) {
		for s >= len(it.gslots) {
			it.gslots = append(it.gslots, unbound)
		}
		it.gslots[s] = e.vals[i]
	}
}

// hostDatum is one SetHostData entry.
type hostDatum struct{ key, val any }

// SetHostData attaches per-run state for host functions under key,
// replacing any previous value. Keys follow the context.WithValue
// convention: an unexported type of the package owning the data.
func (it *Interp) SetHostData(key, val any) {
	for i := range it.hostData {
		if it.hostData[i].key == key {
			it.hostData[i].val = val
			return
		}
	}
	it.hostData = append(it.hostData, hostDatum{key, val})
}

// HostData returns the per-run state attached under key, or nil.
func (it *Interp) HostData(key any) any {
	for i := range it.hostData {
		if it.hostData[i].key == key {
			return it.hostData[i].val
		}
	}
	return nil
}

// module resolves an import path against the environments, latest
// first (the builtins are always the earliest, see baseEnvs).
func (it *Interp) module(path string) (*Module, bool) {
	for i := len(it.envs.envs) - 1; i >= 0; i-- {
		if m, ok := it.envs.envs[i].modules[path]; ok {
			return m, true
		}
	}
	return nil, false
}

package interp

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
// interpreter, like RegisterGlobal / RegisterModule for each of them but
// without building anything: on the compiled path the global slots are
// resolved once per program family and an install is a handful of
// stores. Later installs and registrations shadow earlier ones.
func (it *Interp) Install(e *HostEnv) {
	it.envs = append(it.envs, e)
	it.bind(e)
}

// bind stores the environment's globals into the interpreter's global
// scope (tree-walk) or global slots (compiled).
func (it *Interp) bind(e *HostEnv) {
	if it.prog == nil {
		for i, name := range e.names {
			it.globals.Define(name, e.vals[i])
		}
		return
	}
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

// module resolves an import path: individually registered modules
// first, then the environments latest first (the builtins are always
// the earliest, see baseEnvs).
func (it *Interp) module(path string) (*Module, bool) {
	if m, ok := it.modules[path]; ok {
		return m, true
	}
	for i := len(it.envs) - 1; i >= 0; i-- {
		if m, ok := it.envs[i].modules[path]; ok {
			return m, true
		}
	}
	return nil, false
}

// hostRegistrations lists every host-registered reference value by its
// stable registration key ("g:name" for globals, "m:name" for modules),
// in the order shadowing resolves: environments as installed (builtins
// first), then individual registrations — later entries win.
func (it *Interp) hostRegistrations() map[string]Value {
	out := make(map[string]Value)
	for _, e := range it.envs {
		for i, name := range e.names {
			out["g:"+name] = e.vals[i]
		}
		for name, m := range e.modules {
			out["m:"+name] = m
		}
	}
	for k, v := range it.hostVals {
		out[k] = v
	}
	return out
}

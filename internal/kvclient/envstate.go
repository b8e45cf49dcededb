package kvclient

import (
	"profipy/internal/kvstore"
	"profipy/internal/sandbox"
	"profipy/internal/trace"
)

// envState is the frozen form of the InstallEnv container environment at
// a prefix-snapshot boundary: the etcd-like server's datastore, the
// cross-round clock base and any recorded trace spans. The environment
// RNG and stall state are deliberately absent — both only advance under
// CPU contention, and the prefix driver refuses to snapshot contended
// prefixes, so a forked container's freshly seeded equivalents are in
// exactly the state a straight run's would be at the boundary.
type envState struct {
	server    *kvstore.ServerState
	clockBase int64
	hasTracer bool
	spans     []trace.Span
}

// CaptureEnv freezes the kvclient environment of a container for
// prefix-fork execution. It reports ok=false when the env bag holds
// anything it does not know how to capture faithfully.
func CaptureEnv(c *sandbox.Container) (any, bool) {
	for _, k := range c.EnvKeys() {
		switch k {
		case envKeyState, envKeyTracer:
		default:
			return nil, false
		}
	}
	st := &envState{}
	if v, ok := c.GetEnv(envKeyState); ok {
		run, ok := v.(*envRun)
		if !ok {
			return nil, false
		}
		st.server = run.srv.CaptureState()
		st.clockBase = run.clock.baseNS()
	}
	if rec, ok := Tracer(c); ok {
		st.hasTracer = true
		st.spans = rec.Spans()
	}
	return st, true
}

// RestoreEnv applies a CaptureEnv state to a freshly installed kvclient
// environment (InstallEnv must already have run for the round, so the
// server, clock and tracer objects to restore into exist). It reports
// ok=false on any shape mismatch; the caller then falls back to a full
// run.
func RestoreEnv(c *sandbox.Container, state any) bool {
	st, ok := state.(*envState)
	if !ok {
		return false
	}
	if st.server != nil {
		v, ok := c.GetEnv(envKeyState)
		if !ok {
			return false
		}
		run, ok := v.(*envRun)
		if !ok {
			return false
		}
		run.srv.RestoreState(st.server)
		run.clock.setBase(st.clockBase)
	}
	rec, traced := Tracer(c)
	if traced != st.hasTracer {
		// A fork must see exactly the spans a straight run would have
		// recorded over the prefix — tracing on one side only cannot.
		return false
	}
	if traced {
		for _, sp := range st.spans {
			rec.Record(sp)
		}
	}
	return true
}

package sandbox

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// State is a container lifecycle state.
type State int

// Container lifecycle: Created -> Running -> Exited -> Destroyed.
const (
	StateCreated State = iota + 1
	StateRunning
	StateExited
	StateDestroyed
)

func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateExited:
		return "exited"
	case StateDestroyed:
		return "destroyed"
	default:
		return "unknown"
	}
}

// Image is a container template: the (mutated) target sources plus the
// resource profile used by the scheduler.
type Image struct {
	Name string
	// Files is the base layer loaded into each container's filesystem at
	// create time. The byte slices are shared, not copied — an experiment
	// batch deploys the same multi-megabyte target into every container,
	// so the image layers are treated as immutable while containers
	// exist (the FS copies on every write and read, so containers can
	// never alias them back out).
	Files map[string][]byte
	// Overlay is an optional copy-on-write layer applied over Files:
	// entries here shadow same-named base files. A campaign experiment
	// deploys the shared base plus a one-file overlay holding its
	// mutated source, instead of copying the whole file map per
	// experiment.
	Overlay map[string][]byte
	// MemMB and IOMBps are the per-container resource estimates feeding
	// the PAIN backpressure rule.
	MemMB  int
	IOMBps int
}

// Container is one isolated experiment environment.
type Container struct {
	ID    string
	Image string
	FS    *FS

	memMB  int
	ioMBps int
	seed   int64

	mu    sync.Mutex
	state State
	logs  map[string]*bytes.Buffer
	env   map[string]any

	trigger    atomic.Bool
	contention atomic.Int32
}

// Seed returns the container's deterministic RNG seed.
func (c *Container) Seed() int64 { return c.seed }

// State returns the lifecycle state.
func (c *Container) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// SetTrigger flips the shared-memory fault trigger (EDFI-style): round 1
// runs with the fault enabled, round 2 with it disabled.
func (c *Container) SetTrigger(on bool) { c.trigger.Store(on) }

// TriggerEnabled reads the fault trigger.
func (c *Container) TriggerEnabled() bool { return c.trigger.Load() }

// AddContention raises the CPU contention level (resource hogs).
func (c *Container) AddContention(n int) { c.contention.Add(int32(n)) }

// Contention returns the current contention level.
func (c *Container) Contention() int { return int(c.contention.Load()) }

// Log returns (creating if needed) a named log stream; component logs are
// the input of the failure logging / propagation analyses.
func (c *Container) Log(name string) *bytes.Buffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	buf, ok := c.logs[name]
	if !ok {
		buf = &bytes.Buffer{}
		c.logs[name] = buf
	}
	return buf
}

// LogNames returns the names of all log streams, sorted.
func (c *Container) LogNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.logs))
	for n := range c.logs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LogContents returns a copy of a log stream's contents.
func (c *Container) LogContents(name string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if buf, ok := c.logs[name]; ok {
		return buf.String()
	}
	return ""
}

// PutEnv stores environment state that must persist across rounds within
// the container (e.g. the kvstore server instance).
func (c *Container) PutEnv(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.env[key] = v
}

// GetEnv retrieves environment state.
func (c *Container) GetEnv(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.env[key]
	return v, ok
}

// Start transitions the container to running.
func (c *Container) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != StateCreated && c.state != StateExited {
		return fmt.Errorf("sandbox: cannot start container in state %s", c.state)
	}
	c.state = StateRunning
	return nil
}

// Exit transitions the container to exited.
func (c *Container) Exit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == StateRunning {
		c.state = StateExited
	}
}

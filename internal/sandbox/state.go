package sandbox

import (
	"bytes"
	"sort"
)

// ContainerState is a frozen copy of a container's mutable experiment
// state — filesystem, log streams and contention level — taken at a
// prefix-snapshot boundary. It is immutable after capture and may be
// restored into any number of forked containers. The environment
// bag (PutEnv) is deliberately excluded: its values are live host
// objects owned by the workload environment, which captures and restores
// them itself.
type ContainerState struct {
	fs         map[string][]byte
	logs       map[string][]byte
	contention int32
}

// File returns the captured filesystem content at path.
func (st *ContainerState) File(path string) ([]byte, bool) {
	data, ok := st.fs[path]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// CaptureState deep-copies the container's mutable state.
func (c *Container) CaptureState() *ContainerState {
	st := &ContainerState{
		fs:         c.FS.snapshot(),
		logs:       make(map[string][]byte),
		contention: c.contention.Load(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, buf := range c.logs {
		st.logs[name] = append([]byte(nil), buf.Bytes()...)
	}
	return st
}

// RestoreState replaces the container's filesystem, log streams and
// contention level with the captured state. Log buffers handed out by
// Log before the restore keep pointing at the old streams; grab streams
// after restoring. The environment bag and the fault trigger are left
// untouched.
func (c *Container) RestoreState(st *ContainerState) {
	c.FS.restore(st.fs)
	c.mu.Lock()
	c.logs = make(map[string]*bytes.Buffer, len(st.logs))
	for name, data := range st.logs {
		c.logs[name] = bytes.NewBuffer(append([]byte(nil), data...))
	}
	c.mu.Unlock()
	c.contention.Store(st.contention)
}

// EnvKeys returns the keys present in the environment bag, sorted. The
// prefix driver uses it to refuse snapshotting when the environment
// holds state nobody knows how to capture.
func (c *Container) EnvKeys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.env))
	for k := range c.env {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

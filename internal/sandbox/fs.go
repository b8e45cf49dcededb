// Package sandbox implements the container-based experimental environment
// that substitutes for Docker in the original ProFIPy (§IV-B): images hold
// the (possibly mutated) target source plus configuration; containers give
// each experiment an isolated in-memory filesystem, log streams, a fault
// trigger in "shared memory", and resource accounting; the runtime
// schedules at most N−1 parallel containers on an N-core host, throttled
// further under memory/I-O pressure (the "no PAIN no gain" rule [52]).
package sandbox

import (
	"fmt"
	"sync"
)

// FS is a container-private in-memory filesystem.
type FS struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewFS creates an empty filesystem.
func NewFS() *FS {
	return &FS{files: make(map[string][]byte)}
}

// Write stores a file (copying the contents).
func (f *FS) Write(path string, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.files[path] = append([]byte(nil), data...)
}

// preload stores a file without copying, aliasing the caller's bytes.
// Only container creation uses it, to share immutable image layers across
// a whole experiment batch; the exported Write/Read copy in both
// directions, so the aliased bytes can never be mutated through the FS.
func (f *FS) preload(path string, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.files[path] = data
}

// Read returns a file's contents.
func (f *FS) Read(path string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.files[path]
	if !ok {
		return nil, fmt.Errorf("fs: no such file: %s", path)
	}
	return append([]byte(nil), data...), nil
}

// Remove deletes a file; removing a missing file is an error (so leaked
// temp files are observable in tests).
func (f *FS) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[path]; !ok {
		return fmt.Errorf("fs: no such file: %s", path)
	}
	delete(f.files, path)
	return nil
}

// Len returns the number of files.
func (f *FS) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.files)
}

// Clear removes everything (container teardown).
func (f *FS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.files = make(map[string][]byte)
}

// snapshot returns a deep copy of the file map (prefix-state capture).
func (f *FS) snapshot() map[string][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string][]byte, len(f.files))
	for p, d := range f.files {
		out[p] = append([]byte(nil), d...)
	}
	return out
}

// restore replaces the file map with a deep copy of the snapshot.
func (f *FS) restore(files map[string][]byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.files = make(map[string][]byte, len(files))
	for p, d := range files {
		f.files[p] = append([]byte(nil), d...)
	}
}

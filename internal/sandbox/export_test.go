package sandbox

// Clone returns a deep copy (image -> container copy-on-create).
func (f *FS) Clone() *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	nf := NewFS()
	for p, d := range f.files {
		nf.files[p] = append([]byte(nil), d...)
	}
	return nf
}

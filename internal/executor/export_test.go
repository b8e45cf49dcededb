package executor

// Len returns the mask's index range.
func (m *Mask) Len() int {
	if m == nil {
		return 0
	}
	return m.n
}

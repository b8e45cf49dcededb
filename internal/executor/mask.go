package executor

// Mask is a completion bitmap over a campaign's plan indices: bit i set
// means experiment i already has a durable record and must not be
// re-executed. Engines treat a set bit as "skip": the record was (or
// will be) replayed into the sinks by the campaign workflow, so the
// engine neither runs the experiment nor emits anything for it.
//
// A nil *Mask is valid and empty. Set is not safe for concurrent use;
// populate the mask before handing it to an engine, after which it is
// read-only.
type Mask struct {
	bits  []uint64
	n     int
	count int
}

// NewMask builds an empty mask over n plan indices.
func NewMask(n int) *Mask {
	return &Mask{bits: make([]uint64, (n+63)/64), n: n}
}

// Set marks index i complete. Out-of-range indices are ignored;
// setting a set bit is a no-op.
func (m *Mask) Set(i int) {
	if m == nil || i < 0 || i >= m.n || m.Has(i) {
		return
	}
	m.bits[i>>6] |= 1 << (uint(i) & 63)
	m.count++
}

// Has reports whether index i is marked complete.
func (m *Mask) Has(i int) bool {
	if m == nil || i < 0 || i >= m.n {
		return false
	}
	return m.bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of set bits.
func (m *Mask) Count() int {
	if m == nil {
		return 0
	}
	return m.count
}

// Package lazyrand provides math/rand generators that pay for seeding
// only when a number is actually drawn. Seeding the standard source
// fills a 607-word (≈ 5 KB) table; an experiment creates several
// generators — fault hooks, transport stalls, the kvstore server, the
// runtime fault engine — and most rounds never draw from any of them.
package lazyrand

import (
	"math/rand"
	"sync"
)

// New returns a generator whose stream is identical to
// rand.New(rand.NewSource(seed)), seeded on the first draw. Unlike the
// standard source it is safe for concurrent use: draws serialize on an
// internal lock.
func New(seed int64) *rand.Rand {
	return rand.New(&source{seed: seed})
}

// source is a rand.Source64 that builds the standard source on demand.
type source struct {
	mu   sync.Mutex
	seed int64
	src  rand.Source64 // nil until the first draw
}

// locked returns the underlying source, creating it from the pending
// seed if no draw happened yet. The caller holds mu.
func (s *source) locked() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *source) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.locked().Int63()
}

func (s *source) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.locked().Uint64()
}

// Seed re-seeds the generator; the table is rebuilt on the next draw.
func (s *source) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seed, s.src = seed, nil
}

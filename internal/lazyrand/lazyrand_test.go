package lazyrand

import (
	"math/rand"
	"sync"
	"testing"
)

// TestStreamMatchesEagerSource pins the lazy generator's first 1000
// draws of each kind to the eagerly seeded standard generator: swapping
// one for the other must never change a campaign's records.
func TestStreamMatchesEagerSource(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 101, 202, 303, 404, 707, -5, 1 << 40} {
		lazy, eager := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			if a, b := lazy.Intn(1000), eager.Intn(1000); a != b {
				t.Fatalf("seed %d draw %d: Intn %d != %d", seed, i, a, b)
			}
			if a, b := lazy.Int63(), eager.Int63(); a != b {
				t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, a, b)
			}
			if a, b := lazy.Float64(), eager.Float64(); a != b {
				t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, a, b)
			}
			if a, b := lazy.Uint64(), eager.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, a, b)
			}
			if a, b := lazy.Int63n(1<<30), eager.Int63n(1<<30); a != b {
				t.Fatalf("seed %d draw %d: Int63n %d != %d", seed, i, a, b)
			}
		}
	}
}

func TestSeedResets(t *testing.T) {
	r := New(1)
	r.Int63()
	r.Seed(9)
	if a, b := r.Int63(), rand.New(rand.NewSource(9)).Int63(); a != b {
		t.Fatalf("after Seed(9): %d != %d", a, b)
	}
}

// TestConcurrentFirstDraw races many goroutines on the seeding draw;
// run under -race. Together they must consume exactly the first n
// values of the stream, each once.
func TestConcurrentFirstDraw(t *testing.T) {
	const n = 64
	r := New(42)
	got := make([]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = r.Int63()
		}(i)
	}
	wg.Wait()
	want := make(map[int64]bool, n)
	eager := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		want[eager.Int63()] = true
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("draw %d is not among the first %d values of the stream", v, n)
		}
		delete(want, v)
	}
}

package executor

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"profipy/internal/analysis"
)

// The pool's workers deliver their own records, so the sink contract is
// not "one goroutine" but "never two at once, every index once". These
// tests pin that contract on the pump itself and through Local; run
// them under -race, where an unordered pair of Puts is a reported race
// on the sink's plain fields.

// exclusiveSink counts deliveries per index without any locking of its
// own and panics when two Puts overlap.
type exclusiveSink struct {
	inside atomic.Int32
	seen   map[int]int
	order  []int
}

func (s *exclusiveSink) Put(idx int, _ analysis.Record) {
	if s.inside.Add(1) != 1 {
		panic("executor: overlapping Put calls")
	}
	if s.seen == nil {
		s.seen = make(map[int]int)
	}
	s.seen[idx]++
	s.order = append(s.order, idx)
	time.Sleep(10 * time.Microsecond) // widen the window an overlap would need
	s.inside.Add(-1)
}

// TestPoolDeliversEveryIndexExactlyOnce drives the pool with skip
// functions from none to all. Without one it runs through Local, which
// passes the pool none; Remote's in-process drain passes the job's
// delivered set.
func TestPoolDeliversEveryIndexExactlyOnce(t *testing.T) {
	const workers = 4
	skips := []struct {
		name string
		skip func(n int) func(i int) bool
	}{
		{"none", func(int) func(int) bool { return nil }},
		{"sparse", func(int) func(int) bool { return func(i int) bool { return i%3 == 1 } }},
		{"all-but-one", func(n int) func(int) bool { return func(i int) bool { return i != n/2 } }},
		{"all", func(int) func(int) bool { return func(int) bool { return true } }},
	}
	for _, n := range []int{0, 1, workers - 1, workers, 10 * workers} {
		for _, sk := range skips {
			t.Run(fmt.Sprintf("n=%d/skip=%s", n, sk.name), func(t *testing.T) {
				skip := sk.skip(n)
				keep := func(i int) bool { return skip == nil || !skip(i) }
				var ran sync.Map
				exp := func(i int) analysis.Record {
					if _, again := ran.LoadOrStore(i, true); again {
						t.Errorf("experiment %d ran twice", i)
					}
					return analysis.Record{}
				}
				sink := &exclusiveSink{}
				if skip == nil {
					if err := (Local{Workers: workers}).Run(context.Background(), n, exp, sink); err != nil {
						t.Fatal(err)
					}
				} else {
					runPool(context.Background(), 0, n, workers, skip, exp, func(r indexed) { sink.Put(r.idx, r.rec) })
				}
				for i := 0; i < n; i++ {
					want := 0
					if keep(i) {
						want = 1
					}
					if sink.seen[i] != want {
						t.Errorf("index %d delivered %d times, want %d", i, sink.seen[i], want)
					}
					if _, executed := ran.Load(i); executed != keep(i) {
						t.Errorf("index %d executed=%v, want %v", i, executed, keep(i))
					}
				}
				if len(sink.order) > n {
					t.Errorf("%d deliveries for %d experiments", len(sink.order), n)
				}
			})
		}
	}
}

// TestPoolBlockingSinkStallsWorkers: a sink that blocks holds up the
// workers behind it — no record is queued past it, dropped or
// duplicated — and the run completes once it lets go.
func TestPoolBlockingSinkStallsWorkers(t *testing.T) {
	const workers, n = 3, 12
	var started atomic.Int32
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	seen := make(map[int]int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		runPool(context.Background(), 0, n, workers, nil, func(i int) analysis.Record {
			started.Add(1)
			return analysis.Record{}
		}, func(r indexed) {
			if len(seen) == 0 {
				entered <- struct{}{}
				<-release
			}
			seen[r.idx]++
		})
	}()
	<-entered
	// Every worker finishes the experiment it holds and then waits for
	// the sink: with one record inside the sink, at most one more per
	// other worker can have started.
	deadline := time.Now().Add(2 * time.Second)
	for started.Load() < workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := started.Load(); got != workers {
		t.Errorf("%d experiments started behind a blocked sink, want %d (one per worker)", got, workers)
	}
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not finish after the sink unblocked")
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Errorf("index %d delivered %d times", i, seen[i])
		}
	}
}

// TestPoolSequentialBelowTwoWorkers: with at most one worker nothing is
// spawned — experiments and deliveries alternate on the calling
// goroutine in ascending index order.
func TestPoolSequentialBelowTwoWorkers(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		var trace []string
		skip := func(i int) bool { return i == 2 }
		runPool(context.Background(), 0, 7, workers, skip, func(i int) analysis.Record {
			trace = append(trace, fmt.Sprintf("run%d", i))
			return analysis.Record{}
		}, func(r indexed) {
			trace = append(trace, fmt.Sprintf("put%d", r.idx))
		})
		want := "[run0 put0 run1 put1 run3 put3 run4 put4 run5 put5 run6 put6]"
		if got := fmt.Sprint(trace); got != want {
			t.Errorf("workers=%d: %s, want %s", workers, got, want)
		}
	}
}

// TestPoolSubrange: Remote's in-process drain runs a shard
// [lo, hi) of the plan; indices outside it are nobody's business.
func TestPoolSubrange(t *testing.T) {
	seen := make(map[int]int)
	runPool(context.Background(), 5, 17, 3, func(i int) bool { return i%2 != 0 },
		func(i int) analysis.Record { return analysis.Record{} },
		func(r indexed) { seen[r.idx]++ })
	for i := 0; i < 20; i++ {
		want := 0
		if i >= 5 && i < 17 && i%2 == 0 {
			want = 1
		}
		if seen[i] != want {
			t.Errorf("index %d delivered %d times, want %d", i, seen[i], want)
		}
	}
}

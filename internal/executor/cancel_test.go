package executor

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/fleet"
	"profipy/internal/obs"
	"profipy/internal/remote"
	"profipy/internal/scanner"
)

// cancellingExp returns an Experiment that cancels the context as its
// after-th experiment starts, and counts the experiments started.
func cancellingExp(cancel context.CancelFunc, after int, started *atomic.Int32) Experiment {
	return func(idx int) analysis.Record {
		if started.Add(1) == int32(after) {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return analysis.Record{Point: scanner.InjectionPoint{Line: idx}, FaultType: "full"}
	}
}

// stopSink records deliveries and fails the test on one that comes
// after Run returned.
type stopSink struct {
	t        *testing.T
	mu       sync.Mutex
	seen     map[int]int
	returned bool
}

func (s *stopSink) Put(idx int, rec analysis.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.returned {
		s.t.Errorf("index %d delivered after Run returned", idx)
	}
	if rec.Point.Line != idx || rec.FaultType != "full" {
		s.t.Errorf("index %d delivered %+v", idx, rec)
	}
	s.seen[idx]++
}

// TestCancellationDrainsCleanly cancels the context mid-run for every
// engine: Run starts no further experiment, lets the running ones
// deliver and returns context.Canceled. What arrived is fewer than n
// records, each a full one at its own index, delivered once, and
// nothing arrives after Run returned. A fleetless Remote runs its one
// shard in its no_worker drain, which Run waits for.
func TestCancellationDrainsCleanly(t *testing.T) {
	const n, after = 40, 5
	engines := []struct {
		ex      func() Executor
		workers int
	}{
		{func() Executor { return Local{} }, 1},
		{func() Executor { return Local{Workers: 4} }, 4},
		{func() Executor { r := fleetless(2); r.Reg = obs.NewRegistry(); return r }, 2},
	}
	for _, e := range engines {
		ex := e.ex()
		t.Run(ex.Name(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var started atomic.Int32
			sink := &stopSink{t: t, seen: map[int]int{}}
			err := ex.Run(ctx, n, cancellingExp(cancel, after, &started), sink)
			sink.mu.Lock()
			sink.returned = true
			delivered := len(sink.seen)
			for idx, k := range sink.seen {
				if k != 1 {
					t.Errorf("index %d delivered %d times", idx, k)
				}
			}
			sink.mu.Unlock()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run returned %v, want context.Canceled", err)
			}
			if delivered >= n {
				t.Errorf("%d records delivered after cancellation, want fewer than %d", delivered, n)
			}
			// Each worker may have held one experiment, or passed its
			// check, when the cancel landed; none starts another.
			if got := started.Load(); got > after+int32(e.workers) {
				t.Errorf("%d experiments started, want at most %d", got, after+e.workers)
			}
			time.Sleep(20 * time.Millisecond) // a late Put fails in the sink
			if r, ok := ex.(*Remote); ok {
				if got, want := takeovers(r.Reg), map[string]float64{"no_worker": 1}; !reflect.DeepEqual(got, want) {
					t.Errorf("takeovers = %v, want %v", got, want)
				}
			}
		})
	}
}

// TestRemoteCancellationRevokesLeasedShards cancels a Remote run whose
// coordinator has a live worker holding a lease it never works on, so
// no shard is done and no drain is running when the cancellation lands:
// Run must return at once, without taking anything over, and leave the
// job closed — the worker's lease is fenced, nothing can be leased,
// ingested or completed for the campaign any more.
func TestRemoteCancellationRevokesLeasedShards(t *testing.T) {
	const n, camp = 24, "cancel-test"
	coord := fleet.New(fleet.Config{LeaseTTL: 10 * time.Second})
	w := coord.RegisterWorker(remote.RegisterRequest{Name: "idle"})
	r := &Remote{
		Coord:        coord,
		CampaignID:   camp,
		Spec:         remote.CampaignSpec{Name: camp},
		LocalWorkers: 2,
		Reg:          obs.NewRegistry(),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leased := make(chan remote.Lease, 1)
	go func() {
		// Parks until Run opens the job, then sits on the shard.
		l, _, _ := coord.Lease(context.Background(), w.ID, 5*time.Second)
		leased <- l
		cancel()
	}()
	var ran atomic.Int32
	exp := func(idx int) analysis.Record {
		ran.Add(1)
		return analysis.Record{Point: scanner.InjectionPoint{Line: idx}, FaultType: "full"}
	}
	puts := 0
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx, n, exp, SinkFunc(func(int, analysis.Record) { puts++ })) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Remote.Run did not return after cancellation")
	}
	if ran.Load() != 0 || puts != 0 {
		t.Errorf("%d experiments ran and %d records were delivered, want none", ran.Load(), puts)
	}
	if got := takeovers(r.Reg); len(got) != 0 {
		t.Errorf("takeovers = %v, want none", got)
	}

	l := <-leased
	if l.Campaign != camp {
		t.Fatalf("the worker was granted %+v, want a shard of %s", l, camp)
	}
	line := []remote.RecordLine{{Idx: l.Lo, Rec: analysis.Record{FaultType: "full"}}}
	if coord.Ingest(camp, l.Shard, l.Token, line) {
		t.Error("the closed job ingested records")
	}
	if _, _, ok := coord.Complete(camp, l.Shard, l.Token, line); ok {
		t.Error("the closed job accepted a completion")
	}
	if got, granted, _ := coord.Lease(context.Background(), w.ID, 0); granted {
		t.Errorf("the closed job granted %+v", got)
	}
	if _, ok := coord.Spec(camp, nil); ok {
		t.Error("the closed job still serves its spec")
	}
}

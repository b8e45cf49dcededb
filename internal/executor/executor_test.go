package executor

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/fleet"
	"profipy/internal/remote"
	"profipy/internal/scanner"
)

// fleetless builds a Remote whose coordinator has no workers: Run claims
// every shard back and executes it in-process, one pool per shard — the
// shard geometry, per-index dedup and merge all run, without HTTP.
func fleetless(shards, localWorkers int, skip *Mask) *Remote {
	return &Remote{
		Coord:        fleet.New(fleet.Config{}),
		Spec:         remote.CampaignSpec{Name: "t"},
		Shards:       shards,
		LocalWorkers: localWorkers,
		Skip:         skip,
	}
}

// testExp builds a deterministic Experiment whose record content is a
// pure function of the index, and counts concurrent invocations.
func testExp(active *atomic.Int64, peak *atomic.Int64) Experiment {
	return func(idx int) analysis.Record {
		cur := active.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		active.Add(-1)
		return analysis.Record{
			Point:     scanner.InjectionPoint{File: fmt.Sprintf("f%d.py", idx), Line: idx},
			FaultType: "T",
		}
	}
}

func runAndCollect(t *testing.T, ex Executor, n int, exp Experiment) []analysis.Record {
	t.Helper()
	col := NewCollect(n)
	if err := ex.Run(context.Background(), n, exp, col); err != nil {
		t.Fatalf("%s: %v", ex.Name(), err)
	}
	return col.Records()
}

func TestExecutorsProduceIdenticalOrderedRecords(t *testing.T) {
	const n = 37
	var active, peak atomic.Int64
	exp := testExp(&active, &peak)
	want := runAndCollect(t, Local{Workers: 3}, n, exp)
	for i, rec := range want {
		if rec.Point.Line != i {
			t.Fatalf("record %d out of plan order: %+v", i, rec.Point)
		}
	}
	executors := []Executor{
		Local{},
		Local{Workers: 16},
		fleetless(1, 0, nil),
		fleetless(2, 3, nil),
		fleetless(5, 0, nil),
		fleetless(16, 2, nil),
		fleetless(64, 0, nil), // more shards than experiments
	}
	for _, ex := range executors {
		got := runAndCollect(t, ex, n, exp)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: records differ from Local baseline", ex.Name())
		}
	}
}

func TestLocalBoundsParallelism(t *testing.T) {
	var active, peak atomic.Int64
	runAndCollect(t, Local{Workers: 3}, 24, testExp(&active, &peak))
	if p := peak.Load(); p > 3 {
		t.Errorf("peak parallelism = %d, want <= 3", p)
	}
}

func TestShardPartitionCoversPlan(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 37} {
		for shards := 1; shards <= 9; shards++ {
			next := 0
			for i := 0; i < shards; i++ {
				lo, hi := Shard(n, shards, i)
				if lo != next {
					t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", n, shards, i, lo, next)
				}
				if hi < lo {
					t.Fatalf("n=%d shards=%d: shard %d empty-inverted [%d,%d)", n, shards, i, lo, hi)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d shards=%d: partition ends at %d", n, shards, next)
			}
		}
	}
}

func TestSinkReceivesEveryIndexExactlyOnce(t *testing.T) {
	const n = 29
	for _, ex := range []Executor{Local{Workers: 3}, fleetless(3, 2, nil)} {
		seen := map[int]int{}
		sink := SinkFunc(func(idx int, rec analysis.Record) { seen[idx]++ })
		var active, peak atomic.Int64
		if err := ex.Run(context.Background(), n, testExp(&active, &peak), sink); err != nil {
			t.Fatal(err)
		}
		if len(seen) != n {
			t.Fatalf("%s: sink saw %d distinct indices, want %d", ex.Name(), len(seen), n)
		}
		for idx, c := range seen {
			if c != 1 {
				t.Errorf("%s: index %d delivered %d times", ex.Name(), idx, c)
			}
		}
	}
}

func TestRunZeroExperiments(t *testing.T) {
	for _, ex := range []Executor{Local{Workers: 4}, fleetless(4, 0, nil)} {
		called := false
		err := ex.Run(context.Background(), 0, func(int) analysis.Record {
			called = true
			return analysis.Record{}
		}, SinkFunc(func(int, analysis.Record) { called = true }))
		if err != nil || called {
			t.Errorf("%s: n=0 must be a no-op (err=%v called=%v)", ex.Name(), err, called)
		}
	}
}

// TestRemoteCountsEnvelopes: Remote tallies what workers shipped beside
// each record — path kind and fork outcome. An envelope from a worker
// that predates the fork field, and the in-process fallback's own
// deliveries, count as neither hit nor miss.
func TestRemoteCountsEnvelopes(t *testing.T) {
	r := &Remote{}
	for _, d := range []fleet.Delivery{
		{Kind: remote.KindMutated, Fork: remote.ForkHit},
		{Kind: remote.KindMutated, Fork: remote.ForkHit},
		{Kind: remote.KindInjected, Fork: remote.ForkMiss},
		{Kind: remote.KindMutated}, // old worker: no fork field
		{Kind: remote.KindLocal},
		{Kind: remote.KindError},
	} {
		r.account(d)
	}
	want := RemoteCounts{Mutated: 3, Injected: 1, ForkHits: 2, ForkMisses: 1}
	if got := r.Counts(); got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
}

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
	"profipy/internal/obs"
	"profipy/internal/remote"
	"profipy/internal/scanner"
)

// fleetless builds a Remote whose coordinator has no workers: the plan
// is one shard, which Run's in-process drain claims and runs on
// localWorkers — per-index dedup and merge all run, without HTTP.
func fleetless(localWorkers int) *Remote {
	return &Remote{
		Coord:        fleet.New(fleet.Config{}),
		Spec:         remote.CampaignSpec{Name: "t"},
		LocalWorkers: localWorkers,
	}
}

// staleFleet builds a Remote whose coordinator has workers registered
// that never ask for work and fall silent after a short TTL: the plan is
// cut into four shards per worker, and the drain takes them over one at
// a time once the fleet is stale. Build it right before Run.
func staleFleet(workers, localWorkers int) *Remote {
	r := fleetless(localWorkers)
	r.Coord = fleet.New(fleet.Config{LeaseTTL: 20 * time.Millisecond})
	for i := 0; i < workers; i++ {
		r.Coord.RegisterWorker(remote.RegisterRequest{Name: "silent"})
	}
	return r
}

// takeovers reads profipy_executor_takeover_total off reg, by reason.
func takeovers(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, reason := range []string{"no_worker", "fleet_lost"} {
		if n := reg.CounterVec("profipy_executor_takeover_total", "", "reason").With(reason).Value(); n > 0 {
			out[reason] = n
		}
	}
	return out
}

func testRecord(idx int) analysis.Record {
	return analysis.Record{
		Point:     scanner.InjectionPoint{File: fmt.Sprintf("f%d.py", idx), Line: idx},
		FaultType: "T",
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
		return testRecord(idx)
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
	executors := []func() Executor{
		func() Executor { return Local{} },
		func() Executor { return Local{Workers: 16} },
		func() Executor { return fleetless(0) },
		func() Executor { return fleetless(3) },
		func() Executor { return staleFleet(1, 2) },  // four shards
		func() Executor { return staleFleet(16, 0) }, // a shard per experiment
	}
	for _, mk := range executors {
		ex := mk()
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

// TestRemoteTakeoverBoundsParallelism: however Remote comes to run the
// plan in-process — no worker from the start, or a fleet whose plan was
// cut into several shards falling silent mid-campaign — one drain runs
// at a time, so no more than LocalWorkers experiments execute at once
// (§IV-D's N−1), every index is delivered exactly once, and the takeover
// is counted once, by what triggered it.
func TestRemoteTakeoverBoundsParallelism(t *testing.T) {
	const n, localWorkers = 48, 2
	check := func(t *testing.T, r *Remote, active, peak *atomic.Int64, reason string) {
		t.Helper()
		r.Reg = obs.NewRegistry()
		seen := map[int]int{}
		err := r.Run(context.Background(), n, testExp(active, peak), SinkFunc(func(idx int, rec analysis.Record) {
			seen[idx]++
			if !reflect.DeepEqual(rec, testRecord(idx)) {
				t.Errorf("index %d delivered %+v", idx, rec)
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if seen[i] != 1 {
				t.Errorf("index %d delivered %d times", i, seen[i])
			}
		}
		if p := peak.Load(); p > localWorkers {
			t.Errorf("peak parallelism = %d, want <= %d", p, localWorkers)
		}
		if got, want := takeovers(r.Reg), map[string]float64{reason: 1}; !reflect.DeepEqual(got, want) {
			t.Errorf("takeovers = %v, want %v", got, want)
		}
	}

	t.Run("no worker", func(t *testing.T) {
		var active, peak atomic.Int64
		check(t, fleetless(localWorkers), &active, &peak, "no_worker")
	})

	t.Run("fleet falls silent", func(t *testing.T) {
		// Two live workers: eight shards of six. One leases the first
		// shard, ships half of it and heartbeats once; then both fall
		// silent, the lease expires as the worker goes stale, and one
		// drain takes over the whole plan, the half-done shard included.
		r := staleFleet(1, localWorkers)
		r.CampaignID = "silent"
		w := r.Coord.RegisterWorker(remote.RegisterRequest{Name: "leaser"})
		leased := make(chan remote.Lease, 1)
		go func() {
			defer close(leased)
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
				l, ok, _ := r.Coord.Lease(context.Background(), w.ID, time.Second)
				if !ok {
					continue
				}
				var lines []remote.RecordLine
				for i := l.Lo; i < l.Lo+3; i++ {
					lines = append(lines, remote.RecordLine{Idx: i, Kind: remote.KindMutated, Rec: testRecord(i)})
				}
				r.Coord.Ingest(l.Campaign, l.Shard, l.Token, lines)
				r.Coord.Heartbeat(w.ID)
				leased <- l
				return
			}
		}()
		var active, peak atomic.Int64
		check(t, r, &active, &peak, "fleet_lost")
		if l := <-leased; l.Lo != 0 || l.Hi != 6 {
			t.Errorf("first lease = [%d,%d), want [0,6)", l.Lo, l.Hi)
		}
	})
}

func TestSinkReceivesEveryIndexExactlyOnce(t *testing.T) {
	const n = 29
	for _, ex := range []Executor{Local{Workers: 3}, fleetless(2)} {
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
	for _, ex := range []Executor{Local{Workers: 4}, fleetless(0)} {
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
// that predates the fork field, and the in-process drain's own
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

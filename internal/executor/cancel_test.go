package executor

import (
	"context"
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

// cancellingExp returns a ctx-honoring Experiment that cancels the
// context after `after` full experiments: later invocations observe the
// cancellation and return stubs, exactly like the campaign's experiment
// closure does.
func cancellingExp(ctx context.Context, cancel context.CancelFunc, after int) Experiment {
	var full atomic.Int32
	return func(idx int) analysis.Record {
		if ctx.Err() != nil {
			return analysis.Record{Point: scanner.InjectionPoint{Line: idx}, FaultType: "stub"}
		}
		if full.Add(1) == int32(after) {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return analysis.Record{Point: scanner.InjectionPoint{Line: idx}, FaultType: "full"}
	}
}

// verifyDrain checks the cancellation contract: Run returned having
// delivered all n records exactly once — some full, the canceled
// remainder as stubs — with every record at its own plan index.
func verifyDrain(t *testing.T, name string, recs []analysis.Record, n int) {
	t.Helper()
	fulls, stubs := 0, 0
	for i, rec := range recs {
		if rec.Point.Line != i {
			t.Fatalf("%s: record %d holds index %d", name, i, rec.Point.Line)
		}
		switch rec.FaultType {
		case "full":
			fulls++
		case "stub":
			stubs++
		default:
			t.Fatalf("%s: record %d missing (%q)", name, i, rec.FaultType)
		}
	}
	if fulls+stubs != n {
		t.Fatalf("%s: %d full + %d stub records, want %d total", name, fulls, stubs, n)
	}
	if stubs == 0 {
		t.Logf("%s: cancellation raced completion (0 stubs) — still a valid drain", name)
	}
}

// TestCancellationDrainsCleanly cancels the context mid-run for every
// engine and requires a complete, well-indexed record set anyway:
// cancellation is cooperative and must never lose or duplicate an
// index, only downgrade unexecuted experiments to stubs. A fleetless
// Remote's one shard is already in its no_worker drain when the cancel
// lands, so the canceled drain finds nothing left to take over.
func TestCancellationDrainsCleanly(t *testing.T) {
	const n = 40
	engines := []func() Executor{
		func() Executor { return Local{} },
		func() Executor { return Local{Workers: 4} },
		func() Executor { r := fleetless(2, nil); r.Reg = obs.NewRegistry(); return r },
	}
	for _, mk := range engines {
		ex := mk()
		t.Run(ex.Name(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			col := NewCollect(n)
			if err := ex.Run(ctx, n, cancellingExp(ctx, cancel, 5), col); err != nil {
				t.Fatalf("run: %v", err)
			}
			verifyDrain(t, ex.Name(), col.Records(), n)
			if r, ok := ex.(*Remote); ok {
				if got, want := takeovers(r.Reg), map[string]float64{"no_worker": 1}; !reflect.DeepEqual(got, want) {
					t.Errorf("takeovers = %v, want %v", got, want)
				}
			}
		})
	}
}

// TestRemoteCancellationRevokesLeasedShards cancels a Remote run whose
// coordinator has a live worker that never asks for work, so every shard
// is still pending — and no drain running — when the cancellation
// lands: Run must revoke them all and drain the full index range as
// stubs in-process, in one takeover counted as canceled.
func TestRemoteCancellationRevokesLeasedShards(t *testing.T) {
	const n = 24
	coord := fleet.New(fleet.Config{LeaseTTL: 10 * time.Second})
	coord.RegisterWorker(remote.RegisterRequest{Name: "idle"})
	r := &Remote{
		Coord:        coord,
		CampaignID:   "cancel-test",
		Spec:         remote.CampaignSpec{Name: "cancel-test"},
		LocalWorkers: 2,
		Reg:          obs.NewRegistry(),
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	col := NewCollect(n)
	exp := func(idx int) analysis.Record {
		kind := "full"
		if ctx.Err() != nil {
			kind = "stub"
		}
		return analysis.Record{Point: scanner.InjectionPoint{Line: idx}, FaultType: kind}
	}
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx, n, exp, col) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Remote.Run did not drain after cancellation")
	}
	verifyDrain(t, r.Name(), col.Records(), n)
	stubs := 0
	for _, rec := range col.Records() {
		if rec.FaultType == "stub" {
			stubs++
		}
	}
	if stubs != n {
		t.Fatalf("%d stubs, want all %d (no worker ever ran an experiment)", stubs, n)
	}
	if got, want := takeovers(r.Reg), map[string]float64{"canceled": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("takeovers = %v, want %v", got, want)
	}
}

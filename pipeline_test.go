// Streaming-pipeline equivalence tests: the §V campaigns must produce
// byte-identical records and reports whichever execution engine runs
// them — the Local N−1 pool at any worker count or Remote at any shard
// count — and whether records are collected, streamed to a sink, or
// discarded for O(workers) memory. Experiment seeds derive from plan
// indices, never from scheduling, which is what makes this hold.
// (Remote runs here against a coordinator with no workers, so every
// shard is claimed back and executed in-process: shard geometry, dedup
// and merge without HTTP. remote_test.go adds the fleet.)
package profipy

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"profipy/internal/analysis"
	"profipy/internal/campaign"
	"profipy/internal/executor"
	"profipy/internal/fleet"
	"profipy/internal/kvclient"
)

// fleetless is Remote with a coordinator and no workers.
func fleetless(shards, localWorkers int) *executor.Remote {
	return &executor.Remote{
		Coord:        fleet.New(fleet.Config{}),
		CampaignID:   "fleetless",
		Shards:       shards,
		LocalWorkers: localWorkers,
	}
}

func runWithExecutor(t *testing.T, build func(rt *Runtime, seed int64) *campaign.Campaign,
	seed int64, ex executor.Executor) *campaign.Result {
	t.Helper()
	rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
	c := build(rt, seed)
	c.Executor = ex
	res, err := c.Run()
	if err != nil {
		t.Fatalf("campaign (%v): %v", ex, err)
	}
	return res
}

// TestGeometryMatchesGolden runs every golden campaign at several pool
// sizes and shard geometries and compares the full record JSON
// byte-for-byte against the same fixtures the default Local path is
// pinned to.
func TestGeometryMatchesGolden(t *testing.T) {
	executors := []func() executor.Executor{
		func() executor.Executor { return executor.Local{Workers: 1} },
		func() executor.Executor { return fleetless(1, 0) },
		func() executor.Executor { return fleetless(2, 2) },
		func() executor.Executor { return fleetless(7, 3) },
	}
	for _, gc := range goldenCampaigns {
		t.Run(gc.name, func(t *testing.T) {
			want := goldenFixture(t, gc.name)
			for _, mk := range executors {
				ex := mk()
				res := runWithExecutor(t, gc.build, gc.seed, ex)
				checkForkPolicy(t, res, gc.forks)
				if !bytes.Equal(canonicalRecords(t, res.Records), want) {
					t.Errorf("%s: records drifted from golden fixture", ex.Name())
				}
			}
		})
	}
}

// TestPipelineReportIdenticalAcrossEngines asserts the online
// aggregator closes the loop: reports (not just records) are
// byte-identical across engines, pool sizes and shard counts.
func TestPipelineReportIdenticalAcrossEngines(t *testing.T) {
	base := runWithExecutor(t, kvclient.CampaignR, 404, executor.Local{Workers: 3})
	want, err := json.Marshal(base.Report)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []executor.Executor{
		executor.Local{Workers: 1},
		fleetless(5, 2),
	} {
		res := runWithExecutor(t, kvclient.CampaignR, 404, ex)
		got, err := json.Marshal(res.Report)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: report drifted", ex.Name())
		}
	}
}

// TestDiscardRecordsStreamsToSink runs a campaign with record
// accumulation disabled: Result.Records must be nil, every record must
// still reach the sink exactly once, and the report must match the
// collected baseline byte-for-byte.
func TestDiscardRecordsStreamsToSink(t *testing.T) {
	baseline := runWithExecutor(t, kvclient.CampaignA, 101, nil)
	wantReport, err := json.Marshal(baseline.Report)
	if err != nil {
		t.Fatal(err)
	}

	rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
	c := kvclient.CampaignA(rt, 101)
	c.DiscardRecords = true
	c.Executor = fleetless(4, 2)
	var mu sync.Mutex
	streamed := map[int]analysis.Record{}
	c.Sink = executor.SinkFunc(func(idx int, rec analysis.Record) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := streamed[idx]; dup {
			t.Errorf("record %d delivered twice", idx)
		}
		streamed[idx] = rec
	})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != nil {
		t.Errorf("DiscardRecords left %d records materialized", len(res.Records))
	}
	if len(streamed) != len(baseline.Records) {
		t.Fatalf("sink saw %d records, want %d", len(streamed), len(baseline.Records))
	}
	ordered := make([]analysis.Record, len(streamed))
	for idx, rec := range streamed {
		ordered[idx] = rec
	}
	gotRecs, err := json.Marshal(ordered)
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, err := json.Marshal(baseline.Records)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRecs, wantRecs) {
		t.Error("streamed records drifted from the collected baseline")
	}
	gotReport, err := json.Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotReport, wantReport) {
		t.Error("aggregated report drifted from the collected baseline")
	}
}

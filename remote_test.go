// Distributed-execution regression tests: the golden campaigns run
// through the full remote path — fleet coordinator behind a real HTTP
// server, worker agents pulling shard leases over the wire — and their
// records are compared byte-for-byte against the same fixtures the
// in-process engines are held to. Chaos variants kill workers
// mid-shard and assert that lease expiry, re-dispatch and idempotent
// ingestion reproduce the exact same bytes.
package profipy

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"profipy/internal/campaign"
	"profipy/internal/executor"
	"profipy/internal/fleet"
	"profipy/internal/kvclient"
	"profipy/internal/obs"
	"profipy/internal/remote"
	"profipy/internal/worker"
)

// remoteSpec serializes a campaign the way the SaaS layer does:
// everything a worker needs to rebuild the execution context, minus
// the plan fields the campaign workflow fills in via SetPlanContext.
func remoteSpec(c *campaign.Campaign) remote.CampaignSpec {
	return remote.CampaignSpec{
		Name:          c.Name,
		Files:         c.Files,
		ScanFiles:     c.ScanFiles,
		Faultload:     c.Faultload,
		Entry:         c.Workload.Entry,
		WorkloadFiles: c.Workload.Files,
		TimeoutNS:     c.Workload.TimeoutNS,
		MaxSteps:      c.Workload.MaxSteps,
		WallBudgetNS:  c.Workload.WallBudgetNS,
		Rounds:        c.Workload.Rounds,
		EnvName:       "kvclient",
		ImageName:     c.Image.Name,
		ImageMemMB:    c.Image.MemMB,
		ImageIOMBps:   c.Image.IOMBps,
		Seed:          c.Seed,
		SampleN:       c.SampleN,
		ReducePlan:    c.ReducePlan,
	}
}

// runRemote executes one golden campaign through the distributed path
// with the given worker fleet and returns the campaign result, each
// worker's Run error and the metrics registry for assertions.
// WaitForWorkers is set whenever the fleet is non-empty, so nothing
// silently falls back to in-process execution; workers that die are
// still covered, because lease expiry re-dispatches to the survivors
// (or, with none left, WaitForWorkers is left off by the caller).
func runRemote(t *testing.T, build func(rt *Runtime, seed int64) *campaign.Campaign,
	seed int64, ttl time.Duration, wait bool, workers []worker.Config) (*campaign.Result, []error, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	coord := fleet.New(fleet.Config{LeaseTTL: ttl, Reg: reg})
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i := range workers {
		cfg := workers[i]
		cfg.Server = ts.URL
		if cfg.Poll == 0 {
			cfg.Poll = 5 * time.Millisecond
		}
		if cfg.Parallel == 0 {
			cfg.Parallel = 2
		}
		ag := worker.New(cfg)
		wg.Add(1)
		go func(i int) { defer wg.Done(); errs[i] = ag.Run(ctx) }(i)
	}

	// Let every worker register before the campaign starts, so a fast
	// in-process fallback can't race the fleet out of its shards.
	for deadline := time.Now().Add(5 * time.Second); coord.LiveWorkers() < len(workers); {
		if time.Now().After(deadline) {
			t.Fatalf("workers failed to register: %d/%d live", coord.LiveWorkers(), len(workers))
		}
		time.Sleep(time.Millisecond)
	}

	rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
	c := build(rt, seed)
	c.Executor = &executor.Remote{
		Coord:          coord,
		CampaignID:     "e2e-" + t.Name(),
		Spec:           remoteSpec(c),
		Shards:         5,
		LocalWorkers:   3,
		WaitForWorkers: wait,
		Reg:            reg,
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("remote campaign: %v", err)
	}
	cancel()
	wg.Wait()
	return res, errs, reg
}

func goldenFixture(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
	if err != nil {
		t.Fatalf("missing golden fixture (run `go test -run TestGoldenCampaignRecords -update .`): %v", err)
	}
	return want
}

// metricValue scrapes one sample from the registry's text exposition.
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
			if err != nil {
				t.Fatalf("parse %s: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestRemoteGoldenRecords runs every golden campaign through a real
// HTTP fleet of two workers (campaign A also through one and four) and
// demands byte-identical records: shard geometry, worker count and
// batch boundaries must leave no trace in the output. WaitForWorkers
// keeps every shard on the fleet, so the fork outcomes the result
// reports are the workers' own, shipped in their record envelopes: a
// worker rebuilds its Runner from the spec alone, and campaign-late's
// shards must fork there exactly as they do in-process.
func TestRemoteGoldenRecords(t *testing.T) {
	type remoteCase struct {
		name    string
		build   func(rt *Runtime, seed int64) *campaign.Campaign
		seed    int64
		forks   bool
		workers int
	}
	cases := []remoteCase{
		{"campaign-a", kvclient.CampaignA, 101, false, 1},
		{"campaign-a", kvclient.CampaignA, 101, false, 4},
	}
	for _, gc := range goldenCampaigns {
		cases = append(cases, remoteCase{gc.name, gc.build, gc.seed, gc.forks, 2})
	}
	for _, tc := range cases {
		t.Run(tc.name+"/workers="+string(rune('0'+tc.workers)), func(t *testing.T) {
			t.Parallel()
			workers := make([]worker.Config, tc.workers)
			for i := range workers {
				workers[i] = worker.Config{Name: "w", BatchSize: 3}
			}
			res, errs, _ := runRemote(t, tc.build, tc.seed, 10*time.Second, true, workers)
			for i, err := range errs {
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("worker %d: %v", i, err)
				}
			}
			got, want := canonicalRecords(t, res.Records), goldenFixture(t, tc.name)
			if !bytes.Equal(got, want) {
				t.Errorf("remote records drifted from golden fixture (%d vs %d bytes)", len(got), len(want))
			}
			// The control plane's own Runner executed nothing, so it built
			// no prefix set; hits and misses are what the workers shipped.
			if res.ForkSnapshots != 0 {
				t.Errorf("control plane captured %d snapshots with every shard on the fleet", res.ForkSnapshots)
			}
			if tc.forks && res.ForkHits == 0 {
				t.Errorf("no worker-side experiment forked (misses=%v)", res.ForkMissReasons)
			}
			if !tc.forks && (res.ForkHits != 0 || res.ForkMisses != 0) {
				t.Errorf("short-prefix campaign forked on the workers: hits=%d misses=%d", res.ForkHits, res.ForkMisses)
			}
		})
	}
}

// TestRemoteChaosKillMidShard kills one of two workers mid-shard via
// the chaos hook: it stops heartbeating and abandons its lease without
// completing. The lease must expire, the shard must be re-dispatched
// to the survivor and the final records must still match the golden
// fixture byte-for-byte — re-execution only fills holes, never
// duplicates or corrupts.
func TestRemoteChaosKillMidShard(t *testing.T) {
	workers := []worker.Config{
		// The victim polls fastest so it grabs the first lease, then
		// dies after four records — mid-shard (campaign A shards hold
		// five or six experiments).
		{Name: "victim", BatchSize: 2, Poll: time.Millisecond, KillAfterRecords: 4},
		{Name: "survivor", BatchSize: 3, Poll: 10 * time.Millisecond},
	}
	res, errs, reg := runRemote(t, kvclient.CampaignA, 101, 400*time.Millisecond, true, workers)
	got := canonicalRecords(t, res.Records)
	if !errors.Is(errs[0], worker.ErrKilled) {
		t.Errorf("victim returned %v, want ErrKilled", errs[0])
	}
	if errs[1] != nil && !errors.Is(errs[1], context.Canceled) {
		t.Errorf("survivor: %v", errs[1])
	}
	if want := goldenFixture(t, "campaign-a"); !bytes.Equal(got, want) {
		t.Errorf("records after chaos drifted from golden fixture (%d vs %d bytes)", len(got), len(want))
	}
	if exp := metricValue(t, reg, "profipy_fleet_lease_expiries_total"); exp == 0 {
		t.Errorf("expected at least one lease expiry after killing the victim")
	}
	if rd := metricValue(t, reg, "profipy_fleet_shard_redispatch_total"); rd == 0 {
		t.Errorf("expected at least one shard re-dispatch after killing the victim")
	}
}

// TestRemoteFleetDiesCompletely kills the only worker mid-shard with
// WaitForWorkers off: once its lease expires the control plane must
// degrade gracefully and finish every remaining shard in-process,
// still byte-identical to the fixture.
func TestRemoteFleetDiesCompletely(t *testing.T) {
	workers := []worker.Config{
		{Name: "victim", BatchSize: 2, Poll: time.Millisecond, KillAfterRecords: 4},
	}
	res, errs, _ := runRemote(t, kvclient.CampaignA, 101, 400*time.Millisecond, false, workers)
	got := canonicalRecords(t, res.Records)
	if !errors.Is(errs[0], worker.ErrKilled) {
		t.Errorf("victim returned %v, want ErrKilled", errs[0])
	}
	if want := goldenFixture(t, "campaign-a"); !bytes.Equal(got, want) {
		t.Errorf("records after total fleet loss drifted from golden fixture (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRemoteNoWorkersFallsBackLocal runs the distributed engine with an
// empty fleet: Run must claim every shard eagerly and execute
// in-process, producing the exact fixture bytes — a fleet of zero is
// just Local with extra bookkeeping.
func TestRemoteNoWorkersFallsBackLocal(t *testing.T) {
	res, _, _ := runRemote(t, kvclient.CampaignA, 101, time.Second, false, nil)
	got := canonicalRecords(t, res.Records)
	if want := goldenFixture(t, "campaign-a"); !bytes.Equal(got, want) {
		t.Errorf("local-fallback records drifted from golden fixture (%d vs %d bytes)", len(got), len(want))
	}
}

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
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"profipy/internal/analysis"
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
// the plan fields the campaign workflow fills in.
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

// errKilled is the cause a killed worker's context is canceled with.
var errKilled = errors.New("worker killed")

// killer is a worker's transport that kills it once after records have
// reached the wire: it cancels the worker's context, so the worker stops
// mid-shard, never completes it and stops heartbeating.
type killer struct {
	after int
	sent  atomic.Int64
	kill  context.CancelCauseFunc
}

func (k *killer) RoundTrip(req *http.Request) (*http.Response, error) {
	route := path.Base(req.URL.Path)
	if route != "records" && route != "complete" {
		return http.DefaultTransport.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && k.sent.Add(int64(bytes.Count(body, []byte("\n")))) >= int64(k.after) {
		k.kill(errKilled)
	}
	return resp, err
}

// runRemote executes one golden campaign through the distributed path
// with the given worker fleet and returns the campaign result, each
// worker's Run error (errKilled for a killed one) and the metrics
// registry for assertions. kill maps a worker's index to the number of
// records after which it is killed. The fleet cuts the plan into four
// shards per registered worker; the campaign runs in-process only while
// none is live — from the start with an empty fleet, or once every
// worker died.
func runRemote(t *testing.T, build func(rt *Runtime, seed int64) *campaign.Campaign,
	seed int64, ttl time.Duration, workers []worker.Config, kill map[int]int) (*campaign.Result, []error, *obs.Registry) {
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
		wctx, cancelW := context.WithCancelCause(ctx)
		if after, ok := kill[i]; ok {
			cfg.HTTPClient = &http.Client{Transport: &killer{after: after, kill: cancelW}}
		}
		ag := worker.New(cfg)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if errs[i] = ag.Run(wctx); errors.Is(errs[i], context.Canceled) {
				errs[i] = context.Cause(wctx)
			}
			cancelW(nil)
		}(i)
	}

	// Let every worker register before the campaign starts: the cut and
	// the in-process takeover both go by the live workers.
	for deadline := time.Now().Add(5 * time.Second); coord.LiveWorkers() < len(workers); {
		if time.Now().After(deadline) {
			t.Fatalf("workers failed to register: %d/%d live", coord.LiveWorkers(), len(workers))
		}
		time.Sleep(time.Millisecond)
	}

	rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
	c := build(rt, seed)
	c.Executor = &executor.Remote{
		Coord:        coord,
		CampaignID:   "e2e-" + t.Name(),
		Spec:         remoteSpec(c),
		LocalWorkers: 3,
		Reg:          reg,
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
// HTTP fleet of two workers (campaign A also through one and four, so
// over 8, 4 and 16 shards) and demands byte-identical records: shard
// geometry, worker count and batch boundaries must leave no trace in
// the output. With the fleet live every shard runs on it, so the fork
// outcomes the result reports are the workers' own, shipped in their
// record envelopes: a worker rebuilds its Runner from the spec alone,
// and campaign-late's shards must fork there exactly as they do
// in-process.
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
			res, errs, _ := runRemote(t, tc.build, tc.seed, 10*time.Second, workers, nil)
			for i, err := range errs {
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("worker %d: %v", i, err)
				}
			}
			got, want := canonicalRecords(t, res.Records), goldenFixture(t, tc.name)
			if !bytes.Equal(got, want) {
				t.Errorf("remote records drifted from golden fixture (%d vs %d bytes)", len(got), len(want))
			}
			// The control plane's Runner ran the campaign's one fault-free
			// pass, as a local campaign's does, so it captured the same
			// snapshots; hits and misses are what the workers shipped.
			ref, err := tc.build(NewRuntime(RuntimeConfig{Cores: 4, Seed: 20}), tc.seed).Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.ForkSnapshots != ref.ForkSnapshots {
				t.Errorf("control plane captured %d snapshots, a local run %d", res.ForkSnapshots, ref.ForkSnapshots)
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

// TestRemoteResumeRunsOnlyTheMissing resumes campaign A on a live
// two-worker fleet from the first k golden records. The fleet's job is
// the 27−k experiments without a record, so the workers ship each of
// them once and none of the replayed ones: k=4 ends inside a shard of
// the full plan's eight, k=13 on a shard boundary, k=26 leaves one
// experiment. Records and report are the uninterrupted run's.
func TestRemoteResumeRunsOnlyTheMissing(t *testing.T) {
	var golden []analysis.Record
	if err := json.Unmarshal(goldenFixture(t, "campaign-a"), &golden); err != nil {
		t.Fatal(err)
	}
	full, _ := runCampaignA(t, nil, nil)
	wantReport := reportJSON(t, full)
	for _, k := range []int{4, 13, 26} {
		t.Run("k="+strconv.Itoa(k), func(t *testing.T) {
			t.Parallel()
			build := func(rt *Runtime, seed int64) *campaign.Campaign {
				c := kvclient.CampaignA(rt, seed)
				c.Resume = append([]analysis.Record(nil), golden[:k]...)
				return c
			}
			workers := []worker.Config{{Name: "w", BatchSize: 3}, {Name: "w", BatchSize: 3}}
			res, errs, reg := runRemote(t, build, 101, 10*time.Second, workers, nil)
			for i, err := range errs {
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("worker %d: %v", i, err)
				}
			}
			if res.Replayed != k {
				t.Errorf("replayed %d, want %d", res.Replayed, k)
			}
			if got, want := canonicalRecords(t, res.Records), goldenFixture(t, "campaign-a"); !bytes.Equal(got, want) {
				t.Errorf("resumed records drifted from golden fixture (%d vs %d bytes)", len(got), len(want))
			}
			if !bytes.Equal(reportJSON(t, res), wantReport) {
				t.Error("resumed report differs from the uninterrupted run")
			}
			if got, want := metricValue(t, reg, "profipy_fleet_records_ingested_total"), float64(len(golden)-k); got != want {
				t.Errorf("fleet ingested %v records, want %v", got, want)
			}
			if dup := metricValue(t, reg, "profipy_fleet_records_duplicate_total"); dup != 0 {
				t.Errorf("fleet discarded %v duplicate records, want 0", dup)
			}
		})
	}
}

// TestRemoteChaosKillMidShard kills one of two workers mid-shard by
// canceling its context once its first records reached the wire: it
// stops heartbeating and abandons its lease without completing. The lease must expire, the shard must be re-dispatched
// to the survivor and the final records must still match the golden
// fixture byte-for-byte — re-execution only fills holes, never
// duplicates or corrupts.
func TestRemoteChaosKillMidShard(t *testing.T) {
	workers := []worker.Config{
		// The victim dies after two records — mid-shard: two workers cut
		// campaign A's 27 experiments into eight shards of three or four.
		{Name: "victim", BatchSize: 2, Poll: time.Millisecond},
		{Name: "survivor", BatchSize: 3, Poll: 10 * time.Millisecond},
	}
	res, errs, reg := runRemote(t, kvclient.CampaignA, 101, 400*time.Millisecond, workers, map[int]int{0: 2})
	got := canonicalRecords(t, res.Records)
	if !errors.Is(errs[0], errKilled) {
		t.Errorf("victim returned %v, want errKilled", errs[0])
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

// TestRemoteFleetDiesCompletely kills the only worker mid-shard: once
// it falls silent the control plane must take over and finish every
// remaining shard in-process, still byte-identical to the fixture.
func TestRemoteFleetDiesCompletely(t *testing.T) {
	workers := []worker.Config{
		{Name: "victim", BatchSize: 2, Poll: time.Millisecond},
	}
	res, errs, _ := runRemote(t, kvclient.CampaignA, 101, 400*time.Millisecond, workers, map[int]int{0: 4})
	got := canonicalRecords(t, res.Records)
	if !errors.Is(errs[0], errKilled) {
		t.Errorf("victim returned %v, want errKilled", errs[0])
	}
	if want := goldenFixture(t, "campaign-a"); !bytes.Equal(got, want) {
		t.Errorf("records after total fleet loss drifted from golden fixture (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRemoteNoWorkersFallsBackLocal runs the distributed engine with an
// empty fleet: the plan is one shard, which Run executes in-process at
// once, producing the exact fixture bytes — a fleet of zero is just
// Local with extra bookkeeping.
func TestRemoteNoWorkersFallsBackLocal(t *testing.T) {
	res, _, _ := runRemote(t, kvclient.CampaignA, 101, time.Second, nil, nil)
	got := canonicalRecords(t, res.Records)
	if want := goldenFixture(t, "campaign-a"); !bytes.Equal(got, want) {
		t.Errorf("local-fallback records drifted from golden fixture (%d vs %d bytes)", len(got), len(want))
	}
}

// Fork equivalence against the golden fixtures with the policy taken
// out of the way: the fork threshold is lowered to zero through the
// package's test seam, so every site a boundary precedes gets a prefix
// — including the §V campaigns' short ones, which production leaves to
// full runs — and all five campaigns must still produce the fixtures'
// bytes, on the local pool and from fleet workers (which live in this
// process, so the seam reaches their Runners too). The test also
// asserts the fork path actually engaged, so a silently-disabled fork
// cannot pass as "equivalent".
package workload_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"profipy/internal/campaign"
	"profipy/internal/executor"
	"profipy/internal/fleet"
	"profipy/internal/kvclient"
	"profipy/internal/remote"
	"profipy/internal/sandbox"
	"profipy/internal/worker"
	"profipy/internal/workload"
)

// onFleet points the campaign at a fresh coordinator served over HTTP
// with two worker agents registered, and returns the fleet's shutdown.
func onFleet(t *testing.T, c *campaign.Campaign) (stop func()) {
	t.Helper()
	coord := fleet.New(fleet.Config{LeaseTTL: 10 * time.Second})
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		ag := worker.New(worker.Config{Server: ts.URL, Name: "w", Parallel: 2, BatchSize: 3, Poll: 5 * time.Millisecond})
		wg.Add(1)
		go func() { defer wg.Done(); _ = ag.Run(ctx) }()
	}
	for deadline := time.Now().Add(5 * time.Second); coord.LiveWorkers() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("workers failed to register: %d/2 live", coord.LiveWorkers())
		}
	}
	c.Executor = &executor.Remote{
		Coord:      coord,
		CampaignID: t.Name(),
		Spec: remote.CampaignSpec{
			Name: c.Name, Files: c.Files, ScanFiles: c.ScanFiles, Faultload: c.Faultload,
			Entry: c.Workload.Entry, WorkloadFiles: c.Workload.Files,
			TimeoutNS: c.Workload.TimeoutNS, MaxSteps: c.Workload.MaxSteps, Rounds: c.Workload.Rounds,
			EnvName:   "kvclient",
			ImageName: c.Image.Name, ImageMemMB: c.Image.MemMB, ImageIOMBps: c.Image.IOMBps,
			Seed: c.Seed, SampleN: c.SampleN, ReducePlan: c.ReducePlan,
		},
		Shards:         5,
		WaitForWorkers: true,
	}
	return func() { cancel(); wg.Wait(); ts.Close() }
}

func TestGoldenRecordsForkedAtEverySite(t *testing.T) {
	workload.SetMinForkSteps(t, 0)
	for _, gc := range []struct {
		name  string
		build func(rt *sandbox.Runtime, seed int64) *campaign.Campaign
		seed  int64
	}{
		{"campaign-a", kvclient.CampaignA, 101},
		{"campaign-b", kvclient.CampaignB, 202},
		{"campaign-c", kvclient.CampaignC, 303},
		{"campaign-r", kvclient.CampaignR, 404},
		{"campaign-late", kvclient.CampaignLate, 707},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", gc.name+".json"))
		if err != nil {
			t.Fatalf("missing golden fixture for %s (run `go test -run TestGoldenCampaignRecords -update .`): %v", gc.name, err)
		}
		for _, engine := range []string{"local", "remote"} {
			t.Run(gc.name+"/"+engine, func(t *testing.T) {
				rt := sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 4, Seed: 20})
				c := gc.build(rt, gc.seed)
				if engine == "remote" {
					defer onFleet(t, c)()
				}
				res, err := c.Run()
				if err != nil {
					t.Fatalf("campaign: %v", err)
				}
				// On the fleet the control plane's Runner runs nothing and
				// so captures nothing; the hits are the workers'.
				if engine == "local" && res.ForkSnapshots == 0 {
					t.Error("no snapshots captured at threshold 0 — fork path never engaged")
				}
				if res.ForkHits == 0 {
					t.Errorf("no experiment resumed from a snapshot at threshold 0 (misses %v)", res.ForkMissReasons)
				}
				got, err := json.MarshalIndent(res.Records, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if got = append(got, '\n'); !bytes.Equal(got, want) {
					t.Errorf("forked records drifted from the straight-execution fixture (%d vs %d bytes); forked and unforked execution must be byte-identical",
						len(got), len(want))
				}
			})
		}
	}
}

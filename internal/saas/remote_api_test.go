package saas

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"profipy/internal/campaign"
	"profipy/internal/executor"
	"profipy/internal/kvclient"
	"profipy/internal/remote"
	"profipy/internal/worker"
)

func sortedLines(recs []json.RawMessage) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	sort.Strings(out)
	return out
}

// TestRemoteCampaignOverAPI drives the whole distributed stack through
// the public HTTP surface: a worker registers against the same handler
// the SaaS API is served from, a campaign posted with remote=true is
// executed by that worker, and its records match a non-remote run of
// the identical request byte for byte.
func TestRemoteCampaignOverAPI(t *testing.T) {
	srv, err := NewServerWithOptions(Options{Cores: 4, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ag := worker.New(worker.Config{Server: ts.URL, Name: "api-test", Parallel: 2, Poll: 5 * time.Millisecond})
	workerDone := make(chan error, 1)
	go func() { workerDone <- ag.Run(ctx) }()
	for deadline := time.Now().Add(5 * time.Second); srv.Fleet().LiveWorkers() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(time.Millisecond)
	}

	req, err := DemoCampaignRequest("A", 101)
	if err != nil {
		t.Fatal(err)
	}
	req.SampleN = 6 // keep the test fast

	run := func(remoteRun bool) (string, []json.RawMessage) {
		req.Remote = remoteRun
		req.WaitForWorkers = remoteRun
		resp, out := postJSON(t, ts.URL+"/api/v1/campaigns?wait=true", req)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("remote=%v status = %d: %v", remoteRun, resp.StatusCode, out)
		}
		var id string
		_ = json.Unmarshal(out["id"], &id)
		code, body := getBody(t, ts.URL+"/api/v1/campaigns/"+id+"/records?limit=100")
		if code != 200 {
			t.Fatalf("records = %d %s", code, body)
		}
		var page struct {
			Records []json.RawMessage `json:"records"`
		}
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatal(err)
		}
		return id, page.Records
	}

	remoteID, remoteRecs := run(true)
	_, localRecs := run(false)
	if len(remoteRecs) != 6 {
		t.Fatalf("remote campaign produced %d records, want 6", len(remoteRecs))
	}
	// Records stream into the store in completion order, which is
	// timing-dependent under any parallel engine; the invariant is that
	// the record *sets* are byte-identical.
	if !reflect.DeepEqual(sortedLines(remoteRecs), sortedLines(localRecs)) {
		t.Errorf("remote records differ from in-process records for the same request")
	}

	code, body := getBody(t, ts.URL+"/api/v1/campaigns/"+remoteID)
	if code != 200 || !strings.Contains(body, "\"total\": 6") {
		t.Fatalf("remote campaign report = %d %s", code, body)
	}

	// The fleet listing reports the worker that executed the shards.
	code, body = getBody(t, ts.URL+"/api/v1/workers")
	if code != 200 || !strings.Contains(body, "api-test") {
		t.Fatalf("worker listing = %d %s", code, body)
	}

	cancel()
	if err := <-workerDone; err != nil && err != context.Canceled {
		t.Errorf("worker: %v", err)
	}
}

// TestOneCampaignDescription pins the single-description invariant: the
// campaign the control plane runs and the one a worker rebuilds from
// Remote.Spec after its trip over the wire are equal in every data
// field, and resolve the same host environment.
func TestOneCampaignDescription(t *testing.T) {
	srv := NewServer(4)
	t.Cleanup(srv.Close)
	for _, env := range []string{"", "kvclient", "plain"} {
		req, err := DemoCampaignRequest("R", 7)
		if err != nil {
			t.Fatal(err)
		}
		req.Env, req.Remote = env, true
		req.TimeoutSec, req.Rounds, req.SampleN, req.ReducePlan, req.ExperimentWallMS = 90, 3, 5, true, 250
		if env == "plain" {
			// Every default in play: workload files, timeout, rounds.
			req.WorkloadFiles, req.TimeoutSec, req.Rounds = nil, 0, 0
		}
		local, _, status, msg := srv.buildCampaign(req)
		if status != 0 {
			t.Fatalf("env %q: build = %d %s", env, status, msg)
		}
		wire, err := json.Marshal(local.Executor.(*executor.Remote).Spec)
		if err != nil {
			t.Fatal(err)
		}
		var spec remote.CampaignSpec
		if err := json.Unmarshal(wire, &spec); err != nil {
			t.Fatal(err)
		}
		rebuilt, err := kvclient.CampaignFromSpec(spec, 4)
		if err != nil {
			t.Fatal(err)
		}
		if spec.TimeoutNS <= 0 || spec.MaxSteps <= 0 || spec.ImageMemMB <= 0 || spec.ImageIOMBps <= 0 || len(spec.WorkloadFiles) == 0 {
			t.Errorf("env %q: spec left a default unresolved: %+v", env, spec)
		}
		// Functions do not compare: both sides must have resolved the same
		// env name to the same (non-)nil triple, then drop out.
		for _, c := range []*campaign.Campaign{local, rebuilt} {
			if c.Workload.Env == nil || (c.Workload.CaptureEnv == nil) != (env == "plain") || (c.Workload.RestoreEnv == nil) != (env == "plain") {
				t.Errorf("env %q resolved to a wrong function triple", env)
			}
			c.Workload.Env, c.Workload.CaptureEnv, c.Workload.RestoreEnv = nil, nil, nil
		}
		// What only the control plane has — the worker wires a prepared
		// set of its own — is not part of the description.
		local.Analysis, local.DiscardRecords, local.Metrics, local.Executor, local.Prepared = rebuilt.Analysis, false, nil, nil, nil
		if !reflect.DeepEqual(local, rebuilt) {
			t.Errorf("env %q: control-plane campaign differs from the one rebuilt from its spec:\n local   %+v\n rebuilt %+v", env, local, rebuilt)
		}
	}
	if _, _, status, msg := srv.buildCampaign(CampaignRequest{
		Project: DemoProjectID, Entry: "Workload", Env: "nope", Specs: kvclient.CampaignAFaultload(),
	}); status != http.StatusBadRequest || !strings.Contains(msg, `unknown env "nope"`) {
		t.Errorf("unknown env = %d %q, want 400 naming it", status, msg)
	}
}

package saas

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"profipy/internal/trace"
)

// TestMetricsEndpointCoversAllLayers runs a campaign through the API
// and asserts the scrape output contains every layer's metric families
// with the expected route/status labels.
func TestMetricsEndpointCoversAllLayers(t *testing.T) {
	ts := newTestServer(t)

	// Generate traffic: one matched 200, one matched 404, one full
	// sharded campaign (exercises scheduler, campaign, executor and
	// resultstore instrumentation).
	if code, _ := getBody(t, ts.URL+"/api/v1/projects"); code != 200 {
		t.Fatalf("projects = %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/api/v1/campaigns/nope"); code != 404 {
		t.Fatalf("missing campaign = %d", code)
	}
	req, err := DemoCampaignRequest("A", 101)
	if err != nil {
		t.Fatal(err)
	}
	req.SampleN = 6
	if resp, out := postJSON(t, ts.URL+"/api/v1/campaigns?wait=true", req); resp.StatusCode != http.StatusCreated {
		t.Fatalf("campaign = %d: %v", resp.StatusCode, out)
	}

	code, body := getBody(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		// HTTP middleware: pattern-labeled, not concrete paths.
		`profipy_http_requests_total{route="GET /api/v1/projects",status="200"} 1`,
		`profipy_http_requests_total{route="GET /api/v1/campaigns/{id}",status="404"} 1`,
		`profipy_http_request_seconds_count{route="GET /api/v1/projects"} 1`,
		// Scheduler.
		"profipy_scheduler_queue_depth 0",
		`profipy_scheduler_jobs_finished_total{state="done"} 1`,
		"profipy_scheduler_job_duration_seconds_count 1",
		// Campaign workflow.
		`profipy_campaign_runs_total{status="completed"} 1`,
		`profipy_campaign_experiments_total{result="ok"} 6`,
		`profipy_campaign_phase_seconds_count{phase="execute"} 1`,
		// A compile-time mutant costs one declaration compile.
		`profipy_campaign_mutant_compiles_total{path="decl",reason=""} `,
		// Fork policy: campaign A's sites sit too early in the round to
		// be worth a snapshot, and the scrape says so.
		`profipy_campaign_fork_events_total{event="snapshot",reason=""} 0`,
		`profipy_campaign_fork_events_total{event="short_site",reason=""} `,
		// Executor.
		`profipy_executor_records_total{executor="local"} 6`,
		// Result store.
		"profipy_resultstore_appends_total 6",
		"profipy_resultstore_fsyncs_total",
		"profipy_resultstore_follow_subscribers 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if strings.Contains(body, `engine=`) || strings.Contains(body, "engine_fallback") {
		t.Error("scrape still exposes an engine label or the engine fallback counter")
	}
	if strings.Contains(body, "profipy_campaign_compile_cache_") || strings.Contains(body, "profipy_campaign_compile_incremental_total") {
		t.Error("scrape still exposes the compile-cache or incremental-recompile counters")
	}
	if strings.Contains(body, "profipy_executor_shard_seconds") || strings.Contains(body, `executor="sharded`) {
		t.Error("scrape still exposes the sharded executor's histogram or label value")
	}
	if strings.Contains(body, `route="GET /api/v1/campaigns/nope"`) {
		t.Error("concrete path leaked into route label")
	}
	if !strings.HasPrefix(body, "# HELP") {
		t.Errorf("scrape does not start with HELP: %.80q", body)
	}
}

// TestCampaignPhaseTimeline asserts GET /campaigns/{id} carries the
// machine-readable phase spans and that they survive a report decode by
// older clients.
func TestCampaignPhaseTimeline(t *testing.T) {
	ts := newTestServer(t)
	req, err := DemoCampaignRequest("A", 101)
	if err != nil {
		t.Fatal(err)
	}
	req.SampleN = 6
	resp, out := postJSON(t, ts.URL+"/api/v1/campaigns?wait=true", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("campaign = %d: %v", resp.StatusCode, out)
	}
	var id string
	_ = json.Unmarshal(out["id"], &id)

	code, body := getBody(t, ts.URL+"/api/v1/campaigns/"+id)
	if code != 200 {
		t.Fatalf("campaign json = %d", code)
	}
	var view struct {
		Phases []trace.Span `json:"phases"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("decode: %v", err)
	}
	got := map[string]trace.Span{}
	for _, sp := range view.Phases {
		if sp.EndNS < sp.StartNS {
			t.Errorf("span %q ends before it starts: %+v", sp.Name, sp)
		}
		got[sp.Name] = sp
	}
	for _, name := range []string{"scan", "compile", "execute", "aggregate"} {
		if _, ok := got[name]; !ok {
			t.Errorf("phase timeline missing %q (have %v)", name, names(view.Phases))
		}
	}
}

func names(spans []trace.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

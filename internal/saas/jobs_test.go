// End-to-end tests for the asynchronous campaign job API: enqueue,
// streaming progress, concurrent completion, cancellation, and
// backpressure, all driven through the HTTP handler.
//
// Campaigns on this hardware can finish in milliseconds, so tests that
// need to observe a job mid-flight do not race the worker pool: they
// install Server.testProgressHook, which blocks the campaign inside its
// progress callback until the test releases it.
package saas

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/campaign"
	"profipy/internal/scheduler"
)

func newAsyncTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServerWithOptions(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return srv, ts
}

// installGate stalls every campaign progress update until the returned
// release function is called (idempotent; also runs at cleanup so a
// failing test cannot deadlock Server.Close). The started channel gets
// one signal per stalled update.
func installGate(t *testing.T, srv *Server) (started chan campaign.Progress, release func()) {
	t.Helper()
	started = make(chan campaign.Progress, 64)
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // registered after srv.Close's cleanup → runs first
	srv.testProgressHook = func(p campaign.Progress) {
		select {
		case started <- p:
		default:
		}
		<-gate
	}
	return started, release
}

func getJob(t *testing.T, base, id string) scheduler.Status {
	t.Helper()
	code, body := getBody(t, base+"/api/v1/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("GET job %s = %d: %s", id, code, body)
	}
	var st scheduler.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("job json: %v: %s", err, body)
	}
	return st
}

// listJobs fetches GET /api/v1/jobs.
func listJobs(t *testing.T, base string) []scheduler.Status {
	t.Helper()
	code, body := getBody(t, base+"/api/v1/jobs")
	var list []scheduler.Status
	if code != http.StatusOK || json.Unmarshal([]byte(body), &list) != nil {
		t.Fatalf("job list = %d %s", code, body)
	}
	return list
}

func deleteJob(t *testing.T, base, id string) (int, scheduler.Status) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/api/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st scheduler.Status
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st
}

func submitDemo(t *testing.T, base string, sampleN int) string {
	t.Helper()
	req, err := DemoCampaignRequest("A", 101)
	if err != nil {
		t.Fatal(err)
	}
	req.SampleN = sampleN
	resp, out := postJSON(t, base+"/api/v1/campaigns", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("enqueue status = %d: %v", resp.StatusCode, out)
	}
	var jobID string
	_ = json.Unmarshal(out["job"], &jobID)
	if jobID == "" {
		t.Fatalf("no job id in %v", out)
	}
	return jobID
}

// stateRank orders job states by how far along they are: a job's state
// may never be seen moving backwards.
var stateRank = map[scheduler.State]int{
	scheduler.Queued: 0, scheduler.Running: 1,
	scheduler.Done: 2, scheduler.Failed: 2, scheduler.Canceled: 2,
}

// pollUntilTerminal polls the job, collecting every snapshot, and fails
// the test if state or progress ever moves backwards.
func pollUntilTerminal(t *testing.T, base, id string) (scheduler.Status, []scheduler.Status) {
	t.Helper()
	var snaps []scheduler.Status
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := getJob(t, base, id)
		if n := len(snaps); n > 0 {
			prev := snaps[n-1]
			if stateRank[st.State] < stateRank[prev.State] {
				t.Fatalf("state went backwards: %s after %s", st.State, prev.State)
			}
			if st.Progress.Done < prev.Progress.Done {
				t.Fatalf("progress went backwards: %d after %d", st.Progress.Done, prev.Progress.Done)
			}
		}
		snaps = append(snaps, st)
		if st.State.Terminal() {
			return st, snaps
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", id, st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	srv, ts := newAsyncTestServer(t, Options{Cores: 4})
	started, release := installGate(t, srv)
	jobID := submitDemo(t, ts.URL, 0) // full 26-point campaign

	// The campaign is stalled at its first progress update (scan phase):
	// the job must be observably running with intermediate progress.
	<-started
	mid := getJob(t, ts.URL, jobID)
	if mid.State != scheduler.Running {
		t.Fatalf("stalled job = %s, want running", mid.State)
	}
	if mid.Progress.Phase != campaign.PhaseScan {
		t.Errorf("stalled phase = %q, want scan", mid.Progress.Phase)
	}
	if mid.StartedMS == 0 || mid.FinishedMS != 0 {
		t.Errorf("intermediate timestamps = %+v", mid)
	}
	release()

	final, _ := pollUntilTerminal(t, ts.URL, jobID)
	if final.State != scheduler.Done {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if final.Campaign == "" {
		t.Fatal("done job has no campaign id")
	}
	if final.Progress.Total == 0 || final.Progress.Done != final.Progress.Total {
		t.Fatalf("final progress = %+v, want done == total > 0", final.Progress)
	}
	if _, ok := final.PhaseMillis["execute"]; !ok {
		t.Errorf("phaseMillis missing execute: %v", final.PhaseMillis)
	}
	if final.EnqueuedMS == 0 || final.StartedMS == 0 || final.FinishedMS == 0 {
		t.Errorf("missing lifecycle timestamps: %+v", final)
	}

	// The finished campaign is fetchable through the classic API.
	code, body := getBody(t, ts.URL+"/api/v1/campaigns/"+final.Campaign)
	if code != http.StatusOK {
		t.Fatalf("campaign fetch = %d: %s", code, body)
	}
	// And the job shows up in the listing.
	list := listJobs(t, ts.URL)
	if !slices.ContainsFunc(list, func(st scheduler.Status) bool { return st.ID == jobID }) {
		t.Fatalf("job %s not in list %+v", jobID, list)
	}
}

func TestIntermediateExecuteProgress(t *testing.T) {
	srv, ts := newAsyncTestServer(t, Options{Cores: 4})
	// Stall only execute-phase updates: every experiment worker blocks
	// right after reporting its completed experiment, so the job shows
	// a partial done counter while the campaign is provably unfinished.
	started := make(chan campaign.Progress, 64)
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	srv.testProgressHook = func(p campaign.Progress) {
		if p.Phase == campaign.PhaseExecute && p.Done >= 1 {
			select {
			case started <- p:
			default:
			}
			<-gate
		}
	}
	jobID := submitDemo(t, ts.URL, 0) // 26 points
	<-started
	mid := getJob(t, ts.URL, jobID)
	if mid.State != scheduler.Running {
		t.Fatalf("state = %s, want running", mid.State)
	}
	if mid.Progress.Phase != campaign.PhaseExecute {
		t.Fatalf("phase = %q, want execute", mid.Progress.Phase)
	}
	if mid.Progress.Done < 1 || mid.Progress.Done >= mid.Progress.Total {
		t.Fatalf("intermediate progress = %d/%d, want 0 < done < total",
			mid.Progress.Done, mid.Progress.Total)
	}
	release()
	if final, _ := pollUntilTerminal(t, ts.URL, jobID); final.State != scheduler.Done {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
}

func TestConcurrentCampaignsBothComplete(t *testing.T) {
	_, ts := newAsyncTestServer(t, Options{Cores: 4, Workers: 2})
	a := submitDemo(t, ts.URL, 8)
	b := submitDemo(t, ts.URL, 8)
	finalA, _ := pollUntilTerminal(t, ts.URL, a)
	finalB, _ := pollUntilTerminal(t, ts.URL, b)
	if finalA.State != scheduler.Done || finalB.State != scheduler.Done {
		t.Fatalf("states = %s / %s, want done / done", finalA.State, finalB.State)
	}
	if finalA.Campaign == finalB.Campaign {
		t.Fatalf("both jobs produced campaign %s", finalA.Campaign)
	}
	for _, camp := range []string{finalA.Campaign, finalB.Campaign} {
		if code, _ := getBody(t, ts.URL+"/api/v1/campaigns/"+camp); code != http.StatusOK {
			t.Errorf("campaign %s not fetchable: %d", camp, code)
		}
	}
}

func TestQueuedJobObservableWhileWorkerBusy(t *testing.T) {
	srv, ts := newAsyncTestServer(t, Options{Cores: 4, Workers: 1})
	started, release := installGate(t, srv)
	first := submitDemo(t, ts.URL, 4)
	<-started // the only worker is now stalled inside the first campaign
	second := submitDemo(t, ts.URL, 4)
	if st := getJob(t, ts.URL, second); st.State != scheduler.Queued {
		t.Fatalf("second job = %s, want queued while worker busy", st.State)
	}
	release()
	f1, _ := pollUntilTerminal(t, ts.URL, first)
	f2, _ := pollUntilTerminal(t, ts.URL, second)
	if f1.State != scheduler.Done || f2.State != scheduler.Done {
		t.Fatalf("states = %s / %s", f1.State, f2.State)
	}
}

func TestCancelJobs(t *testing.T) {
	srv, ts := newAsyncTestServer(t, Options{Cores: 4, Workers: 1})
	started, release := installGate(t, srv)
	running := submitDemo(t, ts.URL, 0)
	<-started // worker stalled inside the first campaign
	queued := submitDemo(t, ts.URL, 4)

	code, st := deleteJob(t, ts.URL, queued)
	if code != http.StatusAccepted || st.State != scheduler.Canceled {
		t.Fatalf("cancel queued = %d %+v", code, st)
	}
	code, _ = deleteJob(t, ts.URL, running)
	if code != http.StatusAccepted {
		t.Fatalf("cancel running = %d", code)
	}
	release() // the campaign resumes, sees its canceled context, and stops
	final, _ := pollUntilTerminal(t, ts.URL, running)
	if final.State != scheduler.Canceled {
		t.Fatalf("running job after cancel = %s, want canceled", final.State)
	}
	// A canceled job never produces a campaign.
	if final.Campaign != "" {
		t.Errorf("canceled job has campaign %s", final.Campaign)
	}
	if st := getJob(t, ts.URL, queued); st.State != scheduler.Canceled {
		t.Fatalf("queued job after drain = %s, want canceled", st.State)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	srv, ts := newAsyncTestServer(t, Options{Cores: 4, Workers: 1, QueueDepth: 1})
	started, release := installGate(t, srv)
	defer release()
	submitDemo(t, ts.URL, 4)
	<-started                // worker busy, queue empty
	submitDemo(t, ts.URL, 4) // fills the single queue slot
	req, err := DemoCampaignRequest("A", 101)
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postJSON(t, ts.URL+"/api/v1/campaigns", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d: %v", resp.StatusCode, out)
	}
	// No campaign has finished yet, so there is no load estimate: the
	// header must be the fixed fallback hint.
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Fatalf("Retry-After before any finished job = %q, want the fallback \"5\"", got)
	}
}

// TestRetryAfterDerivedFromLoad: once a campaign has finished, a
// queue-full 429's Retry-After derives from queue depth × recent mean
// job duration and must be a bounded integer number of seconds.
func TestRetryAfterDerivedFromLoad(t *testing.T) {
	srv, ts := newAsyncTestServer(t, Options{Cores: 4, Workers: 1, QueueDepth: 1})
	// Let one fast campaign finish so the scheduler has a duration
	// sample to estimate from.
	first := submitDemo(t, ts.URL, 2)
	pollUntilTerminal(t, ts.URL, first)

	started, release := installGate(t, srv)
	defer release()
	submitDemo(t, ts.URL, 4)
	<-started                // worker busy, queue empty
	submitDemo(t, ts.URL, 4) // fills the single queue slot
	req, err := DemoCampaignRequest("A", 101)
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postJSON(t, ts.URL+"/api/v1/campaigns", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d: %v", resp.StatusCode, out)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if secs < 1 || secs > 300 {
		t.Fatalf("Retry-After = %d, want within [1, 300]", secs)
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newAsyncTestServer(t, Options{Cores: 4})
	if code, _ := getBody(t, ts.URL+"/api/v1/jobs/job-999"); code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d", code)
	}
	if code, _ := deleteJob(t, ts.URL, "job-999"); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job = %d", code)
	}
}

// TestLegacyKeysIgnored: requests written for older daemons still carry
// "engine", "prefixFork", "shardWorkers" and an in-process "shards";
// the keys are ignored (not a 400), the campaign runs on the local pool
// and streams the same records to the same report.
func TestLegacyKeysIgnored(t *testing.T) {
	srv, ts := newAsyncTestServer(t, Options{Cores: 4})
	wantID, want := runDemoCampaign(t, ts, 6, nil)
	wantRecs := pageRecords(t, ts, wantID, 100)

	req, err := DemoCampaignRequest("A", 101)
	if err != nil {
		t.Fatal(err)
	}
	req.SampleN = 6
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postJSON(t, ts.URL+"/api/v1/campaigns?wait=true", withLegacyKeys(t, data))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("legacy keys: status = %d: %v", resp.StatusCode, out)
	}
	var got analysis.Report
	if err := json.Unmarshal(out["report"], &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalIndent(t, &got), marshalIndent(t, want)) {
		t.Error("report with the legacy keys differs from the default")
	}
	var gotID string
	_ = json.Unmarshal(out["id"], &gotID)
	if !reflect.DeepEqual(sortedRecordLines(t, pageRecords(t, ts, gotID, 100)), sortedRecordLines(t, wantRecs)) {
		t.Error("records with the legacy keys differ from the default")
	}
	records := srv.Metrics().CounterVec("profipy_executor_records_total", "", "executor")
	if n := records.With("local").Value(); n != 12 {
		t.Errorf("local executor delivered %v records, want both campaigns' 12", n)
	}
}

// TestBaseCompileFailureFailsJob: a project whose base program does not
// compile fails its job in the compile phase, and the job's error names
// the file.
func TestBaseCompileFailureFailsJob(t *testing.T) {
	_, ts := newAsyncTestServer(t, Options{Cores: 4})
	resp, out := postJSON(t, ts.URL+"/api/v1/projects", map[string]any{
		"name": "broken",
		"files": map[string]string{
			"main.go": "package main\nfunc Workload() any { return f() }\nfunc f() any { return 1 }\n",
			"ext.go":  "package main\nfunc External()\n",
		},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("project status = %d: %v", resp.StatusCode, out)
	}
	var proj string
	_ = json.Unmarshal(out["id"], &proj)
	resp, out = postJSON(t, ts.URL+"/api/v1/campaigns", map[string]any{
		"project": proj, "entry": "Workload", "env": "plain",
		"specs": []map[string]string{{"name": "omit", "type": "MFC", "dsl": "change { $VAR#v := $CALL{name=f}(...) } into { }"}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("enqueue status = %d: %v", resp.StatusCode, out)
	}
	var jobID string
	_ = json.Unmarshal(out["job"], &jobID)
	st, _ := pollUntilTerminal(t, ts.URL, jobID)
	if st.State != scheduler.Failed {
		t.Fatalf("job state = %s, want failed (%+v)", st.State, st)
	}
	if !strings.Contains(st.Error, ": compile: ") || !strings.Contains(st.Error, "ext.go") {
		t.Errorf("job error = %q, want a compile-phase error naming ext.go", st.Error)
	}
}

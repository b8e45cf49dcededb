// Tests for the streaming/persistence surface of the SaaS layer: record
// pagination and NDJSON streams, the persistent result store behind
// -data-dir (a restarted server keeps serving finished campaigns and
// job history without re-running anything), graceful shutdown without
// record loss, and the report-text hardening.
package saas

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/campaign"
	"profipy/internal/kvclient"
	"profipy/internal/resultstore"
	"profipy/internal/scheduler"
)

// runDemoCampaign posts the §V-A demo campaign synchronously and
// returns the campaign ID and the decoded report.
func runDemoCampaign(t *testing.T, ts *httptest.Server, sampleN int, mutate func(*CampaignRequest)) (string, *analysis.Report) {
	t.Helper()
	req, err := DemoCampaignRequest("A", 101)
	if err != nil {
		t.Fatal(err)
	}
	req.SampleN = sampleN
	if mutate != nil {
		mutate(&req)
	}
	resp, out := postJSON(t, ts.URL+"/api/v1/campaigns?wait=true", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("campaign status = %d: %v", resp.StatusCode, out)
	}
	var id string
	_ = json.Unmarshal(out["id"], &id)
	var rep analysis.Report
	if err := json.Unmarshal(out["report"], &rep); err != nil {
		t.Fatalf("report: %v", err)
	}
	return id, &rep
}

// pageRecords drains the records endpoint page by page.
func pageRecords(t *testing.T, ts *httptest.Server, id string, limit int) []analysis.Record {
	t.Helper()
	var recs []analysis.Record
	var after int64
	for {
		code, body := getBody(t, ts.URL+"/api/v1/campaigns/"+id+"/records?after="+
			jsonNum(after)+"&limit="+jsonNum(int64(limit)))
		if code != http.StatusOK {
			t.Fatalf("records page = %d %s", code, body)
		}
		var page resultstore.Page
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatalf("page json: %v", err)
		}
		for _, raw := range page.Records {
			var rec analysis.Record
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatalf("record json: %v", err)
			}
			recs = append(recs, rec)
		}
		if page.Next == after {
			if !page.Done {
				t.Fatalf("empty page not done: %+v", page)
			}
			return recs
		}
		after = page.Next
	}
}

func jsonNum(v int64) string {
	data, _ := json.Marshal(v)
	return string(data)
}

func TestRecordsPaginationEndpoint(t *testing.T) {
	ts := newTestServer(t)
	id, rep := runDemoCampaign(t, ts, 7, nil)
	recs := pageRecords(t, ts, id, 3) // force several pages
	if len(recs) != rep.Total {
		t.Fatalf("paginated %d records, want %d", len(recs), rep.Total)
	}
	// The streamed records must agree with the aggregated report.
	covered := 0
	for _, rec := range recs {
		if rec.Covered {
			covered++
		}
	}
	if covered != rep.Covered {
		t.Errorf("records say %d covered, report says %d", covered, rep.Covered)
	}
	if code, _ := getBody(t, ts.URL+"/api/v1/campaigns/nope/records"); code != http.StatusNotFound {
		t.Errorf("missing campaign records = %d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/api/v1/campaigns/"+id+"/records?after=zzz"); code != http.StatusBadRequest {
		t.Errorf("bad cursor = %d, want 400", code)
	}
}

func TestStreamEndpointReplaysFinishedCampaign(t *testing.T) {
	ts := newTestServer(t)
	id, rep := runDemoCampaign(t, ts, 5, nil)
	resp, err := http.Get(ts.URL + "/api/v1/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec analysis.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("stream line %d: %v", lines, err)
		}
		lines++
	}
	if lines != rep.Total {
		t.Errorf("stream delivered %d records, want %d", lines, rep.Total)
	}
	if code, _ := getBody(t, ts.URL+"/api/v1/campaigns/nope/stream"); code != http.StatusNotFound {
		t.Errorf("missing campaign stream = %d, want 404", code)
	}
}

// TestLiveStreamFollowsRunningCampaign gates a campaign mid-execution,
// verifies the job exposes its campaign ID while running, attaches a
// live NDJSON follower, then releases the gate and checks the follower
// received every record.
func TestLiveStreamFollowsRunningCampaign(t *testing.T) {
	srv, ts := newAsyncTestServer(t, Options{Cores: 4, Workers: 1})
	started := make(chan campaign.Progress, 64)
	gate := make(chan struct{})
	var once atomic.Bool
	srv.testProgressHook = func(p campaign.Progress) {
		if p.Phase == campaign.PhaseExecute && p.Done >= 2 && once.CompareAndSwap(false, true) {
			started <- p
			<-gate
		}
	}
	defer func() {
		if once.CompareAndSwap(false, true) {
			close(gate)
		}
	}()

	req, err := DemoCampaignRequest("A", 101)
	if err != nil {
		t.Fatal(err)
	}
	req.SampleN = 6
	resp, out := postJSON(t, ts.URL+"/api/v1/campaigns", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("enqueue = %d", resp.StatusCode)
	}
	var jobID string
	_ = json.Unmarshal(out["job"], &jobID)

	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign never reached the gate")
	}
	// The running job links to its live campaign.
	code, body := getBody(t, ts.URL+"/api/v1/jobs/"+jobID)
	if code != http.StatusOK {
		t.Fatalf("job status = %d", code)
	}
	var st scheduler.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "running" || st.Campaign == "" {
		t.Fatalf("running job should expose its campaign: %+v", st)
	}

	// Attach a live follower, then release the gate.
	streamResp, err := http.Get(ts.URL + "/api/v1/campaigns/" + st.Campaign + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	close(gate)

	lines := 0
	sc := bufio.NewScanner(streamResp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
	}
	if lines != 6 {
		t.Errorf("live stream delivered %d records, want 6", lines)
	}
}

// TestRestartServesPersistedCampaign is the acceptance-criterion test:
// a campaign finished under -data-dir is served — report, text, record
// pages, summary list and job history — by a fresh server process on
// the same directory, without re-running anything.
func TestRestartServesPersistedCampaign(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := newAsyncTestServer(t, Options{Cores: 4, DataDir: dir})
	id, rep := runDemoCampaign(t, ts1, 6, nil)
	wantReport, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	recs1 := pageRecords(t, ts1, id, 4)
	code, wantList := getBody(t, ts1.URL+"/api/v1/campaigns")
	if code != http.StatusOK {
		t.Fatal("campaign list failed")
	}
	ts1.Close()
	srv1.Close()

	srv2, err := NewServerWithOptions(Options{Cores: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)

	// Report, byte-identical through the restart.
	code, body := getBody(t, ts2.URL+"/api/v1/campaigns/"+id)
	if code != http.StatusOK {
		t.Fatalf("restarted report = %d", code)
	}
	var rep2 analysis.Report
	if err := json.Unmarshal([]byte(body), &rep2); err != nil {
		t.Fatal(err)
	}
	gotReport, _ := json.Marshal(&rep2)
	if string(gotReport) != string(wantReport) {
		t.Errorf("report drifted across restart:\n got %s\nwant %s", gotReport, wantReport)
	}
	// Records, identical page-through.
	recs2 := pageRecords(t, ts2, id, 4)
	got, _ := json.Marshal(recs2)
	want, _ := json.Marshal(recs1)
	if string(got) != string(want) {
		t.Error("records drifted across restart")
	}
	// Text report and summary list still render.
	code, text := getBody(t, ts2.URL+"/api/v1/campaigns/"+id+"/text")
	if code != http.StatusOK || !strings.Contains(text, "experiments:") {
		t.Errorf("restarted text = %d %q", code, text)
	}
	code, list := getBody(t, ts2.URL+"/api/v1/campaigns")
	if code != http.StatusOK || list != wantList {
		t.Errorf("campaign list drifted across restart:\n got %s\nwant %s", list, wantList)
	}
	// Job history restored, linked to the campaign.
	code, jobs := getBody(t, ts2.URL+"/api/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("jobs = %d", code)
	}
	var sts []scheduler.Status
	if err := json.Unmarshal([]byte(jobs), &sts); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range sts {
		if st.Campaign == id && st.State == "done" {
			found = true
		}
	}
	if !found {
		t.Errorf("restored job history missing done job for %s: %s", id, jobs)
	}
	// New campaigns on the restarted server get fresh, non-colliding IDs.
	id2, _ := runDemoCampaign(t, ts2, 3, nil)
	if id2 == id {
		t.Errorf("restarted server reused campaign id %s", id)
	}
}

// TestCrashRestartAvoidsCampaignIDCollision simulates a crash that left
// a campaign in the store whose job never reached the journal: the
// restarted server must advance its counters past every stored
// campaign, so new runs get fresh IDs instead of colliding with (and
// silently not persisting over) the interrupted one.
func TestCrashRestartAvoidsCampaignIDCollision(t *testing.T) {
	dir := t.TempDir()
	// A "crashed" process: campaign camp-1 started, no job journaled,
	// no Finish — exactly what kill -9 mid-campaign leaves behind.
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := store.StartCampaign(resultstore.Meta{ID: "camp-1", Project: "demo-python-etcd"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(analysis.Record{FaultType: "T"}); err != nil {
		t.Fatal(err)
	}
	// No Finish, no Close: simulate the crash by just abandoning it.

	srv, err := NewServerWithOptions(Options{Cores: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	id, rep := runDemoCampaign(t, ts, 4, nil)
	if id == "camp-1" {
		t.Fatalf("new campaign collided with crashed campaign id %s", id)
	}
	// The new campaign's records really persisted under its own ID.
	meta, ok := srv.Store().Get(id)
	if !ok || meta.Status != resultstore.StatusDone || int(meta.Records) != rep.Total {
		t.Fatalf("new campaign not persisted: %+v", meta)
	}
	// The crashed campaign's records are still intact and separate.
	crashed, ok := srv.Store().Get("camp-1")
	if !ok || crashed.Records != 1 || crashed.Status != resultstore.StatusInterrupted {
		t.Fatalf("crashed campaign state = %+v", crashed)
	}
}

// TestJobJournalDedupAndCapOnRestore: the append-only journal may hold
// several terminal snapshots per job; a restart serves the newest
// snapshot per ID. (The cap on how many jobs is the journal fold's own,
// TestJournalCompactsWhileRunning in resultstore.)
func TestJobJournalDedupAndCapOnRestore(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		id := jobIDFor(i)
		// Two snapshots per job: the stale one must lose.
		for _, st := range []scheduler.Status{
			{ID: id, State: "failed", Error: "stale"},
			{ID: id, State: "done", Campaign: "camp-" + jsonNum(int64(i))},
		} {
			snapshot, _ := json.Marshal(st)
			if err := store.AppendJournal(resultstore.JournalEntry{Job: id, State: string(st.State), Snapshot: snapshot}); err != nil {
				t.Fatal(err)
			}
		}
	}
	store.Close()

	_, ts := newAsyncTestServer(t, Options{Cores: 2, DataDir: dir})
	sts := listJobs(t, ts.URL)
	if len(sts) != 6 {
		t.Fatalf("listed %d jobs, want one per journaled ID (6)", len(sts))
	}
	for _, st := range sts {
		if st.State != "done" {
			t.Errorf("job %s restored stale snapshot %q", st.ID, st.State)
		}
	}
}

func jobIDFor(i int) string {
	return "job-" + jsonNum(int64(i))
}

// TestShutdownMidCampaignLosesNoRecords is the graceful-shutdown
// satellite: records streamed to the store before Close must be
// readable from the data directory by a later process. The progress
// gate stalls the campaign after a known number of experiments; Close
// cancels it; the reopened store must hold at least the records
// completed before the stall and every stored line must parse.
func TestShutdownMidCampaignLosesNoRecords(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newAsyncTestServer(t, Options{Cores: 4, Workers: 1, DataDir: dir})
	srv.Store().SetSegmentRecords(2) // several rolls within one small campaign

	const gateAt = 3
	reached := make(chan struct{})
	gate := make(chan struct{})
	var once atomic.Bool
	srv.testProgressHook = func(p campaign.Progress) {
		if p.Phase == campaign.PhaseExecute && p.Done >= gateAt && once.CompareAndSwap(false, true) {
			close(reached)
			<-gate
		}
	}

	req, err := DemoCampaignRequest("A", 101)
	if err != nil {
		t.Fatal(err)
	}
	req.SampleN = 8
	resp, out := postJSON(t, ts.URL+"/api/v1/campaigns", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("enqueue = %d", resp.StatusCode)
	}
	var jobID string
	_ = json.Unmarshal(out["job"], &jobID)

	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign never reached the gate")
	}
	// Shut down mid-campaign. Close cancels the running campaign and
	// blocks until the worker drains, so release the gate concurrently.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	time.Sleep(10 * time.Millisecond)
	close(gate)
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
	ts.Close()

	// A fresh process reads the data directory: the campaign is sealed
	// canceled with every pre-shutdown record intact and parseable.
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	metas := store.List()
	if len(metas) != 1 {
		t.Fatalf("stored campaigns = %d, want 1", len(metas))
	}
	meta := metas[0]
	if meta.Status != resultstore.StatusCanceled {
		t.Errorf("campaign status = %q, want canceled", meta.Status)
	}
	if meta.Records < gateAt {
		t.Errorf("store holds %d records, want >= %d completed before shutdown", meta.Records, gateAt)
	}
	var cursor int64
	seen := int64(0)
	for {
		page, err := store.Records(meta.ID, cursor, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, raw := range page.Records {
			var rec analysis.Record
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatalf("stored record %d unparseable: %v", seen, err)
			}
			seen++
		}
		cursor = page.Next
		if page.Done {
			break
		}
	}
	if seen != meta.Records {
		t.Errorf("paged %d records, meta says %d", seen, meta.Records)
	}
}

func TestTextReportCappedAndTyped(t *testing.T) {
	ts := newTestServer(t)
	id, _ := runDemoCampaign(t, ts, 3, nil)
	resp, err := http.Get(ts.URL + "/api/v1/campaigns/" + id + "/text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("text content type = %q", ct)
	}
	if xcto := resp.Header.Get("X-Content-Type-Options"); xcto != "nosniff" {
		t.Errorf("X-Content-Type-Options = %q", xcto)
	}
}

func TestTruncateTextRuneSafe(t *testing.T) {
	long := strings.Repeat("héllo wörld ", 100)
	got := truncateText(long, 121)
	if len(got) > 121+len("\n…(truncated)\n") {
		t.Fatalf("truncated to %d bytes", len(got))
	}
	if !strings.HasSuffix(got, "\n…(truncated)\n") {
		t.Fatalf("missing truncation marker: %q", got)
	}
	if !json.Valid([]byte(jsonString(got))) {
		t.Fatal("truncation split a rune (invalid UTF-8)")
	}
	if s := truncateText("short", 100); s != "short" {
		t.Errorf("short text modified: %q", s)
	}
}

func jsonString(s string) string {
	data, _ := json.Marshal(s)
	return string(data)
}

// TestStreamDisconnectDrainsFollowSubscribers: a streaming client that
// disconnects mid-campaign must tear its follower down via the request
// context — the profipy_resultstore_follow_subscribers gauge returns to
// zero instead of leaking a goroutine per dropped client.
func TestStreamDisconnectDrainsFollowSubscribers(t *testing.T) {
	srv, ts := newAsyncTestServer(t, Options{Cores: 4, Workers: 1})
	started := make(chan campaign.Progress, 64)
	gate := make(chan struct{})
	var once atomic.Bool
	srv.testProgressHook = func(p campaign.Progress) {
		if p.Phase == campaign.PhaseExecute && p.Done >= 1 && once.CompareAndSwap(false, true) {
			started <- p
			<-gate
		}
	}
	defer func() {
		if once.CompareAndSwap(false, true) {
			close(gate)
		}
	}()

	req, err := DemoCampaignRequest("A", 101)
	if err != nil {
		t.Fatal(err)
	}
	req.SampleN = 4
	resp, out := postJSON(t, ts.URL+"/api/v1/campaigns", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("enqueue = %d", resp.StatusCode)
	}
	var jobID string
	_ = json.Unmarshal(out["job"], &jobID)
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign never reached the gate")
	}
	st := getJob(t, ts.URL, jobID)
	if st.Campaign == "" {
		t.Fatalf("running job has no campaign: %+v", st)
	}

	subscribers := srv.Metrics().Gauge("profipy_resultstore_follow_subscribers", "")
	// Attach a follower on the live (gated) campaign and wait until the
	// server registers it.
	streamCtx, cancelStream := context.WithCancel(context.Background())
	streamReq, err := http.NewRequestWithContext(streamCtx, http.MethodGet,
		ts.URL+"/api/v1/campaigns/"+st.Campaign+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	streamResp, err := http.DefaultClient.Do(streamReq)
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	waitGauge := func(want float64, what string) {
		deadline := time.Now().Add(10 * time.Second)
		for subscribers.Value() != want {
			if time.Now().After(deadline) {
				t.Fatalf("follow_subscribers = %v, want %v (%s)", subscribers.Value(), want, what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitGauge(1, "after stream attach")

	// Drop the client. The handler's Follow must observe the request
	// context and detach even though the campaign is still live.
	cancelStream()
	waitGauge(0, "after client disconnect")

	// Release the campaign and let the job drain normally.
	close(gate)
	if final, _ := pollUntilTerminal(t, ts.URL, jobID); final.State != scheduler.Done {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
}

// TestAPIBodiesIdenticalAcrossRestart: everything the API says about
// finished work comes from the data directory, so a restart changes no
// byte of it — campaign list, reports, text reports, job list and each
// job, for done and failed jobs alike.
func TestAPIBodiesIdenticalAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := newAsyncTestServer(t, Options{Cores: 4, DataDir: dir})
	paths := []string{"/api/v1/campaigns", "/api/v1/jobs"}
	for _, which := range []string{"A", "R"} {
		req, err := DemoCampaignRequest(which, 7)
		if err != nil {
			t.Fatal(err)
		}
		req.SampleN = 5
		resp, out := postJSON(t, ts1.URL+"/api/v1/campaigns?wait=true", req)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("campaign %s = %d: %v", which, resp.StatusCode, out)
		}
		var id, job string
		_ = json.Unmarshal(out["id"], &id)
		_ = json.Unmarshal(out["job"], &job)
		paths = append(paths, "/api/v1/campaigns/"+id, "/api/v1/campaigns/"+id+"/text", "/api/v1/jobs/"+job)
	}
	// A failed job: its campaign has records-only status, no report.
	resp, out := postJSON(t, ts1.URL+"/api/v1/campaigns", CampaignRequest{
		Project: DemoProjectID, Entry: "NoSuchEntry", Env: "plain", Specs: kvclient.CampaignBFaultload(),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("enqueue = %d: %v", resp.StatusCode, out)
	}
	var failed string
	_ = json.Unmarshal(out["job"], &failed)
	if st, _ := pollUntilTerminal(t, ts1.URL, failed); st.State != scheduler.Failed {
		t.Fatalf("job with a missing entry = %+v, want failed", st)
	}
	paths = append(paths, "/api/v1/jobs/"+failed, "/api/v1/campaigns/"+campaignIDFor(failed))

	before := map[string]string{}
	for _, p := range paths {
		code, body := getBody(t, ts1.URL+p)
		before[p] = jsonNum(int64(code)) + " " + body
	}
	if !strings.HasPrefix(before["/api/v1/campaigns/"+campaignIDFor(failed)], "404 ") {
		t.Errorf("failed campaign answered %.40s, want 404", before["/api/v1/campaigns/"+campaignIDFor(failed)])
	}
	ts1.Close()
	srv1.Close()

	_, ts2 := newAsyncTestServer(t, Options{Cores: 4, DataDir: dir})
	for _, p := range paths {
		code, body := getBody(t, ts2.URL+p)
		if got := jsonNum(int64(code)) + " " + body; got != before[p] {
			t.Errorf("GET %s changed across the restart:\n got %s\nwant %s", p, got, before[p])
		}
	}
}

// TestCampaignsListInCreationOrder: campaigns are numbered, so "camp-10"
// sorts before "camp-2" as a string. Store.List, GET /api/v1/campaigns
// and GET /api/v1/jobs must all say 1 … 12, in the process that ran them
// and in the next one, which has only the directory names to go by.
func TestCampaignsListInCreationOrder(t *testing.T) {
	dir := t.TempDir()
	var wantCamps, wantJobs []string
	for i := 1; i <= 12; i++ {
		wantCamps = append(wantCamps, "camp-"+jsonNum(int64(i)))
		wantJobs = append(wantJobs, jobIDFor(i))
	}
	check := func(when string, srv *Server, ts *httptest.Server) {
		t.Helper()
		var stored, listed, jobs []string
		for _, meta := range srv.Store().List() {
			stored = append(stored, meta.ID)
		}
		code, body := getBody(t, ts.URL+"/api/v1/campaigns")
		var list []CampaignSummary
		if code != http.StatusOK || json.Unmarshal([]byte(body), &list) != nil {
			t.Fatalf("%s: list = %d %s", when, code, body)
		}
		for _, c := range list {
			listed = append(listed, c.ID)
		}
		for _, st := range listJobs(t, ts.URL) {
			jobs = append(jobs, st.ID)
		}
		if !reflect.DeepEqual(stored, wantCamps) || !reflect.DeepEqual(listed, wantCamps) || !reflect.DeepEqual(jobs, wantJobs) {
			t.Errorf("%s:\n store %v\n   api %v\n  jobs %v\n  want camp-1 … camp-12 and job-1 … job-12", when, stored, listed, jobs)
		}
	}
	srv1, ts1 := newAsyncTestServer(t, Options{Cores: 2, Workers: 1, DataDir: dir})
	for range wantCamps {
		if st, _ := pollUntilTerminal(t, ts1.URL, submitDemo(t, ts1.URL, 1)); st.State != scheduler.Done {
			t.Fatalf("campaign ended %+v", st)
		}
	}
	check("before the restart", srv1, ts1)
	ts1.Close()
	srv1.Close()
	srv2, ts2 := newAsyncTestServer(t, Options{Cores: 2, Workers: 1, DataDir: dir})
	check("after the restart", srv2, ts2)
}

// TestMemoryOnlyAPIAgreesWithStore: without -data-dir the store keeps
// only the newest finished campaigns, and the API is exactly that
// window — a campaign is listed, reported, rendered and paged, or it is
// 404 everywhere.
func TestMemoryOnlyAPIAgreesWithStore(t *testing.T) {
	srv, ts := newAsyncTestServer(t, Options{Cores: 4})
	const retain, total = 3, 7
	srv.Store().SetRetainCampaigns(retain)
	for i := 0; i < total; i++ {
		runDemoCampaign(t, ts, 2, nil)
	}
	stored := map[string]bool{}
	var wantList []string
	for _, meta := range srv.Store().List() {
		stored[meta.ID] = true
		wantList = append(wantList, meta.ID)
	}
	if len(stored) == 0 || len(stored) >= total {
		t.Fatalf("store holds %d of %d campaigns: retention not in play", len(stored), total)
	}
	code, body := getBody(t, ts.URL+"/api/v1/campaigns")
	var list []CampaignSummary
	if code != http.StatusOK || json.Unmarshal([]byte(body), &list) != nil {
		t.Fatalf("list = %d %s", code, body)
	}
	var gotList []string
	for _, c := range list {
		gotList = append(gotList, c.ID)
	}
	sort.Strings(wantList)
	if !reflect.DeepEqual(gotList, wantList) {
		t.Errorf("GET /campaigns lists %v, store holds %v", gotList, wantList)
	}
	for i := 1; i <= total; i++ {
		id := "camp-" + jsonNum(int64(i))
		want := http.StatusNotFound
		if stored[id] {
			want = http.StatusOK
		}
		for _, suffix := range []string{"", "/text", "/records", "/stream"} {
			if code, _ := getBody(t, ts.URL+"/api/v1/campaigns/"+id+suffix); code != want {
				t.Errorf("GET /campaigns/%s%s = %d, want %d (stored=%v)", id, suffix, code, want, stored[id])
			}
		}
	}
}

// TestUnavailableCampaignIDFailsJobByName: the one way record
// persistence can refuse a campaign is its ID — here another writer
// owns it — and that fails the job with the ID in the error instead of
// running a campaign nobody could read back.
func TestUnavailableCampaignIDFailsJobByName(t *testing.T) {
	srv, ts := newAsyncTestServer(t, Options{Cores: 4})
	w, err := srv.Store().StartCampaign(resultstore.Meta{ID: "camp-1", Project: "squatter"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort(resultstore.StatusCanceled)
	st, _ := pollUntilTerminal(t, ts.URL, submitDemo(t, ts.URL, 3))
	if st.State != scheduler.Failed || !strings.Contains(st.Error, "camp-1") || !strings.Contains(st.Error, "already has a writer") {
		t.Fatalf("job = %+v, want failed naming camp-1 and its writer", st)
	}
}

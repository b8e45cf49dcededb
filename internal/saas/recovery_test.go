// Startup-recovery tests: the control plane write-ahead-journals every
// accepted campaign job, so a process that dies mid-flight (kill -9 —
// no shutdown hooks, no Finish, no terminal journal entry) leaves
// enough state for the next boot to re-admit the job: queued jobs re-run
// from scratch, running jobs resume from their stored records, and the
// final reports come out byte-identical to an uninterrupted run.
package saas

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"profipy/internal/analysis"
	"profipy/internal/kvclient"
	"profipy/internal/resultstore"
	"profipy/internal/scheduler"
)

// demoJournalPayload builds the write-ahead payload journalAccepted
// would have produced for a demo campaign A job.
func demoJournalPayload(t *testing.T, mutate func(*CampaignRequest)) json.RawMessage {
	t.Helper()
	req, err := DemoCampaignRequest("A", 101)
	if err != nil {
		t.Fatal(err)
	}
	req.SampleN = 6
	if mutate != nil {
		mutate(&req)
	}
	payload, err := json.Marshal(journaledJob{
		Request: req, Project: "python-etcd", Files: kvclient.Sources(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// withJSONKey returns the JSON object obj with key set to val.
func withJSONKey(t *testing.T, obj json.RawMessage, key string, val json.RawMessage) json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(obj, &m); err != nil {
		t.Fatal(err)
	}
	m[key] = val
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// withLegacyKeys rewrites a campaign request the way clients and
// daemons from before the execution knobs were removed wrote it: it
// carries "engine", "prefixFork", "shardWorkers" and an in-process
// "shards". The keys must be ignored, not rejected — the campaign runs
// on the local pool and forks wherever the Runner finds it worthwhile.
func withLegacyKeys(t *testing.T, req json.RawMessage) json.RawMessage {
	t.Helper()
	for key, val := range map[string]string{
		"engine": `"tree-walk"`, "prefixFork": `true`, "shards": `2`, "shardWorkers": `2`,
	} {
		req = withJSONKey(t, req, key, json.RawMessage(val))
	}
	return req
}

func recoveryCount(t *testing.T, srv *Server, outcome string) float64 {
	t.Helper()
	return srv.reg.CounterVec("profipy_recovery_jobs_total", "", "outcome").With(outcome).Value()
}

// sortedRecordLines canonicalizes a record set for comparison: one
// JSON line per record, sorted — stream order is scheduling-dependent,
// record bytes are not.
func sortedRecordLines(t *testing.T, recs []analysis.Record) []string {
	t.Helper()
	lines := make([]string, len(recs))
	for i, rec := range recs {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(data)
	}
	sort.Strings(lines)
	return lines
}

func marshalIndent(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRecoveryResumesMidFlightCampaign(t *testing.T) {
	// Golden: the same campaign run uninterrupted in its own store.
	_, goldenTS := newAsyncTestServer(t, Options{Cores: 4, DataDir: t.TempDir()})
	goldenID, goldenRep := runDemoCampaign(t, goldenTS, 6, nil)
	goldenRecs := pageRecords(t, goldenTS, goldenID, 5)
	n := len(goldenRecs)
	if n < 4 {
		t.Fatalf("golden campaign too small to interrupt meaningfully: %d records", n)
	}

	// Crash state: job-1 journaled queued→running, campaign camp-1 open
	// with the first k records appended, then the process dies — no
	// terminal journal entry, no Finish, no Close.
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The payload is an older daemon's: records must come out
	// byte-identical all the same.
	payload := demoJournalPayload(t, nil)
	var job struct{ Request json.RawMessage }
	if err := json.Unmarshal(payload, &job); err != nil {
		t.Fatal(err)
	}
	payload = withJSONKey(t, payload, "request", withLegacyKeys(t, job.Request))
	must := func(e resultstore.JournalEntry) {
		t.Helper()
		if err := store.AppendJournal(e); err != nil {
			t.Fatal(err)
		}
	}
	must(resultstore.JournalEntry{
		Job: "job-1", State: resultstore.JournalQueued,
		Campaign: "camp-1", Name: DemoProjectID, Payload: payload, TimeMS: 1,
	})
	must(resultstore.JournalEntry{Job: "job-1", State: resultstore.JournalRunning, Campaign: "camp-1", TimeMS: 2})
	w, err := store.StartCampaign(resultstore.Meta{ID: "camp-1", Project: DemoProjectID, Name: "python-etcd"})
	if err != nil {
		t.Fatal(err)
	}
	k := n / 2
	for _, rec := range goldenRecs[:k] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Finish/Close: the crash.

	srv, err := NewServerWithOptions(Options{Cores: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	st, ok := srv.job(srv.sched.Wait, "job-1")
	if !ok || st.State != scheduler.Done {
		t.Fatalf("recovered job = %+v", st)
	}
	if got := recoveryCount(t, srv, "resumed"); got != 1 {
		t.Fatalf("resumed count = %v, want 1", got)
	}
	if got := srv.reg.Counter("profipy_recovery_replayed_records_total", "").Value(); got != float64(k) {
		t.Fatalf("replayed records = %v, want %d", got, k)
	}
	// The legacy "shards"/"shardWorkers" keys selected nothing: the
	// missing experiments ran on the local pool.
	if got := srv.reg.CounterVec("profipy_executor_records_total", "", "executor").With("local").Value(); got != float64(n-k) {
		t.Fatalf("local executor delivered %v records, want the %d missing ones", got, n-k)
	}
	// Exactly n records: the k replayed ones were not re-executed and
	// not re-appended, the missing n-k executed once each.
	recs := pageRecords(t, ts, "camp-1", 5)
	if len(recs) != n {
		t.Fatalf("resumed campaign has %d records, want %d (re-executed indices append duplicates)", len(recs), n)
	}
	// Stream order differs legitimately (replayed records first, then
	// the missing ones in completion order); record content may not.
	if !reflect.DeepEqual(sortedRecordLines(t, recs), sortedRecordLines(t, goldenRecs)) {
		t.Fatal("resumed records differ from uninterrupted run")
	}
	// The final report is byte-identical to the uninterrupted run's.
	code, body := getBody(t, ts.URL+"/api/v1/campaigns/camp-1")
	if code != 200 {
		t.Fatalf("GET resumed campaign = %d: %s", code, body)
	}
	var gotRep analysis.Report
	if err := json.Unmarshal([]byte(body), &gotRep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalIndent(t, &gotRep), marshalIndent(t, goldenRep)) {
		t.Fatal("resumed report differs from uninterrupted run")
	}
	meta, _ := srv.Store().Get("camp-1")
	if meta.Status != resultstore.StatusDone {
		t.Fatalf("resumed campaign status = %q", meta.Status)
	}
	// The journal retired the job: another boot re-admits nothing.
	srv.Close()
	srv2, err := NewServerWithOptions(Options{Cores: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)
	if pend := srv2.Store().PendingJobs(); len(pend) != 0 {
		t.Fatalf("jobs still pending after clean finish: %+v", pend)
	}
	if got := recoveryCount(t, srv2, "resumed"); got != 0 {
		t.Fatalf("second boot resumed %v jobs", got)
	}
}

// TestRecoveryRequeuesQueuedJob: a job accepted but never started (the
// queued-at-crash case) re-runs from scratch after the restart and
// completes normally.
func TestRecoveryRequeuesQueuedJob(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AppendJournal(resultstore.JournalEntry{
		Job: "job-1", State: resultstore.JournalQueued,
		Campaign: "camp-1", Name: DemoProjectID,
		Payload: demoJournalPayload(t, nil), TimeMS: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServerWithOptions(Options{Cores: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	st, ok := srv.job(srv.sched.Wait, "job-1")
	if !ok || st.State != scheduler.Done {
		t.Fatalf("requeued job = %+v", st)
	}
	if got := recoveryCount(t, srv, "requeued"); got != 1 {
		t.Fatalf("requeued count = %v, want 1", got)
	}
	meta, ok := srv.Store().Get("camp-1")
	if !ok || meta.Status != resultstore.StatusDone {
		t.Fatalf("campaign of requeued job = %+v", meta)
	}
	// A fresh submission must not collide with the recovered job's ID.
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	id, _ := runDemoCampaign(t, ts, 4, nil)
	if id == "camp-1" {
		t.Fatalf("fresh campaign collided with recovered ID %s", id)
	}
}

// TestRecoveryAbandonsUnusablePayload: a journal entry whose payload
// cannot rebuild a campaign is marked failed — visible in job history,
// retired from the journal — instead of crash-looping every boot.
func TestRecoveryAbandonsUnusablePayload(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AppendJournal(resultstore.JournalEntry{
		Job: "job-1", State: resultstore.JournalQueued, Name: DemoProjectID,
		Payload: json.RawMessage(`{"request":{}}`), TimeMS: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServerWithOptions(Options{Cores: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if got := recoveryCount(t, srv, "abandoned"); got != 1 {
		t.Fatalf("abandoned count = %v, want 1", got)
	}
	st, ok := srv.job(srv.sched.Status, "job-1")
	if !ok || st.State != scheduler.Failed || st.Error == "" {
		t.Fatalf("abandoned job = %+v", st)
	}
	// Retired: the next boot has nothing pending.
	srv.Close()
	srv2, err := NewServerWithOptions(Options{Cores: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)
	if pend := srv2.Store().PendingJobs(); len(pend) != 0 {
		t.Fatalf("abandoned job still pending: %+v", pend)
	}
}

// TestCancelRecoveredJob: canceling a job right after recovery (racing
// its re-admission) terminates it cleanly and retires it from the
// journal, whether the cancel lands while it is still queued or already
// running.
func TestCancelRecoveredJob(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AppendJournal(resultstore.JournalEntry{
		Job: "job-1", State: resultstore.JournalQueued,
		Campaign: "camp-1", Name: DemoProjectID,
		// Long workload: the cancel below always lands mid-run.
		Payload: demoJournalPayload(t, func(r *CampaignRequest) { r.Rounds = 400 }),
		TimeMS:  1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServerWithOptions(Options{Cores: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if _, ok := srv.sched.Cancel("job-1"); !ok {
		t.Fatal("recovered job unknown to scheduler")
	}
	st, ok := srv.job(srv.sched.Wait, "job-1")
	if !ok || st.State != scheduler.Canceled {
		t.Fatalf("canceled recovered job = %+v", st)
	}
	// Canceled is terminal: the journal retires it, the next boot does
	// not resurrect the job.
	srv.Close()
	srv2, err := NewServerWithOptions(Options{Cores: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)
	if pend := srv2.Store().PendingJobs(); len(pend) != 0 {
		t.Fatalf("canceled job still pending: %+v", pend)
	}
	st2, ok := srv2.job(srv2.sched.Status, "job-1")
	if !ok || st2.State != scheduler.Canceled {
		t.Fatalf("job history after reboot = %+v", st2)
	}
}

// copyDataDir copies a data-directory fixture into a scratch directory
// (opening a data dir rewrites it), leaving out the expectation file
// kept next to it.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dst, "parent-jobs.json")); err != nil {
		t.Fatal(err)
	}
	return dst
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestLegacyDataDirMigrates opens testdata/legacy-datadir — written by
// the last version that kept two job logs, SIGKILLed with job-3 running
// (3 of 6 records stored) and job-4 queued; its jobs.jsonl holds a stale
// and a repeated snapshot and a torn tail (see docs/TESTING.md for how
// it was made). The history must list what that version listed
// (parent-jobs.json, its own /api/v1/jobs on the same directory), the
// pending jobs must be re-admitted, and jobs.jsonl must be gone for
// good.
func TestLegacyDataDirMigrates(t *testing.T) {
	fixture := filepath.Join("testdata", "legacy-datadir")
	dir := copyDataDir(t, fixture)
	var want []scheduler.Status
	if data, err := os.ReadFile(filepath.Join(fixture, "parent-jobs.json")); err != nil || json.Unmarshal(data, &want) != nil {
		t.Fatalf("parent-jobs.json: %v", err)
	}

	srv, ts := newAsyncTestServer(t, Options{Cores: 4, DataDir: dir})
	for _, id := range []string{"job-3", "job-4"} {
		if st, ok := srv.job(srv.sched.Wait, id); !ok || st.State != scheduler.Done {
			t.Fatalf("re-admitted %s = %+v", id, st)
		}
	}
	if resumed, requeued := recoveryCount(t, srv, "resumed"), recoveryCount(t, srv, "requeued"); resumed != 1 || requeued != 1 {
		t.Errorf("recovery resumed %v and requeued %v jobs, want 1 and 1", resumed, requeued)
	}
	if got := srv.reg.Counter("profipy_recovery_replayed_records_total", "").Value(); got != 3 {
		t.Errorf("replayed %v stored records into job-3, want 3", got)
	}
	code, jobsBody := getBody(t, ts.URL+"/api/v1/jobs")
	var got []scheduler.Status
	if code != 200 || json.Unmarshal([]byte(jobsBody), &got) != nil || len(got) != 4 {
		t.Fatalf("jobs = %d %s", code, jobsBody)
	}
	for i := range got[:2] {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("history entry %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	// The finished legacy campaign is served straight from its files.
	if code, body := getBody(t, ts.URL+"/api/v1/campaigns/camp-1"); code != 200 || !strings.Contains(body, `"total": 4`) {
		t.Errorf("legacy campaign = %d %s", code, body)
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"campaigns", "journal.jsonl"}) {
		t.Errorf("data dir holds %v, want campaigns and journal.jsonl only", names)
	}

	// A second open has nothing left to migrate or re-admit and lists
	// the same jobs, byte for byte.
	ts.Close()
	srv.Close()
	srv2, ts2 := newAsyncTestServer(t, Options{Cores: 4, DataDir: dir})
	if pend := srv2.Store().PendingJobs(); len(pend) != 0 {
		t.Errorf("second open still has pending jobs: %+v", pend)
	}
	if _, again := getBody(t, ts2.URL+"/api/v1/jobs"); again != jobsBody {
		t.Errorf("job list changed on the second open:\n got %s\nwant %s", again, jobsBody)
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"campaigns", "journal.jsonl"}) {
		t.Errorf("data dir holds %v after the second open", names)
	}
}

// TestRestoreSurvivesPoisonedSnapshots: the store hands snapshots back
// opaquely, so values corrupted in place (same JSON type, wrong
// content) reach the API's decoder: it must skip what is not the
// snapshot of the finished job it is filed under and keep the rest.
func TestRestoreSurvivesPoisonedSnapshots(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, snapshot := range []string{
		`{"id":"job-1","state":"done","campaign":"camp-1"}`,
		`{"id":7,"state":"done"}`,          // id changed type
		`{"state":"done"}`,                 // id gone
		`{"id":"job-4","state":"running"}`, // not a terminal state
		`{"id":"job-1","state":"failed"}`,  // claims another job's ID
		`{"id":"job-6","state":"canceled"}`,
	} {
		if err := store.AppendJournal(resultstore.JournalEntry{
			Job: jobIDFor(i + 1), State: resultstore.JournalDone, Snapshot: json.RawMessage(snapshot),
		}); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	_, ts := newAsyncTestServer(t, Options{Cores: 2, DataDir: dir})
	var ids []string
	for _, st := range listJobs(t, ts.URL) {
		ids = append(ids, st.ID+":"+string(st.State))
	}
	if want := []string{"job-1:done", "job-6:canceled"}; !reflect.DeepEqual(ids, want) {
		t.Errorf("listed jobs = %v, want %v", ids, want)
	}
	// The by-ID route reads the same snapshots through the same check.
	for id, want := range map[string]int{"job-1": 200, "job-2": 404, "job-4": 404, "job-5": 404, "job-6": 200} {
		if code, body := getBody(t, ts.URL+"/api/v1/jobs/"+id); code != want {
			t.Errorf("GET %s = %d %s, want %d", id, code, body, want)
		}
	}
}

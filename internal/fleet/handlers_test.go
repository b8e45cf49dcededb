package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"profipy/internal/obs"
	"profipy/internal/remote"
)

// served is a coordinator behind its own mux, with one worker holding
// the single shard [0,n) of campaign "camp".
type served struct {
	c     *Coordinator
	mux   *http.ServeMux
	job   *Job
	lease remote.Lease
	query string // the shard's campaign, shard and token
}

func serve(t testing.TB, reg *obs.Registry, n int) *served {
	t.Helper()
	ck := newClock()
	s := &served{c: New(Config{LeaseTTL: ttl, Reg: reg, now: ck.now}), mux: http.NewServeMux()}
	s.c.Mount(s.mux)
	s.job = startTestJob(s.c, "camp", n) // no worker live yet: one shard
	w := s.c.RegisterWorker(remote.RegisterRequest{})
	var ok bool
	if s.lease, ok = lease(s.c, w.ID); !ok {
		t.Fatal("no lease granted")
	}
	s.query = fmt.Sprintf("/api/v1/workers/%s/%%s?campaign=camp&shard=%d&token=%s", w.ID, s.lease.Shard, s.lease.Token)
	return s
}

func (s *served) post(route string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, fmt.Sprintf(s.query, route), body))
	return rec
}

func ndjson(t testing.TB, lines ...remote.RecordLine) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ln := range lines {
		if err := enc.Encode(ln); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

// TestCompleteCarriesRecordsAndNextLease: the completion's body is
// ingested before the shard is marked done, and the answer is the
// worker's next lease — or 204 when nothing is pending.
func TestCompleteCarriesRecordsAndNextLease(t *testing.T) {
	reg := obs.NewRegistry()
	s := serve(t, reg, 2)
	startTestJob(s.c, "next", 1)

	resp := s.post("complete", ndjson(t, remote.RecordLine{Idx: 0, Rec: rec(0)}, remote.RecordLine{Idx: 1, Rec: rec(1)}))
	if resp.Code != http.StatusOK {
		t.Fatalf("complete = %d %s, want 200 with the next lease", resp.Code, resp.Body)
	}
	var next remote.Lease
	if err := json.Unmarshal(resp.Body.Bytes(), &next); err != nil || next.Campaign != "next" || next.Token == "" {
		t.Fatalf("next lease = %+v (%v)", next, err)
	}
	got := 0
	for range s.job.Deliveries() { // closed: the two records were the job's last
		got++
	}
	if got != 2 {
		t.Fatalf("job delivered %d records, want the completion's 2", got)
	}
	if again := s.post("complete", nil); again.Code != http.StatusGone {
		t.Errorf("second complete under the same token = %d, want 410", again.Code)
	}
	// Records under the spent token are refused as stale, not ingested
	// (nor counted as duplicates).
	if late := s.post("records", ndjson(t, remote.RecordLine{Idx: 0, Rec: rec(0)})); late.Code != http.StatusGone {
		t.Errorf("records under a stale token = %d, want 410", late.Code)
	}
	for name, want := range map[string]float64{
		"profipy_fleet_records_ingested_total": 2, "profipy_fleet_records_duplicate_total": 0, "profipy_fleet_records_stale_total": 1,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %v after a stale records post, want %v", name, got, want)
		}
	}
	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape.String(), "profipy_fleet_shard_seconds_count 1\n") {
		t.Errorf("shard_seconds did not observe exactly 1 shard:\n%s", scrape.String())
	}

	// The next shard's completion finds nothing pending: 204.
	s.query = strings.Replace(strings.Replace(s.query, "campaign=camp", "campaign=next", 1), s.lease.Token, next.Token, 1)
	if last := s.post("complete", nil); last.Code != http.StatusNoContent {
		t.Errorf("complete with an empty queue = %d, want 204", last.Code)
	}
}

// TestSpecElidesHeldFiles: a worker that names the spec's project among
// the digests it holds gets the spec without the files.
func TestSpecElidesHeldFiles(t *testing.T) {
	c, _ := newTestCoordinator()
	c.StartJob("camp", remote.CampaignSpec{
		Name: "camp", Files: map[string][]byte{"a.go": []byte("package a")}, ProjectDigest: "d1",
	}, 1)
	mux := http.NewServeMux()
	c.Mount(mux)
	for query, wantFiles := range map[string]int{"": 1, "?have=zz": 1, "?have=zz&have=d1": 0} {
		resp := httptest.NewRecorder()
		mux.ServeHTTP(resp, httptest.NewRequest(http.MethodGet, "/api/v1/workers/campaigns/camp/spec"+query, nil))
		var spec remote.CampaignSpec
		if err := json.Unmarshal(resp.Body.Bytes(), &spec); err != nil || spec.ProjectDigest != "d1" || len(spec.Files) != wantFiles {
			t.Errorf("spec%s: %d files, digest %q (%v); want %d files", query, len(spec.Files), spec.ProjectDigest, err, wantFiles)
		}
	}
}

// TestWorkerBodiesAreBounded: register, records and complete refuse a
// body over 16 MiB with 413 and count it; the lease survives.
func TestWorkerBodiesAreBounded(t *testing.T) {
	reg := obs.NewRegistry()
	s := serve(t, reg, 2)
	huge := func() io.Reader {
		return io.MultiReader(strings.NewReader(`{"idx":0,"kind":"`), io.LimitReader(zeros{}, maxBody))
	}
	for _, route := range []string{"records", "complete"} {
		if resp := s.post(route, huge()); resp.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a body over the bound = %d, want 413", route, resp.Code)
		}
	}
	resp := httptest.NewRecorder()
	s.mux.ServeHTTP(resp, httptest.NewRequest(http.MethodPost, "/api/v1/workers", huge()))
	if resp.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("register with a body over the bound = %d, want 413", resp.Code)
	}
	if bad := s.post("records", strings.NewReader("{not json}\n")); bad.Code != http.StatusBadRequest {
		t.Errorf("malformed record line = %d, want 400", bad.Code)
	}
	rejected := reg.CounterVec("profipy_fleet_requests_rejected_total", "", "reason")
	if rejected.With("too_large").Value() != 3 || rejected.With("malformed").Value() != 1 {
		t.Errorf("requests_rejected_total: too_large=%v malformed=%v, want 3 and 1",
			rejected.With("too_large").Value(), rejected.With("malformed").Value())
	}
	if ok := s.post("complete", ndjson(t, remote.RecordLine{Idx: 0, Rec: rec(0)})); ok.Code != http.StatusNoContent {
		t.Errorf("complete after the refusals = %d, want 204: a refused body must not cost the lease", ok.Code)
	}
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// FuzzRecordsBody throws arbitrary bytes at the two routes that decode a
// worker's record stream. Whatever the body, the answer is a 2xx (with
// per-index deduplication) or a 4xx — never a panic —, and what reaches
// the job's consumer is each plan index below n at most once.
func FuzzRecordsBody(f *testing.F) {
	line := func(idx int) string {
		data, _ := json.Marshal(remote.RecordLine{Idx: idx, Kind: remote.KindMutated, Rec: rec(idx)})
		return string(data) + "\n"
	}
	f.Add(false, []byte(line(0)+line(1)))
	f.Add(true, []byte(line(2)+line(2)+"\n\n"+line(3)))
	f.Add(true, []byte(line(-1)+line(4)+line(1<<40)))
	f.Add(false, []byte(`{"idx":1,"rec":{"point":{"line":"x"}}}`+"\n"))
	f.Add(true, []byte(`{"idx":0}`+"\n"+`[1,2]`+"\n"))
	f.Add(false, []byte("\x00\xff{\n"))
	f.Fuzz(func(t *testing.T, complete bool, body []byte) {
		const n = 4
		s := serve(t, nil, n)
		route := "records"
		if complete {
			route = "complete"
		}
		// The body twice: the second delivery of every index is a duplicate.
		for i := 0; i < 2; i++ {
			code := s.post(route, bytes.NewReader(body)).Code
			if code/100 != 2 && code/100 != 4 {
				t.Fatalf("%s answered %d", route, code)
			}
		}
		s.c.CloseJob("camp")
		seen := make(map[int]bool)
		for len(s.job.deliveries) > 0 {
			d := <-s.job.deliveries
			if d.Idx < 0 || d.Idx >= n || seen[d.Idx] {
				t.Fatalf("delivered index %d (n=%d, seen before: %v)", d.Idx, n, seen[d.Idx])
			}
			seen[d.Idx] = true
		}
	})
}

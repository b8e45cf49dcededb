package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"profipy/internal/saas"
	"profipy/internal/worker"
)

// Fleet shape of mix.remote2: two agents, one experiment at a time each.
const (
	fleetAgents   = 2
	fleetParallel = 1
	// fleetPoll is the idle lease-poll interval of the bench agents. The
	// control plane suggests 500 ms, which would make a 30 ms campaign
	// wait mostly for the next poll; the repo's own fleet tests poll at
	// 5 ms, and so does the benchmark.
	fleetPoll = 5 * time.Millisecond
	// jobPoll is the client's job-state poll interval.
	jobPoll = time.Millisecond
	// opDeadline bounds one campaign end to end, so a failed or hung job
	// counts as a failure instead of hanging the run.
	opDeadline = 60 * time.Second
)

// service is the system under test: an in-process profipyd (journal and
// fsync'd store on, as in the smoke scripts) behind a real loopback HTTP
// listener, plus the optional two-agent worker fleet.
type service struct {
	srv *saas.Server
	ts  *httptest.Server
	hc  *http.Client

	stopFleet context.CancelFunc
	fleetWG   sync.WaitGroup
}

// bootService starts the server sized from nproc: Cores = nproc+1 gives
// nproc parallel experiments under the N−1 rule; one scheduler worker,
// because the single closed-loop client never has two campaigns in
// flight. wrap, when non-nil, is the traced run's HTTP middleware.
func bootService(dataDir string, nproc int, fleet bool, wrap func(http.Handler) http.Handler) (*service, error) {
	srv, err := saas.NewServerWithOptions(saas.Options{Cores: nproc + 1, Workers: 1, DataDir: dataDir})
	if err != nil {
		return nil, fmt.Errorf("boot server: %w", err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &service{srv: srv, ts: httptest.NewServer(h)}
	// One client goroutine issues one request at a time; two idle
	// connections cover the submit/poll connection and the stream one.
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConns: 2, MaxIdleConnsPerHost: 2}}
	if fleet {
		if err := s.startFleet(); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *service) startFleet() error {
	ctx, cancel := context.WithCancel(context.Background())
	s.stopFleet = cancel
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	for i := 0; i < fleetAgents; i++ {
		ag := worker.New(worker.Config{
			Server: s.ts.URL, Name: fmt.Sprintf("bench-w%d", i),
			Parallel: fleetParallel, Poll: fleetPoll, Log: quiet,
		})
		s.fleetWG.Add(1)
		go func() {
			defer s.fleetWG.Done()
			_ = ag.Run(ctx) // returns ctx.Err() on stop
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var workers []json.RawMessage
		if err := s.getJSON("/api/v1/workers", &workers); err != nil {
			return err
		}
		if len(workers) >= fleetAgents {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d/%d workers registered", len(workers), fleetAgents)
		}
		time.Sleep(jobPoll)
	}
}

// close stops the fleet, the listener and the server, in that order, and
// waits for each.
func (s *service) close() {
	if s.stopFleet != nil {
		s.stopFleet()
		s.fleetWG.Wait()
	}
	s.hc.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

func (s *service) getJSON(path string, out any) error {
	resp, err := s.hc.Get(s.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (s *service) postJSON(path string, body []byte, want int, out any) error {
	resp, err := s.hc.Post(s.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// scrapeMetrics reads GET /metrics: every sample line as name (with its
// label set) → value, plus the body size.
func (s *service) scrapeMetrics() (map[string]float64, int, error) {
	resp, err := s.hc.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			out[name], _ = strconv.ParseFloat(val, 64)
		}
	}
	return out, len(body), nil
}

// uploadProject registers a project and returns its ID.
func (s *service) uploadProject(name string, files map[string][]byte) (string, error) {
	text := make(map[string]string, len(files))
	for n, d := range files {
		text[n] = string(d)
	}
	body, err := json.Marshal(map[string]any{"name": name, "files": text})
	if err != nil {
		return "", err
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := s.postJSON("/api/v1/projects", body, http.StatusCreated, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// jobView is what the client reads of GET /api/v1/jobs/{id}.
type jobView struct {
	State       string           `json:"state"`
	Campaign    string           `json:"campaign"`
	Error       string           `json:"error"`
	PhaseMillis map[string]int64 `json:"phaseMillis"`
	EnqueuedMS  int64            `json:"enqueuedMs"`
	StartedMS   int64            `json:"startedMs"`
}

// awaitJob polls the job until ready(job) or a terminal failure state or
// the deadline.
func (s *service) awaitJob(id string, deadline time.Time, ready func(jobView) bool) (jobView, error) {
	for {
		var j jobView
		if err := s.getJSON("/api/v1/jobs/"+id, &j); err != nil {
			return j, err
		}
		switch {
		case ready(j):
			return j, nil
		case j.State == "failed" || j.State == "canceled":
			return j, fmt.Errorf("job %s %s: %s", id, j.State, j.Error)
		case time.Now().After(deadline):
			return j, fmt.Errorf("job %s: deadline exceeded in state %q", id, j.State)
		}
		time.Sleep(jobPoll)
	}
}

// campaignRun is what one submit→stream→report round trip observed.
type campaignRun struct {
	id         string
	lines      [][]byte
	first      time.Duration // submit → first streamed record
	turnaround time.Duration // submit → end of stream
	job        jobView       // terminal job view (phaseMillis, queue wait)
}

// runCampaign drives one campaign the way a user would: submit, follow
// the live record stream to its end, then fetch the report. It returns
// an error for anything short of a done job with a readable report;
// record contents are checked by the caller.
func (s *service) runCampaign(body []byte) (campaignRun, error) {
	var run campaignRun
	t0 := time.Now()
	deadline := t0.Add(opDeadline)
	var sub struct {
		Job string `json:"job"`
	}
	if err := s.postJSON("/api/v1/campaigns", body, http.StatusAccepted, &sub); err != nil {
		return run, err
	}
	// The job names its campaign as soon as the record stream exists.
	j, err := s.awaitJob(sub.Job, deadline, func(j jobView) bool { return j.Campaign != "" })
	if err != nil {
		return run, err
	}
	run.id = j.Campaign

	resp, err := s.hc.Get(s.ts.URL + "/api/v1/campaigns/" + run.id + "/stream")
	if err != nil {
		return run, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return run, fmt.Errorf("stream %s: status %d", run.id, resp.StatusCode)
	}
	// A stalled stream must not hang the run: closing the body at the
	// deadline fails the read below.
	watchdog := time.AfterFunc(time.Until(deadline), func() { resp.Body.Close() })
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, rerr := rd.ReadBytes('\n')
		if len(line) > 1 {
			if len(run.lines) == 0 {
				run.first = time.Since(t0)
			}
			run.lines = append(run.lines, bytes.TrimRight(line, "\n"))
		}
		if rerr != nil {
			if rerr != io.EOF {
				err = fmt.Errorf("stream %s: %w", run.id, rerr)
			}
			break
		}
	}
	run.turnaround = time.Since(t0)
	watchdog.Stop()
	resp.Body.Close()
	if err != nil {
		return run, err
	}

	run.job, err = s.awaitJob(sub.Job, deadline, func(j jobView) bool { return j.State == "done" })
	if err != nil {
		return run, err
	}
	var report struct {
		Total int `json:"total"`
	}
	if err := s.getJSON("/api/v1/campaigns/"+run.id, &report); err != nil {
		return run, err
	}
	if report.Total != len(run.lines) {
		return run, fmt.Errorf("campaign %s: report counts %d experiments, stream delivered %d", run.id, report.Total, len(run.lines))
	}
	return run, nil
}

// canonicalDigest hashes a record set independently of arrival order:
// the compact JSON lines are sorted bytewise and hashed with a newline
// after each. Streams (completion order), library results (plan order)
// and golden fixtures (indented arrays) all reduce to the same digest
// exactly when their records are byte-identical.
func canonicalDigest(lines [][]byte) [sha256.Size]byte {
	sorted := append([][]byte(nil), lines...)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	h := sha256.New()
	for _, ln := range sorted {
		h.Write(ln)
		h.Write([]byte{'\n'})
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// compactArray splits a JSON array of records (a golden fixture, or the
// marshalled library result) into compact per-record lines.
func compactArray(data []byte) ([][]byte, error) {
	var raws []json.RawMessage
	if err := json.Unmarshal(data, &raws); err != nil {
		return nil, err
	}
	lines := make([][]byte, len(raws))
	for i, raw := range raws {
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			return nil, err
		}
		lines[i] = buf.Bytes()
	}
	return lines, nil
}

// Package worker implements the remote execution agent: a process that
// registers with a profipyd control plane, heartbeats, pulls shard
// leases, rebuilds the leased campaign's execution context from its
// serialized spec and streams experiment records back over HTTP.
//
// The agent is stateless across shards — everything it needs arrives
// in the campaign spec, and everything it produces is idempotent on
// the control-plane side (records dedupe by plan index, completions
// are fenced by lease tokens). Killing a worker at any instant
// therefore costs only time: the lease expires, the shard is
// re-dispatched and the replacement regenerates byte-identical
// records, because experiment seeds derive from plan indices.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/backoff"
	"profipy/internal/campaign"
	"profipy/internal/executor"
	"profipy/internal/kvclient"
	"profipy/internal/remote"
)

// Config parameterises an agent.
type Config struct {
	// Server is the control plane's base URL (e.g. http://host:8080).
	Server string
	// Name labels the worker in the control plane's listing.
	Name string
	// Parallel bounds concurrent experiments within a shard (<1 = 1).
	Parallel int
	// BatchSize is the number of records per ingest batch (<1 = 8).
	BatchSize int
	// Poll overrides the control plane's suggested lease-poll interval
	// (0 keeps the suggestion).
	Poll time.Duration
	// HTTPClient overrides the transport (tests inject
	// httptest clients); nil uses a client with sane timeouts.
	HTTPClient *http.Client
	// Log receives worker lifecycle events; nil uses slog.Default.
	Log *slog.Logger

	// KillAfterRecords is a chaos test hook: after this many records
	// have been produced, the agent "dies" — it stops heartbeating,
	// abandons its shard without completing it and returns ErrKilled.
	// 0 disables the hook.
	KillAfterRecords int
}

// ErrKilled is returned by Run when the KillAfterRecords chaos hook
// fired.
var ErrKilled = errors.New("worker: killed by chaos hook")

// transport attempts for record batches and registration.
const sendAttempts = 4

// Agent is one remote execution worker.
type Agent struct {
	cfg  Config
	hc   *http.Client
	log  *slog.Logger
	id   string
	hb   time.Duration
	poll time.Duration

	// runners caches the rebuilt execution context of the most recently
	// leased campaigns (least recent first), so a worker holding several
	// shards of one campaign scans, compiles and verifies the plan once.
	// Only the serve loop touches it.
	runners []cachedRunner

	produced atomic.Int64
	killed   atomic.Bool
}

type cachedRunner struct {
	campaign string
	runner   *campaign.Runner
}

// maxCachedRunners bounds Agent.runners. A Runner pins its campaign's
// sources, parse cache and compiled program family (megabytes), and a
// long-lived worker sees an unbounded stream of campaigns; the control
// plane interleaves shards of only a few at a time, so a handful of
// entries keeps the hit rate while an evicted campaign that is leased
// again simply rebuilds its Runner.
const maxCachedRunners = 4

// New builds an agent.
func New(cfg Config) *Agent {
	if cfg.Parallel < 1 {
		cfg.Parallel = 1
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 8
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	log := cfg.Log
	if log == nil {
		log = slog.Default()
	}
	return &Agent{cfg: cfg, hc: hc, log: log}
}

// ID returns the control-plane-assigned worker ID (empty before Run
// registered).
func (a *Agent) ID() string { return a.id }

// Run registers the agent and serves leases until ctx is canceled (or
// the chaos hook kills it). Transient transport errors retry with
// exponential backoff; a control plane that restarted (unknown worker)
// triggers re-registration.
func (a *Agent) Run(ctx context.Context) error {
	if err := a.register(ctx); err != nil {
		return err
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go a.heartbeatLoop(hbCtx)

	for attempt := 0; ; {
		if err := ctx.Err(); err != nil {
			return err
		}
		if a.dead() {
			return ErrKilled
		}
		lease, ok, err := a.lease(ctx)
		if err != nil {
			if !backoff.Sleep(ctx, attempt, 200*time.Millisecond, 5*time.Second, 0.2, nil) {
				return ctx.Err()
			}
			attempt++
			continue
		}
		attempt = 0
		if !ok {
			// Idle: nothing pending anywhere; poll again shortly.
			t := time.NewTimer(a.poll)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
			continue
		}
		if err := a.executeLease(ctx, lease); err != nil {
			if errors.Is(err, ErrKilled) {
				stopHB()
				return err
			}
			a.log.Warn("worker: shard failed", "campaign", lease.Campaign,
				"shard", lease.Shard, "err", err)
		}
	}
}

// dead reports whether the chaos hook has fired.
func (a *Agent) dead() bool {
	return a.killed.Load() ||
		(a.cfg.KillAfterRecords > 0 && int(a.produced.Load()) >= a.cfg.KillAfterRecords)
}

func (a *Agent) register(ctx context.Context) error {
	req := remote.RegisterRequest{Name: a.cfg.Name, Parallel: a.cfg.Parallel}
	var resp remote.RegisterResponse
	var lastErr error
	for attempt := 0; attempt < sendAttempts; attempt++ {
		if lastErr != nil && !backoff.Sleep(ctx, attempt-1, 200*time.Millisecond, 5*time.Second, 0.2, nil) {
			return ctx.Err()
		}
		lastErr = a.postJSON(ctx, "/api/v1/workers", req, &resp)
		if lastErr == nil {
			a.id = resp.ID
			a.hb = time.Duration(resp.HeartbeatMS) * time.Millisecond
			if a.hb <= 0 {
				a.hb = 5 * time.Second
			}
			a.poll = time.Duration(resp.PollMS) * time.Millisecond
			if a.cfg.Poll > 0 {
				a.poll = a.cfg.Poll
			}
			if a.poll <= 0 {
				a.poll = 500 * time.Millisecond
			}
			a.log.Info("worker: registered", "id", a.id, "server", a.cfg.Server)
			return nil
		}
	}
	return fmt.Errorf("worker: register: %w", lastErr)
}

// heartbeatLoop renews the worker's liveness (and thereby its lease
// expiries) until canceled. A 410 means the control plane forgot us
// (restart): re-register under the same agent.
func (a *Agent) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(a.hb)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if a.dead() {
			// Chaos hook: a dead worker stops heartbeating, which is
			// exactly how the control plane finds out.
			return
		}
		status, err := a.post(ctx, "/api/v1/workers/"+a.id+"/heartbeat", "", nil, nil)
		if err != nil {
			a.log.Warn("worker: heartbeat failed", "err", err)
			continue
		}
		if status == http.StatusGone {
			if err := a.register(ctx); err != nil {
				a.log.Warn("worker: re-register failed", "err", err)
			}
		}
	}
}

// lease polls the control plane for a shard lease.
func (a *Agent) lease(ctx context.Context) (remote.Lease, bool, error) {
	var lease remote.Lease
	status, err := a.post(ctx, "/api/v1/workers/"+a.id+"/lease", "", nil, &lease)
	if err != nil {
		return lease, false, err
	}
	switch status {
	case http.StatusOK:
		return lease, true, nil
	case http.StatusNoContent:
		return lease, false, nil
	case http.StatusGone:
		return lease, false, a.register(ctx)
	default:
		return lease, false, fmt.Errorf("worker: lease: unexpected status %d", status)
	}
}

// runnerFor rebuilds (or returns the cached) execution context for a
// campaign and verifies its plan matches the control plane's.
func (a *Agent) runnerFor(ctx context.Context, lease remote.Lease) (*campaign.Runner, error) {
	for i, cr := range a.runners {
		if cr.campaign == lease.Campaign {
			// Hit: move to the most-recent end.
			copy(a.runners[i:], a.runners[i+1:])
			a.runners[len(a.runners)-1] = cr
			return cr.runner, nil
		}
	}
	r, err := a.buildRunner(ctx, lease)
	if err != nil {
		// Don't cache failures: a transient spec-fetch error would
		// otherwise poison the campaign on this worker forever. The
		// failed shard stays leased until its TTL expires, so rebuild
		// attempts are naturally paced.
		return nil, err
	}
	a.cacheRunner(lease.Campaign, r)
	return r, nil
}

// cacheRunner records a freshly built Runner as most recent, evicting
// the least recently leased campaign beyond maxCachedRunners.
func (a *Agent) cacheRunner(campaignID string, r *campaign.Runner) {
	if len(a.runners) == maxCachedRunners {
		copy(a.runners, a.runners[1:])
		a.runners = a.runners[:maxCachedRunners-1]
	}
	a.runners = append(a.runners, cachedRunner{campaignID, r})
}

func (a *Agent) buildRunner(ctx context.Context, lease remote.Lease) (*campaign.Runner, error) {
	var spec remote.CampaignSpec
	status, err := a.post(ctx, "/api/v1/workers/campaigns/"+url.PathEscape(lease.Campaign)+"/spec", "GET", nil, &spec)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("worker: spec fetch: status %d", status)
	}
	c, err := kvclient.CampaignFromSpec(spec, a.cfg.Parallel+1)
	if err != nil {
		return nil, fmt.Errorf("worker: campaign %s: %w", lease.Campaign, err)
	}
	runner, err := campaign.NewRunner(c, spec.Covered)
	if err != nil {
		return nil, err
	}
	// Refuse to execute against a divergent plan: if the locally
	// derived exec points differ from the control plane's, shard
	// indices would name different experiments.
	if got := remote.PlanHash(runner.Points()); got != spec.PlanHash || runner.Len() != spec.NumExperiments {
		return nil, fmt.Errorf("worker: campaign %s: plan diverged (have %d points, hash %.8s, want %d, %.8s)",
			lease.Campaign, runner.Len(), got, spec.NumExperiments, spec.PlanHash)
	}
	return runner, nil
}

// executeLease runs the leased shard [Lo, Hi) and streams its records
// back in batches. Stale-lease responses abandon the shard silently —
// its new owner regenerates the records.
func (a *Agent) executeLease(ctx context.Context, lease remote.Lease) error {
	runner, err := a.runnerFor(ctx, lease)
	if err != nil {
		return err
	}
	n := lease.Hi - lease.Lo
	if lease.Lo < 0 || lease.Hi > runner.Len() || n <= 0 {
		return fmt.Errorf("worker: lease %s/%d: bad range [%d,%d)", lease.Campaign, lease.Shard, lease.Lo, lease.Hi)
	}
	a.log.Info("worker: executing shard", "campaign", lease.Campaign,
		"shard", lease.Shard, "lo", lease.Lo, "hi", lease.Hi)

	// Kinds and fork outcomes are written per-index by the pool worker
	// that ran the experiment and read by the sink, which that same
	// worker calls with the record.
	kinds, forks := make([]string, n), make([]string, n)
	exp := func(i int) analysis.Record {
		rec, kind, fork := runner.ExperimentDetail(lease.Lo + i)
		kinds[i], forks[i] = kind, fork
		return rec
	}

	var batch []remote.RecordLine
	abandoned := false
	flush := func() {
		if abandoned || a.dead() || len(batch) == 0 {
			batch = nil
			return
		}
		if err := a.sendBatch(ctx, lease, batch); err != nil {
			a.log.Warn("worker: abandoning shard", "campaign", lease.Campaign,
				"shard", lease.Shard, "err", err)
			abandoned = true
		}
		batch = nil
	}
	sink := executor.SinkFunc(func(idx int, rec analysis.Record) {
		if a.dead() {
			return
		}
		batch = append(batch, remote.RecordLine{Idx: lease.Lo + idx, Kind: kinds[idx], Fork: forks[idx], Rec: rec})
		a.produced.Add(1)
		if len(batch) >= a.cfg.BatchSize {
			flush()
		}
	})
	local := executor.Local{Workers: a.cfg.Parallel}
	if err := local.Run(ctx, n, exp, sink); err != nil {
		return err
	}
	flush()
	if a.dead() {
		a.killed.Store(true)
		return ErrKilled
	}
	if abandoned {
		return fmt.Errorf("worker: shard %s/%d abandoned (stale lease or control plane unreachable)", lease.Campaign, lease.Shard)
	}
	status, err := a.post(ctx, "/api/v1/workers/"+a.id+"/complete", "",
		remote.CompleteRequest{Campaign: lease.Campaign, Shard: lease.Shard, Token: lease.Token}, nil)
	if err != nil {
		return err
	}
	if status == http.StatusGone {
		a.log.Warn("worker: completion rejected (lease expired)", "campaign", lease.Campaign, "shard", lease.Shard)
	}
	return nil
}

// sendBatch posts one NDJSON record batch, retrying transient errors
// with backoff. A 410 (stale token) is terminal: the lease moved on.
func (a *Agent) sendBatch(ctx context.Context, lease remote.Lease, batch []remote.RecordLine) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ln := range batch {
		if err := enc.Encode(ln); err != nil {
			return err
		}
	}
	dst := fmt.Sprintf("%s/api/v1/workers/%s/records?campaign=%s&shard=%d&token=%s",
		a.cfg.Server, a.id, url.QueryEscape(lease.Campaign), lease.Shard, lease.Token)
	var lastErr error
	for attempt := 0; attempt < sendAttempts; attempt++ {
		if lastErr != nil && !backoff.Sleep(ctx, attempt-1, 100*time.Millisecond, 2*time.Second, 0.2, nil) {
			return ctx.Err()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, dst, bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := a.hc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted:
			return nil
		case resp.StatusCode == http.StatusGone:
			return fmt.Errorf("worker: stale lease: %s", bytes.TrimSpace(body))
		default:
			lastErr = fmt.Errorf("worker: ingest status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
	}
	return lastErr
}

// postJSON posts v and decodes a 200 JSON response into out.
func (a *Agent) postJSON(ctx context.Context, path string, v, out any) error {
	status, err := a.post(ctx, path, "", v, out)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("worker: %s: status %d", path, status)
	}
	return nil
}

// post issues one request (method defaults to POST) with an optional
// JSON body, decoding any JSON response into out. Returns the status
// code; non-2xx statuses are returned, not errors, so callers can
// branch on protocol signals like 410.
func (a *Agent) post(ctx context.Context, path, method string, v, out any) (int, error) {
	if method == "" {
		method = http.MethodPost
	}
	var body io.Reader
	if v != nil {
		data, err := json.Marshal(v)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, a.cfg.Server+path, body)
	if err != nil {
		return 0, err
	}
	if v != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
		return resp.StatusCode, nil
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode, nil
}

// Package worker implements the remote execution agent: a process that
// registers with a profipyd control plane, heartbeats, pulls shard
// leases, rebuilds the leased campaign's execution context from its
// serialized spec and streams experiment records back over HTTP.
//
// The agent keeps nothing the control plane depends on — everything it
// needs arrives in the campaign spec (what it retains between shards,
// Runners and prepared projects, only saves rebuilding them), and
// everything it produces is idempotent on the control-plane side
// (records dedupe by plan index, completions are fenced by lease
// tokens). Killing a worker at any instant therefore costs only time:
// the lease expires, the shard is re-dispatched and the replacement
// regenerates byte-identical records, because experiment seeds derive
// from plan indices.
//
// A shard costs one exchange: its last records travel with its
// completion, whose answer is the next lease. Only an idle worker asks
// for leases, and the control plane holds that request for the idle
// interval instead of the worker sleeping it.
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
	"sync"
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
	// Poll overrides how long the control plane may hold this worker's
	// idle lease request before answering "no work" (0 keeps the control
	// plane's suggestion). It is the idle request cadence.
	Poll time.Duration
	// HTTPClient overrides the transport (tests inject httptest
	// clients); nil uses a client without a timeout of its own — every
	// request carries a deadline, requestTimeout past any wait it asks
	// the control plane for.
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

// errStale is a 410 on records or complete: the lease moved on, its new
// owner regenerates the records. Not a failure of this worker.
var errStale = errors.New("worker: stale lease")

// transport attempts for record batches and registration.
const sendAttempts = 4

// requestTimeout bounds one HTTP exchange, not counting the wait a
// lease request asks the control plane for.
const requestTimeout = 30 * time.Second

// Agent is one remote execution worker.
type Agent struct {
	cfg Config
	hc  *http.Client
	log *slog.Logger

	// mu guards what registration assigns: the serve loop and the
	// heartbeat loop both re-register on a 410.
	mu   sync.Mutex
	id   string
	hb   time.Duration
	poll time.Duration

	// prepared keeps the parsed and compiled projects of recent
	// campaigns: the next campaign over the same files is fetched
	// without them and built without parsing or compiling.
	prepared *campaign.PreparedSet

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
		hc = &http.Client{}
	}
	log := cfg.Log
	if log == nil {
		log = slog.Default()
	}
	return &Agent{cfg: cfg, hc: hc, log: log, prepared: new(campaign.PreparedSet)}
}

// ID returns the control-plane-assigned worker ID (empty before Run
// registered).
func (a *Agent) ID() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.id
}

// Run registers the agent and serves leases until ctx is canceled (or
// the chaos hook kills it). Transient transport errors and failed
// shards retry with exponential backoff; a control plane that restarted
// (unknown worker) triggers re-registration.
func (a *Agent) Run(ctx context.Context) error {
	if err := a.register(ctx, ""); err != nil {
		return err
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go a.heartbeatLoop(hbCtx)

	// lease is the shard to run next, once held: granted to an idle
	// request, or carried by the answer to the last completion.
	var lease remote.Lease
	held := false
	for attempt := 0; ; {
		if err := ctx.Err(); err != nil {
			return err
		}
		if a.dead() {
			return ErrKilled
		}
		var err error
		if !held {
			lease, held, err = a.lease(ctx)
		} else if lease, held, err = a.executeLease(ctx, lease); errors.Is(err, ErrKilled) {
			stopHB()
			return err
		}
		if err == nil {
			attempt = 0
			continue
		}
		// An unreachable control plane and a shard that failed are paced
		// alike: the control plane re-grants a failed shard the moment
		// this worker asks again, so one that fails every time must not
		// ask at once.
		held = false
		if !backoff.Sleep(ctx, attempt, 200*time.Millisecond, 5*time.Second, 0.2, nil) {
			return ctx.Err()
		}
		attempt++
	}
}

// shardLog is the logger of one shard's lines: spec fetch, prepare,
// execution and failure grep out of a worker's log by lease token.
func (a *Agent) shardLog(lease remote.Lease) *slog.Logger {
	return a.log.With("campaign", lease.Campaign, "shard", lease.Shard, "lease", lease.Token)
}

// dead reports whether the chaos hook has fired.
func (a *Agent) dead() bool {
	return a.killed.Load() ||
		(a.cfg.KillAfterRecords > 0 && int(a.produced.Load()) >= a.cfg.KillAfterRecords)
}

// register obtains a worker identity. stale is the identity a 410 was
// answered to ("" for the first registration): when another goroutine
// has replaced it already, there is nothing left to do.
func (a *Agent) register(ctx context.Context, stale string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.id != stale {
		return nil
	}
	req, err := json.Marshal(remote.RegisterRequest{Name: a.cfg.Name, Parallel: a.cfg.Parallel})
	if err != nil {
		return err
	}
	var resp remote.RegisterResponse
	var lastErr error
	for attempt := 0; attempt < sendAttempts; attempt++ {
		if lastErr != nil && !backoff.Sleep(ctx, attempt-1, 200*time.Millisecond, 5*time.Second, 0.2, nil) {
			return ctx.Err()
		}
		if _, lastErr = a.do(ctx, http.MethodPost, "/api/v1/workers", "application/json", req, &resp, 0); lastErr == nil {
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
	a.mu.Lock()
	hb := a.hb
	a.mu.Unlock()
	t := time.NewTicker(hb)
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
		id := a.ID()
		status, err := a.do(ctx, http.MethodPost, "/api/v1/workers/"+id+"/heartbeat", "", nil, nil, 0)
		if err == nil && status == http.StatusGone {
			err = a.register(ctx, id)
		}
		if err != nil {
			a.log.Warn("worker: heartbeat failed", "err", err)
		}
	}
}

// lease asks the control plane for a shard, letting it hold the request
// for the poll interval while there is none. An empty answer that came
// sooner (the control plane caps the wait, or is shutting down) is
// topped up to the interval here, so the idle cadence is the same.
func (a *Agent) lease(ctx context.Context) (remote.Lease, bool, error) {
	a.mu.Lock()
	id, poll := a.id, a.poll
	a.mu.Unlock()
	var lease remote.Lease
	asked := time.Now()
	status, err := a.do(ctx, http.MethodPost,
		fmt.Sprintf("/api/v1/workers/%s/lease?wait=%d", id, poll.Milliseconds()), "", nil, &lease, poll)
	switch {
	case err != nil:
	case status == http.StatusGone:
		err = a.register(ctx, id)
	case status == http.StatusNoContent:
		t := time.NewTimer(poll - time.Since(asked))
		defer t.Stop()
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-t.C:
		}
	}
	return lease, status == http.StatusOK && err == nil, err
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
		// otherwise poison the campaign on this worker forever. Run
		// paces the rebuild attempts.
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
	log := a.shardLog(lease)
	start := time.Now()
	// Name the projects already prepared here: the control plane leaves
	// the files of one it recognises out of the spec.
	path := "/api/v1/workers/campaigns/" + url.PathEscape(lease.Campaign) + "/spec"
	if have := a.prepared.Digests(); len(have) > 0 {
		path += "?" + url.Values{"have": have}.Encode()
	}
	var spec remote.CampaignSpec
	status, err := a.do(ctx, http.MethodGet, path, "", nil, &spec, 0)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("worker: spec fetch: status %d", status)
	}
	elided := len(spec.Files) == 0 && spec.ProjectDigest != ""
	if elided {
		var ok bool
		if spec.Files, ok = a.prepared.Files(spec.ProjectDigest); !ok {
			return nil, fmt.Errorf("worker: campaign %s: spec without files for a project this worker does not hold (%.8s)", lease.Campaign, spec.ProjectDigest)
		}
	}
	log.Info("worker: spec fetched", "elided", elided, "ms", time.Since(start).Milliseconds())

	start = time.Now()
	c, err := kvclient.CampaignFromSpec(spec, a.cfg.Parallel+1)
	if err != nil {
		return nil, fmt.Errorf("worker: campaign %s: %w", lease.Campaign, err)
	}
	c.Prepared = a.prepared
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
	log.Info("worker: campaign prepared", "prepared", runner.Prepared(), "ms", time.Since(start).Milliseconds())
	return runner, nil
}

// executeLease runs the leased shard [Lo, Hi) and streams its records
// back: full batches as they fill, the last one with the completion,
// whose answer may be the next lease. Stale-lease responses abandon the
// shard silently — its new owner regenerates the records.
func (a *Agent) executeLease(ctx context.Context, lease remote.Lease) (next remote.Lease, more bool, err error) {
	log := a.shardLog(lease)
	defer func() {
		if err != nil && !errors.Is(err, ErrKilled) {
			log.Warn("worker: shard failed", "err", err)
		}
	}()
	runner, err := a.runnerFor(ctx, lease)
	if err != nil {
		return next, false, err
	}
	n := lease.Hi - lease.Lo
	if lease.Lo < 0 || lease.Hi > runner.Len() || n <= 0 {
		return next, false, fmt.Errorf("worker: lease %s/%d: bad range [%d,%d)", lease.Campaign, lease.Shard, lease.Lo, lease.Hi)
	}
	log.Info("worker: executing shard", "lo", lease.Lo, "hi", lease.Hi)

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
	var shipErr error // first failed send; nothing is sent after it
	seen := 0
	sink := executor.SinkFunc(func(idx int, rec analysis.Record) {
		if a.dead() {
			return
		}
		batch = append(batch, remote.RecordLine{Idx: lease.Lo + idx, Kind: kinds[idx], Fork: forks[idx], Rec: rec})
		a.produced.Add(1)
		// The shard's last batch, full or not, rides with the completion.
		if seen++; len(batch) >= a.cfg.BatchSize && seen < n && shipErr == nil {
			_, _, shipErr = a.ship(ctx, lease, "records", batch)
			batch = batch[:0]
		}
	})
	local := executor.Local{Workers: a.cfg.Parallel}
	if err := local.Run(ctx, n, exp, sink); err != nil {
		return next, false, err
	}
	if a.dead() {
		a.killed.Store(true)
		return next, false, ErrKilled
	}
	if shipErr == nil {
		next, more, shipErr = a.ship(ctx, lease, "complete", batch)
	}
	if errors.Is(shipErr, errStale) {
		log.Warn("worker: shard abandoned, its lease moved on")
		return next, false, nil
	}
	return next, more, shipErr
}

// ship posts one NDJSON batch of the leased shard to its records route
// or, ending the shard, its complete route, retrying transient errors
// with backoff. A 410 (stale token) is terminal: errStale. A completion
// may be answered with the worker's next lease.
func (a *Agent) ship(ctx context.Context, lease remote.Lease, route string, batch []remote.RecordLine) (next remote.Lease, more bool, err error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ln := range batch {
		if err := enc.Encode(ln); err != nil {
			return next, false, err
		}
	}
	path := fmt.Sprintf("/api/v1/workers/%s/%s?campaign=%s&shard=%d&token=%s",
		a.ID(), route, url.QueryEscape(lease.Campaign), lease.Shard, lease.Token)
	for attempt := 0; attempt < sendAttempts; attempt++ {
		if err != nil && !backoff.Sleep(ctx, attempt-1, 100*time.Millisecond, 2*time.Second, 0.2, nil) {
			return next, false, ctx.Err()
		}
		var status int
		status, err = a.do(ctx, http.MethodPost, path, "application/x-ndjson", buf.Bytes(), &next, 0)
		switch {
		case err != nil:
		case status == http.StatusGone:
			return next, false, errStale
		default:
			return next, status == http.StatusOK, nil
		}
	}
	return next, false, err
}

// do issues one request under a deadline of requestTimeout plus the
// wait it asks the control plane for, and decodes a 200's JSON into
// out. 2xx and 410 — the protocol's answers — are returned as status;
// anything else is an error quoting the response.
func (a *Agent) do(ctx context.Context, method, path, ctype string, body []byte, out any, wait time.Duration) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout+wait)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, a.cfg.Server+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode/100 != 2 && resp.StatusCode != http.StatusGone {
		return resp.StatusCode, fmt.Errorf("worker: %s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp.StatusCode, nil
}

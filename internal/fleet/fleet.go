// Package fleet is the control-plane side of distributed campaign
// execution: a coordinator that registers remote workers, hands out
// shard leases with TTLs and fencing tokens, ingests their record
// streams idempotently, and re-dispatches shards whose workers stopped
// heartbeating.
//
// The coordinator is transport-agnostic state machine plus an HTTP
// facade (handlers.go). executor.Remote drives it in-process: it opens
// a Job per campaign, which the coordinator cuts into shards from the
// number of live workers (the one place shard geometry is decided),
// drains the job's delivery channel as the single record producer for
// the campaign sink, and claims shards back for local execution when no
// workers are alive. An idle worker's lease
// request parks on the coordinator's wake channel, so a shard that
// becomes pending is granted within microseconds, not after a poll
// interval; a busy worker gets its next lease in the answer to the
// completion that carried its last records. Failure handling is
// lease-based: a worker that dies mid-shard simply stops renewing its
// lease; Sweep expires the lease, returns the shard to the pending
// queue and wakes the parked requests (or the in-process drain re-runs
// it). A worker that asks for work while a shard is still leased to it
// has lost that shard some other way (a grant whose response never
// arrived, a Runner it could not build) and gets it back at once.
// Per-index deduplication makes the re-run safe — experiment seeds
// derive from plan indices, so a re-executed index reproduces the exact
// record bytes the dead worker would have shipped.
package fleet

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/obs"
	"profipy/internal/remote"
)

// Config parameterises the coordinator.
type Config struct {
	// LeaseTTL is how long a shard lease survives without a heartbeat;
	// 0 selects 15s. Workers are told to heartbeat at a third of it.
	LeaseTTL time.Duration
	// Reg, when set, instruments the fleet.
	Reg *obs.Registry
	// now overrides the clock in tests.
	now func() time.Time
}

// idlePoll is how long idle workers are told to let one lease request
// wait for work before asking again.
const idlePoll = 500 * time.Millisecond

// Coordinator tracks workers, campaign jobs and shard leases.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	workers map[string]*workerState
	jobs    map[string]*Job
	order   []string // job campaign IDs in insertion order
	// epoch marks this coordinator's worker IDs. A worker asking for
	// work under an ID proves that ID holds no shard, so no ID may be
	// valid again after a restart, when another worker could be given it.
	epoch   string
	nextID  int
	nextTok int
	// wake is closed and replaced whenever a shard becomes pending;
	// parked lease requests wait on the value they read under mu.
	wake chan struct{}
	// done is closed by Close: parked lease requests return empty.
	done     chan struct{}
	doneOnce sync.Once

	met *fmetrics
}

// ErrUnknownWorker is Lease's answer to a worker ID the coordinator
// never issued (a worker registered before a restart): re-register.
var ErrUnknownWorker = errors.New("fleet: unknown worker")

type workerState struct {
	id       string
	name     string
	parallel int
	lastSeen time.Time
	leases   int
}

// shard lease lifecycle.
const (
	shardPending = iota // waiting for a worker (or local claim)
	shardLeased         // leased to a worker, TTL running
	shardDone           // all records delivered or completion reported
)

type shardState struct {
	lo, hi     int
	state      int
	worker     string
	token      string
	expires    time.Time
	leasedAt   time.Time
	dispatches int
}

// Delivery is one deduplicated experiment record surfaced to the job's
// single consumer (executor.Remote's drain loop).
type Delivery struct {
	Idx  int
	Kind string
	Fork string
	Rec  analysis.Record
}

// Job is the coordinator's state for one campaign's execution phase.
type Job struct {
	coord    *Coordinator
	campaign string
	spec     remote.CampaignSpec
	n        int
	shards   []shardState

	mu         sync.Mutex
	delivered  []bool
	remaining  int
	deliveries chan Delivery
	closed     bool
}

// New builds a coordinator.
func New(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	var nonce [3]byte
	_, _ = rand.Read(nonce[:]) // crypto/rand does not fail
	c := &Coordinator{
		cfg:     cfg,
		epoch:   hex.EncodeToString(nonce[:]),
		workers: map[string]*workerState{},
		jobs:    map[string]*Job{},
		wake:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	c.met = newMetrics(cfg.Reg, c)
	return c
}

// Close releases every parked lease request (each answers "no work")
// and makes later ones return without waiting, so an HTTP server
// draining its connections never waits out a poll. State and the other
// calls are unaffected.
func (c *Coordinator) Close() {
	c.doneOnce.Do(func() { close(c.done) })
}

// wakeLocked releases the parked lease requests to look again.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// LeaseTTL reports the configured lease TTL.
func (c *Coordinator) LeaseTTL() time.Duration { return c.cfg.LeaseTTL }

// heartbeat is the cadence workers are told to heartbeat at.
func (c *Coordinator) heartbeat() time.Duration { return c.cfg.LeaseTTL / 3 }

// RegisterWorker admits a worker and assigns its identity.
func (c *Coordinator) RegisterWorker(req remote.RegisterRequest) remote.RegisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id := fmt.Sprintf("w%04d-%s", c.nextID, c.epoch)
	c.workers[id] = &workerState{
		id: id, name: req.Name, parallel: req.Parallel, lastSeen: c.cfg.now(),
	}
	slog.Info("fleet: worker registered", "worker", id, "name", req.Name, "parallel", req.Parallel)
	return remote.RegisterResponse{
		ID:          id,
		LeaseTTLMS:  c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMS: c.heartbeat().Milliseconds(),
		PollMS:      idlePoll.Milliseconds(),
	}
}

// Heartbeat renews a worker's liveness and the expiry of every lease it
// holds. Unknown workers (e.g. registered before a coordinator restart)
// get false and must re-register.
func (c *Coordinator) Heartbeat(workerID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return false
	}
	now := c.cfg.now()
	w.lastSeen = now
	for _, camp := range c.order {
		job := c.jobs[camp]
		for i := range job.shards {
			sh := &job.shards[i]
			if sh.state == shardLeased && sh.worker == workerID {
				sh.expires = now.Add(c.cfg.LeaseTTL)
			}
		}
	}
	return true
}

// Lease grants the oldest pending shard to the worker. With none
// pending it parks for at most wait (capped at the heartbeat interval)
// and grants the moment StartJob, a lease expiry or a release makes one
// pending; it returns empty-handed at the deadline, when ctx is done or
// when the coordinator closes.
func (c *Coordinator) Lease(ctx context.Context, workerID string, wait time.Duration) (remote.Lease, bool, error) {
	timer := time.NewTimer(min(wait, c.heartbeat()))
	defer timer.Stop()
	start, result := time.Now(), "granted"
	for {
		c.mu.Lock()
		w, ok := c.workers[workerID]
		if !ok {
			c.mu.Unlock()
			return remote.Lease{}, false, ErrUnknownWorker
		}
		lease, granted := c.grantLocked(w)
		wake := c.wake
		c.mu.Unlock()
		if granted {
			c.met.leaseReqs.With(result).Inc()
			c.met.leaseWait.ObserveSince(start)
			return lease, true, nil
		}
		result = "woken"
		select {
		case <-wake:
			continue
		case <-timer.C:
		case <-ctx.Done():
		case <-c.done:
		}
		c.met.leaseReqs.With("empty").Inc()
		c.met.leaseWait.ObserveSince(start)
		return remote.Lease{}, false, nil
	}
}

// grantLocked leases the oldest pending shard to w, after returning to
// pending what lapsed and what w itself still holds: a worker runs one
// shard at a time, so its asking for work proves it holds nothing.
func (c *Coordinator) grantLocked(w *workerState) (remote.Lease, bool) {
	now := c.cfg.now()
	w.lastSeen = now
	c.sweepLocked(now, w.id)
	for _, camp := range c.order {
		job := c.jobs[camp]
		for i := range job.shards {
			sh := &job.shards[i]
			if sh.state != shardPending {
				continue
			}
			c.nextTok++
			sh.state = shardLeased
			sh.worker = w.id
			sh.token = fmt.Sprintf("t%06d", c.nextTok)
			sh.expires = now.Add(c.cfg.LeaseTTL)
			sh.leasedAt = now
			sh.dispatches++
			w.leases++
			if sh.dispatches > 1 {
				c.met.redisp.Inc()
				slog.Warn("fleet: shard re-dispatched",
					"campaign", camp, "shard", i, "worker", w.id, "dispatch", sh.dispatches)
			}
			return remote.Lease{
				Campaign: camp, Shard: i, Lo: sh.lo, Hi: sh.hi,
				Token: sh.token, PlanHash: job.spec.PlanHash,
				ExpiresMS: c.cfg.LeaseTTL.Milliseconds(),
			}, true
		}
	}
	return remote.Lease{}, false
}

// Spec returns the campaign spec a worker rebuilds its Runner from —
// without the files when the worker names the spec's project among the
// digests it already holds.
func (c *Coordinator) Spec(campaign string, have []string) (remote.CampaignSpec, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	job, ok := c.jobs[campaign]
	if !ok {
		return remote.CampaignSpec{}, false
	}
	spec := job.spec
	if spec.ProjectDigest != "" && slices.Contains(have, spec.ProjectDigest) {
		spec.Files = nil
	}
	return spec, true
}

// checkToken validates a (campaign, shard, token) triple against the
// current lease. A mismatch means the caller's lease expired and the
// shard moved on — the worker must abandon the shard.
func (c *Coordinator) checkToken(campaign string, shard int, token string) (*Job, bool) {
	job, ok := c.jobs[campaign]
	if !ok || shard < 0 || shard >= len(job.shards) {
		return nil, false
	}
	sh := &job.shards[shard]
	if sh.state != shardLeased || sh.token != token {
		return nil, false
	}
	return job, true
}

// Ingest folds a batch of record lines from a worker into the campaign,
// deduplicating by job index. Returns false when the lease token is
// stale (the records of the batch are dropped — the shard's new owner
// will regenerate them byte-identically).
func (c *Coordinator) Ingest(campaign string, shard int, token string, lines []remote.RecordLine) bool {
	start := c.cfg.now()
	c.mu.Lock()
	job, ok := c.checkToken(campaign, shard, token)
	if ok {
		// Receiving records proves the worker is alive even if its
		// heartbeat goroutine is starved; renew the lease.
		job.shards[shard].expires = c.cfg.now().Add(c.cfg.LeaseTTL)
	}
	c.mu.Unlock()
	if !ok {
		c.met.stale.Add(float64(len(lines)))
		return false
	}
	c.deliver(job, lines, start)
	return true
}

func (c *Coordinator) deliver(job *Job, lines []remote.RecordLine, start time.Time) {
	fresh := 0
	for _, ln := range lines {
		if job.deliver(ln.Idx, ln.Kind, ln.Fork, ln.Rec) {
			fresh++
		}
	}
	c.met.ingested.Add(float64(fresh))
	c.met.duplicate.Add(float64(len(lines) - fresh))
	c.met.ingestH.Observe(c.cfg.now().Sub(start).Seconds())
}

// Complete ingests the shard's last records, marks it fully executed
// and leases the worker its next shard if one is pending. All three
// happen in one critical section: the campaign cannot close between
// the records that finish it and the completion that reports them, and
// a worker with work waiting never polls for it. Stale tokens return
// ok=false and drop the records.
func (c *Coordinator) Complete(campaign string, shard int, token string, tail []remote.RecordLine) (next remote.Lease, granted, ok bool) {
	start := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	job, ok := c.checkToken(campaign, shard, token)
	if !ok {
		c.met.stale.Add(float64(len(tail)))
		return remote.Lease{}, false, false
	}
	if len(tail) > 0 {
		c.deliver(job, tail, start)
	}
	sh := &job.shards[shard]
	c.met.shardH.Observe(start.Sub(sh.leasedAt).Seconds())
	holder := c.workers[sh.worker]
	c.releaseLocked(sh, shardDone)
	next, granted = c.grantLocked(holder)
	return next, granted, true
}

// releaseLocked ends a shard's lease, if it has one, and leaves the
// shard in the given state.
func (c *Coordinator) releaseLocked(sh *shardState, state int) {
	if w := c.workers[sh.worker]; sh.state == shardLeased && w.leases > 0 {
		w.leases--
	}
	sh.state, sh.worker, sh.token = state, "", ""
}

// Sweep expires leases whose TTL lapsed, returning their shards to the
// pending queue for re-dispatch and waking the parked lease requests.
// Returns the number of expired leases.
func (c *Coordinator) Sweep() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sweepLocked(c.cfg.now(), "")
}

// sweepLocked returns to pending every shard whose lease lapsed, and
// every shard still leased to the worker named asking, which is asking
// for work and therefore not running it.
func (c *Coordinator) sweepLocked(now time.Time, asking string) int {
	expired, released := 0, 0
	for _, camp := range c.order {
		job := c.jobs[camp]
		for i := range job.shards {
			sh := &job.shards[i]
			switch {
			case sh.state != shardLeased:
				continue
			case sh.worker == asking:
				slog.Warn("fleet: lease released, its holder asked for work",
					"campaign", camp, "shard", i, "worker", sh.worker)
				released++
			case !now.Before(sh.expires):
				slog.Warn("fleet: lease expired",
					"campaign", camp, "shard", i, "worker", sh.worker)
				expired++
				c.met.expiries.Inc()
			default:
				continue
			}
			c.releaseLocked(sh, shardPending)
		}
	}
	if expired+released > 0 {
		c.wakeLocked()
	}
	return expired
}

// LiveWorkers counts workers whose last heartbeat is within the lease
// TTL.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveLocked(c.cfg.now())
}

func (c *Coordinator) liveLocked(now time.Time) int {
	live := 0
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.cfg.LeaseTTL {
			live++
		}
	}
	return live
}

// Workers snapshots the registered workers, sorted by ID.
func (c *Coordinator) Workers() []remote.WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	out := make([]remote.WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, remote.WorkerInfo{
			ID: w.id, Name: w.name, Parallel: w.parallel,
			Live:       now.Sub(w.lastSeen) <= c.cfg.LeaseTTL,
			LastSeenMS: now.Sub(w.lastSeen).Milliseconds(),
			Shards:     w.leases,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// shardsPerWorker is how many shards StartJob cuts per live worker.
// With the benchmark's two agents it gives exactly the 8 shards its
// requests used to ask for, and at any fleet size every worker gets the
// same number of re-dispatch units: a worker runs one shard at a time,
// so losing it re-runs at most a quarter of its share of the plan.
const shardsPerWorker = 4

// cut splits [0, n) into min(n, shardsPerWorker × live) contiguous
// shards whose sizes differ by at most one — the whole plan as one
// shard when no worker is live.
func cut(n, live int) []shardState {
	k := min(n, max(1, shardsPerWorker*live))
	shards := make([]shardState, k)
	for i := range shards {
		shards[i] = shardState{lo: i * n / k, hi: (i + 1) * n / k, state: shardPending}
	}
	return shards
}

// StartJob opens a campaign job over n experiments, cut into shards for
// the workers live right now. The returned Job's Deliveries channel
// carries each index of [0, n) exactly once, in delivery order, and is
// closed when every index has been delivered.
func (c *Coordinator) StartJob(campaign string, spec remote.CampaignSpec, n int) *Job {
	job := &Job{
		coord:      c,
		campaign:   campaign,
		spec:       spec,
		n:          n,
		delivered:  make([]bool, n),
		remaining:  n,
		deliveries: make(chan Delivery, n),
	}
	if n == 0 {
		close(job.deliveries)
		job.closed = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	job.shards = cut(n, c.liveLocked(c.cfg.now()))
	c.jobs[campaign] = job
	c.order = append(c.order, campaign)
	c.wakeLocked()
	return job
}

// CloseJob removes a finished campaign; outstanding leases become
// stale (their tokens stop validating).
func (c *Coordinator) CloseJob(campaign string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	job, ok := c.jobs[campaign]
	if !ok {
		return
	}
	for i := range job.shards {
		c.releaseLocked(&job.shards[i], shardDone)
	}
	delete(c.jobs, campaign)
	for i, camp := range c.order {
		if camp == campaign {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// Deliveries is the job's record stream: every index exactly once,
// closed when all indices delivered. Drained by a single consumer.
func (j *Job) Deliveries() <-chan Delivery { return j.deliveries }

// deliver hands one record to the consumer unless its index was already
// delivered. Reports whether the record was fresh. The channel has
// capacity n and each index sends at most once, so the send can never
// block.
func (j *Job) deliver(idx int, kind, fork string, rec analysis.Record) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if idx < 0 || idx >= j.n || j.delivered[idx] || j.closed {
		return false
	}
	j.delivered[idx] = true
	j.deliveries <- Delivery{Idx: idx, Kind: kind, Fork: fork, Rec: rec}
	j.remaining--
	if j.remaining == 0 {
		close(j.deliveries)
		j.closed = true
	}
	return true
}

// Deliver is deliver for in-process producers (the local fallback path
// of executor.Remote, whose Runner accounts kind and fork outcome
// itself).
func (j *Job) Deliver(idx int, kind string, rec analysis.Record) bool {
	return j.deliver(idx, kind, remote.ForkNone, rec)
}

// IsDelivered reports whether the index already has a record.
func (j *Job) IsDelivered(idx int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return idx < 0 || idx >= j.n || j.delivered[idx]
}

// ClaimLocal atomically takes the oldest pending shard away from the
// fleet for in-process execution and returns its index range.
func (j *Job) ClaimLocal() (lo, hi int, ok bool) {
	c := j.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range j.shards {
		if sh := &j.shards[i]; sh.state == shardPending {
			c.releaseLocked(sh, shardDone)
			return sh.lo, sh.hi, true
		}
	}
	return 0, 0, false
}

// Package scheduler turns campaign execution into an asynchronous
// service: a bounded job queue drained by a fixed worker pool, with
// per-job lifecycle (queued → running → done/failed/canceled), live
// progress counters, per-phase timings and cancellation. It owns a job
// only while it owes it work: a job that reaches a terminal state is
// handed to Config.OnFinish (the journal) and forgotten. It is the
// missing layer between the HTTP front end and the campaign engine —
// ZOFI (Porpodas, 2019) observes that campaign throughput is dominated
// by how experiments are scheduled, and the same holds one level up for
// whole campaigns in the as-a-service setting.
package scheduler

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"profipy/internal/obs"
)

// State is a job lifecycle state.
type State string

const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Progress is a live snapshot of how far a job has advanced.
type Progress struct {
	// Phase is the workflow phase last reported by the task
	// (scan/coverage/execute/analyze for campaigns).
	Phase string `json:"phase,omitempty"`
	// Done / Total count completed vs planned experiments.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Task is the unit of work a job runs. It must honor ctx cancellation
// and may call report (safe for concurrent use) as it advances.
type Task func(ctx context.Context, report func(Progress)) error

// Status is the snapshot of a job — and the one declaration of the job
// view's wire shape: the API serves it and the journal stores it as is.
type Status struct {
	ID string `json:"id"`
	// Name is the job's display name; the service submits campaigns
	// under their project's name.
	Name     string   `json:"project,omitempty"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	// PhaseMillis records wall-clock time spent in each completed phase,
	// in whole milliseconds; PhaseMicros the same time in whole
	// microseconds, so a phase under a millisecond does not read 0.
	PhaseMillis map[string]int64 `json:"phaseMillis,omitempty"`
	PhaseMicros map[string]int64 `json:"phaseMicros,omitempty"`
	// Campaign names what the job produces. The scheduler never sets it:
	// the service derives it from the job ID, once there is a campaign of
	// that name to fetch or follow.
	Campaign string `json:"campaign,omitempty"`
	Error    string `json:"error,omitempty"`
	// Unix-millisecond lifecycle timestamps (zero = not reached).
	EnqueuedMS int64 `json:"enqueuedMs,omitempty"`
	StartedMS  int64 `json:"startedMs,omitempty"`
	FinishedMS int64 `json:"finishedMs,omitempty"`
}

// Errors returned by Submit and Cancel.
var (
	ErrQueueFull = errors.New("scheduler: job queue full")
	ErrClosed    = errors.New("scheduler: closed")
)

// Config sizes the scheduler.
type Config struct {
	// Workers is the number of jobs executed concurrently (default 2).
	Workers int
	// QueueDepth bounds the number of submitted-but-not-started jobs;
	// Submit fails with ErrQueueFull beyond it (default 64).
	QueueDepth int
	// OnFinish, when set, takes over every job that reaches a terminal
	// state (done, failed or canceled — including jobs canceled while
	// still queued): the SaaS layer journals the snapshot to the result
	// store, which owns finished jobs. The scheduler keeps answering for
	// the job until OnFinish returns and forgets it then, so a job is
	// always visible in one of the two places. Called outside scheduler
	// locks; must be safe for concurrent use.
	OnFinish func(Status)
	// Metrics, when set, registers the scheduler's metric families
	// (queue depth, running/finished jobs, job and phase latency) on
	// the registry and keeps them current.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// job is the internal mutable record behind a Status.
type job struct {
	id   string
	name string
	task Task
	met  *metrics // shared with the scheduler

	mu         sync.Mutex
	state      State
	prog       Progress
	phaseDur   map[string]time.Duration
	phaseStart time.Time
	err        error
	enqueued   time.Time
	started    time.Time
	finished   time.Time
	cancel     context.CancelFunc // non-nil while running
	done       chan struct{}      // closed on terminal state
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.id, Name: j.name, State: j.state, Progress: j.prog,
		EnqueuedMS: unixMS(j.enqueued), StartedMS: unixMS(j.started), FinishedMS: unixMS(j.finished),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if len(j.phaseDur) > 0 {
		st.PhaseMillis = make(map[string]int64, len(j.phaseDur))
		st.PhaseMicros = make(map[string]int64, len(j.phaseDur))
		for k, d := range j.phaseDur {
			st.PhaseMillis[k], st.PhaseMicros[k] = d.Milliseconds(), d.Microseconds()
		}
	}
	return st
}

// cancelLocked finishes a job that never ran (or never will) as
// Canceled and releases its task; callers hold j.mu.
func (j *job) cancelLocked() {
	j.state = Canceled
	j.err = context.Canceled
	j.finished = time.Now()
	j.task = nil
	close(j.done)
}

func unixMS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

// endPhaseLocked accounts the wall time of the phase the job is in, if
// any, since it was entered; callers hold j.mu.
func (j *job) endPhaseLocked() {
	if j.prog.Phase == "" {
		return
	}
	d := time.Since(j.phaseStart)
	j.phaseDur[j.prog.Phase] += d
	j.met.phaseDur.With(j.prog.Phase).Observe(d.Seconds())
}

// report folds a task progress update into the job. Counters are
// monotonic within a phase (stale updates from parallel experiment
// workers cannot move them backwards); a phase transition resets them,
// since phases legitimately shrink the denominator (coverage pruning
// drops uncovered points between the coverage and execute phases), and
// accounts the finished phase's wall time.
func (j *job) report(p Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Running {
		return // late update from an already-finished or canceled job
	}
	if p.Phase != j.prog.Phase {
		j.endPhaseLocked()
		j.phaseStart = time.Now()
		j.prog = p
		return
	}
	if p.Done > j.prog.Done {
		j.prog.Done = p.Done
	}
	if p.Total > j.prog.Total {
		j.prog.Total = p.Total
	}
}

// Scheduler owns the queue, the worker pool, and the jobs that are
// queued or running. The queue is an explicit pending list (not a
// channel) so that canceling a queued job frees its slot immediately
// instead of holding it until a worker pops and skips the corpse.
type Scheduler struct {
	cfg Config
	met *metrics // inert handles when Config.Metrics is unset

	mu      sync.Mutex
	cond    *sync.Cond // signals workers: pending grew or closed
	jobs    map[string]*job
	order   []string // submission order, for listing
	pending []*job   // FIFO of queued jobs, bounded by QueueDepth
	nextID  int
	closed  bool

	// recent is a ring of the last completed jobs' execution times,
	// feeding RetryAfterEstimate; guarded by mu.
	recent    [recentWindow]time.Duration
	recentLen int
	recentIdx int

	wg         sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// recentWindow bounds the duration ring: enough samples to smooth one
// noisy campaign, small enough that the estimate tracks load shifts.
const recentWindow = 32

// New builds a scheduler and starts its worker pool.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:        cfg,
		met:        newMetrics(cfg.Metrics),
		jobs:       make(map[string]*job),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit enqueues a task and returns its job ID immediately. It fails
// with ErrQueueFull when the queue is at capacity and ErrClosed after
// Close.
func (s *Scheduler) Submit(name string, t Task) (string, error) { return s.submit("", name, t) }

// SubmitID enqueues a task under a caller-chosen job ID — the recovery
// path re-admits journaled jobs this way, so IDs the API layer derived
// from job numbers (campaign IDs) stay stable across restarts. The ID
// counter advances past numeric IDs ("job-N"), so later Submit calls
// cannot collide with recovered jobs. Fails with ErrQueueFull,
// ErrClosed, or an error when the ID is empty or names a job the
// scheduler already owns.
func (s *Scheduler) SubmitID(id, name string, t Task) error {
	if id == "" {
		return errors.New("scheduler: empty job id")
	}
	_, err := s.submit(id, name, t)
	return err
}

// submit creates a queued job — under the next free ID when id is
// empty — and places it on the pending list.
func (s *Scheduler) submit(id, name string, t Task) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return "", ErrClosed
	case s.jobs[id] != nil:
		return "", fmt.Errorf("scheduler: job %s already exists", id)
	case len(s.pending) >= s.cfg.QueueDepth:
		return "", ErrQueueFull
	}
	var n int
	if id == "" {
		s.nextID++
		id = fmt.Sprintf("job-%d", s.nextID)
	} else if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > s.nextID {
		s.nextID = n
	}
	j := &job{
		id:       id,
		name:     name,
		task:     t,
		met:      s.met,
		state:    Queued,
		phaseDur: make(map[string]time.Duration),
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.pending = append(s.pending, j)
	s.cond.Signal()
	s.met.queueDepth.Inc()
	return id, nil
}

// Status returns the snapshot of one job.
func (s *Scheduler) Status(id string) (Status, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	return j.status(), true
}

// List returns snapshots of every job the scheduler still owns, in
// submission order.
func (s *Scheduler) List() []Status {
	s.mu.Lock()
	js := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	return out
}

// Cancel requests cancellation of a job. A queued job is finished as
// Canceled immediately; a running job has its context canceled and
// finishes once in-flight experiments drain. The returned snapshot
// reflects the post-cancel state; the second result is false for jobs
// the scheduler does not own — unknown ones, and finished ones.
func (s *Scheduler) Cancel(id string) (Status, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	// Pull the job out of the pending list first so its queue slot is
	// freed immediately and no worker can start it underneath us.
	for i, p := range s.pending {
		if ok && p == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			s.met.queueDepth.Dec()
			break
		}
	}
	s.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	j.mu.Lock()
	switch j.state {
	case Queued:
		j.cancelLocked()
		j.mu.Unlock()
		s.finished(j)
	case Running:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	default:
		j.mu.Unlock()
	}
	return j.status(), true
}

// Wait blocks until the job reaches a terminal state and returns its
// final snapshot. The second result is false for jobs the scheduler
// does not own: unknown ones, and ones that finished before the call —
// those are OnFinish's receiver's to answer for.
func (s *Scheduler) Wait(id string) (Status, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	<-j.done
	return j.status(), true
}

// Close stops accepting submissions, cancels running jobs, and waits
// for the worker pool to drain. Queued jobs finish as Canceled without
// ever running.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	drained := s.pending
	s.pending = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.met.queueDepth.Add(float64(-len(drained)))
	for _, j := range drained {
		j.mu.Lock()
		canceled := j.state == Queued
		if canceled {
			j.cancelLocked()
		}
		j.mu.Unlock()
		if canceled {
			s.finished(j)
		}
	}
	s.baseCancel()
	s.wg.Wait()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return // closed and drained
		}
		j := s.pending[0]
		s.pending = s.pending[1:]
		s.mu.Unlock()
		s.met.queueDepth.Dec()
		s.runJob(j)
	}
}

func (s *Scheduler) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	j.mu.Lock()
	if j.state != Queued { // canceled between queue pop and here
		j.mu.Unlock()
		return
	}
	if s.baseCtx.Err() != nil { // scheduler closing: don't start the task
		j.cancelLocked()
		j.mu.Unlock()
		s.finished(j)
		return
	}
	j.state = Running
	j.started = time.Now()
	j.phaseStart = j.started
	j.cancel = cancel
	task := j.task
	j.mu.Unlock()
	s.met.running.Inc()

	err := task(ctx, j.report)

	j.mu.Lock()
	j.endPhaseLocked()
	j.finished = time.Now()
	// A Wait caller may hold the job past this point: release what only
	// a running job needs (the task closure pins the whole campaign).
	j.cancel, j.task = nil, nil
	switch {
	case err == nil:
		j.state = Done
	case errors.Is(err, context.Canceled):
		j.state = Canceled
		j.err = context.Canceled
	default:
		j.state = Failed
		j.err = err
	}
	close(j.done)
	ran := j.finished.Sub(j.started)
	j.mu.Unlock()
	s.noteDuration(ran)
	s.finished(j)
}

// noteDuration folds one finished job's execution time into the recent
// ring behind RetryAfterEstimate.
func (s *Scheduler) noteDuration(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.recent[s.recentIdx] = d
	s.recentIdx = (s.recentIdx + 1) % recentWindow
	if s.recentLen < recentWindow {
		s.recentLen++
	}
	s.mu.Unlock()
}

// RetryAfterEstimate predicts how long a submitter rejected with
// ErrQueueFull should wait before retrying: the current queue depth
// (plus the rejected job itself) times the recent mean job duration,
// divided across the worker pool. ok is false until at least one job
// has finished — the caller falls back to a fixed hint.
func (s *Scheduler) RetryAfterEstimate() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recentLen == 0 {
		return 0, false
	}
	var sum time.Duration
	for i := 0; i < s.recentLen; i++ {
		sum += s.recent[i]
	}
	mean := sum / time.Duration(s.recentLen)
	waiting := len(s.pending) + 1
	return mean * time.Duration(waiting) / time.Duration(s.cfg.Workers), true
}

// finished hands a terminal job over: metrics, then the OnFinish
// journal hook (outside all locks), and only once that has returned —
// the job's line is durable — does the scheduler forget the job.
func (s *Scheduler) finished(j *job) {
	st := j.status()
	// A job canceled while still queued never started: it carries no
	// duration and no running decrement.
	s.met.finished.With(string(st.State)).Inc()
	if st.StartedMS != 0 {
		s.met.running.Dec()
		if st.FinishedMS >= st.StartedMS {
			s.met.jobDur.Observe(float64(st.FinishedMS-st.StartedMS) / 1000)
		}
	}
	if s.cfg.OnFinish != nil {
		s.cfg.OnFinish(st)
	}
	s.mu.Lock()
	delete(s.jobs, j.id)
	s.order = slices.DeleteFunc(s.order, func(id string) bool { return id == j.id })
	s.mu.Unlock()
}

// AdvanceIDs bumps the job ID counter to at least n, so Submit never
// reuses a number a previous process gave out — to a job in the journal
// or to a campaign on disk whose job was never journaled.
func (s *Scheduler) AdvanceIDs(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.nextID {
		s.nextID = n
	}
}

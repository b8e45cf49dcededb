package scheduler

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// outcomes collects what OnFinish is handed. A finished job is its
// receiver's to answer for — the scheduler has forgotten it, and Wait
// only serves callers that got there before the job ended.
type outcomes struct {
	mu   sync.Mutex
	cond *sync.Cond
	got  map[string]Status
}

func newOutcomes() *outcomes {
	o := &outcomes{got: map[string]Status{}}
	o.cond = sync.NewCond(&o.mu)
	return o
}

func (o *outcomes) hook(st Status) {
	o.mu.Lock()
	o.got[st.ID] = st
	o.mu.Unlock()
	o.cond.Broadcast()
}

// wait blocks until the job has been handed to OnFinish.
func (o *outcomes) wait(id string) Status {
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		if st, ok := o.got[id]; ok {
			return st
		}
		o.cond.Wait()
	}
}

// noop is a task that finishes immediately.
func noop(ctx context.Context, report func(Progress)) error { return nil }

// gated builds a task that signals on started and blocks until release
// is closed (or ctx is canceled, returning the ctx error).
func gated(started chan<- string, release <-chan struct{}, name string) Task {
	return func(ctx context.Context, report func(Progress)) error {
		started <- name
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func TestDrainOrderingSingleWorker(t *testing.T) {
	out := newOutcomes()
	s := New(Config{Workers: 1, QueueDepth: 64, OnFinish: out.hook})
	defer s.Close()
	var mu sync.Mutex
	var got []int
	var ids []string
	for i := 0; i < 20; i++ {
		i := i
		id, err := s.Submit(fmt.Sprintf("t%d", i), func(ctx context.Context, report func(Progress)) error {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if st := out.wait(id); st.State != Done {
			t.Fatalf("job %s: %+v", id, st)
		}
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("drain order = %v, want FIFO", got)
		}
	}
}

func TestConcurrentSubmitAllComplete(t *testing.T) {
	out := newOutcomes()
	s := New(Config{Workers: 4, QueueDepth: 256, OnFinish: out.hook})
	defer s.Close()
	const n = 64
	var ran atomic.Int64
	ids := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := s.Submit("c", func(ctx context.Context, report func(Progress)) error {
				ran.Add(1)
				return nil
			})
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			ids <- id
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[string]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job id %s", id)
		}
		seen[id] = true
		if st := out.wait(id); st.State != Done {
			t.Fatalf("job %s did not finish: %+v", id, st)
		}
	}
	if ran.Load() != n {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), n)
	}
}

func TestWorkerPoolSizing(t *testing.T) {
	const workers = 3
	out := newOutcomes()
	s := New(Config{Workers: workers, QueueDepth: 16, OnFinish: out.hook})
	defer s.Close()
	started := make(chan string, 8)
	release := make(chan struct{})
	var ids []string
	for i := 0; i < workers+2; i++ {
		id, err := s.Submit("g", gated(started, release, fmt.Sprintf("g%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Exactly `workers` tasks start; the rest stay queued.
	for i := 0; i < workers; i++ {
		<-started
	}
	select {
	case name := <-started:
		t.Fatalf("task %s started beyond pool size %d", name, workers)
	case <-time.After(50 * time.Millisecond):
	}
	running, queued := 0, 0
	for _, st := range s.List() {
		switch st.State {
		case Running:
			running++
		case Queued:
			queued++
		}
	}
	if running != workers || queued != 2 {
		t.Fatalf("running=%d queued=%d, want %d/%d", running, queued, workers, 2)
	}
	close(release)
	for i := 0; i < 2; i++ {
		<-started
	}
	for _, id := range ids {
		if st := out.wait(id); st.State != Done {
			t.Fatalf("job %s = %s, want done", id, st.State)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	out := newOutcomes()
	s := New(Config{Workers: 1, QueueDepth: 8, OnFinish: out.hook})
	defer s.Close()
	started := make(chan string, 1)
	release := make(chan struct{})
	first, err := s.Submit("first", gated(started, release, "first"))
	if err != nil {
		t.Fatal(err)
	}
	<-started // worker is now occupied
	var secondRan atomic.Bool
	second, err := s.Submit("second", func(context.Context, func(Progress)) error {
		secondRan.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := s.Cancel(second)
	if !ok || st.State != Canceled {
		t.Fatalf("cancel queued = %+v", st)
	}
	if st.FinishedMS == 0 {
		t.Error("canceled job has no finish time")
	}
	// Canceled while queued is terminal: journaled, then forgotten.
	if st := out.wait(second); st.State != Canceled {
		t.Fatalf("second job handed over as %s, want canceled", st.State)
	}
	if _, ok := s.Status(second); ok {
		t.Error("scheduler still owns the canceled job")
	}
	close(release)
	if st := out.wait(first); st.State != Done {
		t.Fatalf("first job = %s, want done", st.State)
	}
	s.Close() // drains the pool: had the canceled job stayed queued, it ran
	if secondRan.Load() {
		t.Error("canceled job ran")
	}
}

func TestCancelRunningJob(t *testing.T) {
	out := newOutcomes()
	s := New(Config{Workers: 1, QueueDepth: 8, OnFinish: out.hook})
	defer s.Close()
	started := make(chan string, 1)
	release := make(chan struct{}) // never closed: only ctx can end the task
	id, err := s.Submit("victim", gated(started, release, "victim"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if st, _ := s.Status(id); st.State != Running {
		t.Fatalf("state = %s, want running", st.State)
	}
	go func() {
		time.Sleep(20 * time.Millisecond) // let Wait block first
		if _, ok := s.Cancel(id); !ok {
			t.Error("cancel: job not found")
		}
	}()
	// Wait answers while the scheduler owns the job; had the cancel won
	// the race after all, the outcome is OnFinish's to give.
	st, ok := s.Wait(id)
	if !ok {
		st = out.wait(id)
	}
	if st.State != Canceled {
		t.Fatalf("state after cancel = %s, want canceled", st.State)
	}
	if st.Error != context.Canceled.Error() {
		t.Fatalf("error = %q", st.Error)
	}
}

// TestOwnershipEndsWhenOnFinishReturns: a terminal job stays visible —
// Status, List, Wait, Cancel — exactly until the OnFinish hook (the
// journal append) has returned, and is forgotten then. Whoever polls
// scheduler-then-journal therefore never finds a job in neither.
func TestOwnershipEndsWhenOnFinishReturns(t *testing.T) {
	entered, leave := make(chan Status), make(chan struct{})
	s := New(Config{Workers: 1, OnFinish: func(st Status) {
		entered <- st
		<-leave
	}})
	id, err := s.Submit("p", noop)
	if err != nil {
		t.Fatal(err)
	}
	handed := <-entered // the task returned; its journal line is "being written"
	if handed.ID != id || handed.State != Done || handed.FinishedMS == 0 {
		t.Fatalf("OnFinish got %+v", handed)
	}
	for name, get := range map[string]func(string) (Status, bool){
		"Status": s.Status, "Wait": s.Wait, "Cancel": s.Cancel,
	} {
		if st, ok := get(id); !ok || st.State != Done {
			t.Errorf("%s during OnFinish = %+v, %v; want the done job", name, st, ok)
		}
	}
	if l := s.List(); len(l) != 1 || l[0].State != Done {
		t.Errorf("List during OnFinish = %+v", l)
	}
	close(leave)
	s.Close() // the worker has run finished() to its end
	for name, get := range map[string]func(string) (Status, bool){
		"Status": s.Status, "Wait": s.Wait, "Cancel": s.Cancel,
	} {
		if st, ok := get(id); ok {
			t.Errorf("%s after OnFinish still answers: %+v", name, st)
		}
	}
	if l := s.List(); len(l) != 0 {
		t.Errorf("List after OnFinish = %+v", l)
	}
}

// TestOnFinishObservesEveryTerminalJob covers the journal hook across
// the terminal paths: completion, failure, cancellation while running
// and while queued, and the queue drained at Close.
func TestOnFinishObservesEveryTerminalJob(t *testing.T) {
	out := newOutcomes()
	s := New(Config{Workers: 1, OnFinish: out.hook})

	okID, err := s.Submit("ok", noop)
	if err != nil {
		t.Fatal(err)
	}
	failID, err := s.Submit("fail", func(context.Context, func(Progress)) error {
		return errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	out.wait(okID)
	out.wait(failID)

	started := make(chan string, 2)
	release := make(chan struct{}) // never closed
	blockID, err := s.Submit("block", gated(started, release, "block"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// While the worker is blocked, a queued job canceled before running
	// must also reach the hook — as must one still queued at Close.
	queuedID, err := s.Submit("queued", noop)
	if err != nil {
		t.Fatal(err)
	}
	drainedID, err := s.Submit("drained", noop)
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(queuedID)
	s.Close() // cancels the running job too

	want := map[string]State{okID: Done, failID: Failed, queuedID: Canceled, drainedID: Canceled, blockID: Canceled}
	for id, state := range want {
		if st := out.wait(id); st.State != state {
			t.Errorf("job %s handed over as %q, want %q", id, st.State, state)
		}
	}
	if st := out.wait(failID); st.Error != "boom" {
		t.Errorf("failed job's error = %q", st.Error)
	}
	if l := s.List(); len(l) != 0 {
		t.Errorf("scheduler still owns %+v", l)
	}
}

func TestProgressMonotonicAndPhaseTimings(t *testing.T) {
	out := newOutcomes()
	s := New(Config{Workers: 1, QueueDepth: 8, OnFinish: out.hook})
	defer s.Close()
	steps := make(chan Progress)
	reported := make(chan struct{})
	id, err := s.Submit("prog", func(ctx context.Context, report func(Progress)) error {
		for p := range steps {
			report(p)
			reported <- struct{}{}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(p Progress, wantDone, wantTotal int) {
		t.Helper()
		steps <- p
		<-reported
		st, _ := s.Status(id)
		if st.Progress.Done != wantDone || st.Progress.Total != wantTotal {
			t.Fatalf("after %+v: progress = %+v, want %d/%d", p, st.Progress, wantDone, wantTotal)
		}
	}
	check(Progress{Phase: "scan"}, 0, 0)
	check(Progress{Phase: "coverage", Done: 0, Total: 100}, 0, 100)
	// A phase transition may shrink the denominator (coverage pruning
	// reduces the execution plan): counters reset with the new phase.
	check(Progress{Phase: "execute", Done: 5, Total: 40}, 5, 40)
	// Within a phase, a stale lower counter must not move progress
	// backwards.
	check(Progress{Phase: "execute", Done: 3, Total: 40}, 5, 40)
	check(Progress{Phase: "execute", Done: 7, Total: 40}, 7, 40)
	check(Progress{Phase: "analyze", Done: 40, Total: 40}, 40, 40)
	close(steps)
	st := out.wait(id)
	if st.State != Done {
		t.Fatalf("state = %s", st.State)
	}
	for _, phase := range []string{"scan", "coverage", "execute", "analyze"} {
		if _, ok := st.PhaseMillis[phase]; !ok {
			t.Errorf("phaseMillis missing %q: %v", phase, st.PhaseMillis)
		}
	}
}

func TestQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	if _, err := s.Submit("run", gated(started, release, "run")); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy, queue empty
	if _, err := s.Submit("q1", noop); err != nil {
		t.Fatalf("submit into empty queue: %v", err)
	}
	if _, err := s.Submit("q2", noop); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestCancelQueuedFreesQueueSlot(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	if _, err := s.Submit("run", gated(started, release, "run")); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy
	queued, err := s.Submit("q", noop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("overflow", noop); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	// Canceling the queued job must free its slot immediately, while
	// the worker is still busy.
	if st, _ := s.Cancel(queued); st.State != Canceled {
		t.Fatalf("cancel = %+v", st)
	}
	if _, err := s.Submit("refill", noop); err != nil {
		t.Fatalf("submit after cancel freed slot: %v", err)
	}
}

func TestCloseCancelsAndRejects(t *testing.T) {
	out := newOutcomes()
	s := New(Config{Workers: 1, QueueDepth: 8, OnFinish: out.hook})
	started := make(chan string, 1)
	release := make(chan struct{}) // never closed
	running, err := s.Submit("running", gated(started, release, "running"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var queuedRan atomic.Bool
	queued, err := s.Submit("queued", func(ctx context.Context, report func(Progress)) error {
		queuedRan.Store(true)
		return ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if st := out.wait(running); st.State != Canceled {
		t.Fatalf("running job after Close = %s, want canceled", st.State)
	}
	if st := out.wait(queued); st.State != Canceled {
		t.Fatalf("queued job after Close = %s, want canceled", st.State)
	}
	// Close must not waste work running queued tasks against a dead
	// context.
	if queuedRan.Load() {
		t.Error("queued task ran during Close")
	}
	if _, err := s.Submit("late", noop); err != ErrClosed {
		t.Fatalf("submit after Close: err = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestUnknownJobID(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if _, ok := s.Status("job-999"); ok {
		t.Error("Status on unknown id")
	}
	if _, ok := s.Wait("job-999"); ok {
		t.Error("Wait on unknown id")
	}
	if _, ok := s.Cancel("job-999"); ok {
		t.Error("Cancel on unknown id")
	}
}

func TestAdvanceIDsSkipsNumbersAlreadyGivenOut(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	s.AdvanceIDs(7)
	s.AdvanceIDs(3) // never backwards
	if id, err := s.Submit("new", noop); err != nil || id != "job-8" {
		t.Fatalf("submit after AdvanceIDs(7) = %s, %v; want job-8", id, err)
	}
}

func TestRetryAfterEstimate(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Close()
	if _, ok := s.RetryAfterEstimate(); ok {
		t.Fatal("estimate available before any job finished")
	}

	// Occupy both workers and queue three jobs, so the estimate sees a
	// known backlog.
	started := make(chan string, 2)
	release := make(chan struct{})
	defer close(release)
	for i := 0; i < 2; i++ {
		if _, err := s.Submit("run", gated(started, release, "run")); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	<-started
	for i := 0; i < 3; i++ {
		if _, err := s.Submit("q", noop); err != nil {
			t.Fatal(err)
		}
	}

	// Seed the duration ring directly (job wall times are not
	// deterministic in a test): mean = 200ms.
	s.noteDuration(100 * time.Millisecond)
	s.noteDuration(300 * time.Millisecond)

	// 3 queued + the rejected job itself = 4 waiting, mean 200ms over 2
	// workers: 400ms.
	est, ok := s.RetryAfterEstimate()
	if !ok {
		t.Fatal("no estimate after durations recorded")
	}
	if est != 400*time.Millisecond {
		t.Fatalf("estimate = %v, want 400ms", est)
	}
}

func TestFinishedJobFeedsRetryEstimate(t *testing.T) {
	out := newOutcomes()
	s := New(Config{Workers: 1, QueueDepth: 4, OnFinish: out.hook})
	defer s.Close()
	id, err := s.Submit("slow", func(ctx context.Context, report func(Progress)) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out.wait(id)
	est, ok := s.RetryAfterEstimate()
	if !ok {
		t.Fatal("no estimate after a job finished")
	}
	if est <= 0 {
		t.Fatalf("estimate = %v, want > 0", est)
	}
}

// TestTerminalJobReleasesTask: a Wait caller may hold a finished job,
// but what only a running job needs must go — the task closure captures
// the whole campaign (project files included). Ran, canceled while
// queued, and drained at Close are the three ways a job ends.
func TestTerminalJobReleasesTask(t *testing.T) {
	out := newOutcomes()
	s := New(Config{Workers: 1, OnFinish: out.hook})
	collected := make(chan string, 3)
	// submit captures a payload with a finalizer in the task closure and
	// drops every other reference to it.
	submit := func(name string, task func(ctx context.Context) error) string {
		payload := &[1 << 16]byte{}
		runtime.SetFinalizer(payload, func(*[1 << 16]byte) { collected <- name })
		id, err := s.Submit(name, func(ctx context.Context, report func(Progress)) error {
			payload[0]++
			return task(ctx)
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	started, release := make(chan struct{}), make(chan struct{})
	ran := submit("ran", func(ctx context.Context) error {
		close(started)
		<-release
		return nil
	})
	<-started // the single worker is busy: the next two stay queued
	canceled := submit("canceled", func(context.Context) error { return nil })
	drained := submit("drained", func(context.Context) error { return nil })
	if st, _ := s.Cancel(canceled); st.State != Canceled {
		t.Fatalf("cancel queued job: %+v", st)
	}
	// Close drains the queue (the third job never runs), then waits for
	// the running one, which the test lets finish.
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	out.wait(drained)
	close(release)
	<-closed

	got := map[string]bool{}
	for deadline := time.Now().Add(5 * time.Second); len(got) < 3 && time.Now().Before(deadline); {
		runtime.GC()
		runtime.GC()
		select {
		case name := <-collected:
			got[name] = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if len(got) != 3 {
		t.Errorf("terminal jobs still pin their task: only %v collected", got)
	}
	for id, want := range map[string]State{ran: Done, canceled: Canceled, drained: Canceled} {
		if st := out.wait(id); st.State != want {
			t.Errorf("job %s ended %s, want %s", id, st.State, want)
		}
	}
}

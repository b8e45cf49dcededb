package scheduler

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// noop is a task that finishes immediately.
func noop(ctx context.Context, report func(Progress)) (any, error) { return nil, nil }

// gated builds a task that signals on started and blocks until release
// is closed (or ctx is canceled, returning the ctx error).
func gated(started chan<- string, release <-chan struct{}, name string) Task {
	return func(ctx context.Context, report func(Progress)) (any, error) {
		started <- name
		select {
		case <-release:
			return name, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func TestDrainOrderingSingleWorker(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 64})
	defer s.Close()
	var mu sync.Mutex
	var got []int
	var ids []string
	for i := 0; i < 20; i++ {
		i := i
		id, err := s.Submit(fmt.Sprintf("t%d", i), func(ctx context.Context, report func(Progress)) (any, error) {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
			return nil, nil
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		st, ok := s.Wait(id)
		if !ok || st.State != Done {
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
	s := New(Config{Workers: 4, QueueDepth: 256})
	defer s.Close()
	const n = 64
	var ran atomic.Int64
	ids := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := s.Submit("c", func(ctx context.Context, report func(Progress)) (any, error) {
				ran.Add(1)
				return nil, nil
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
		if st, ok := s.Wait(id); !ok || st.State != Done {
			t.Fatalf("job %s did not finish: %+v", id, st)
		}
	}
	if ran.Load() != n {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), n)
	}
}

func TestWorkerPoolSizing(t *testing.T) {
	const workers = 3
	s := New(Config{Workers: workers, QueueDepth: 16})
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
		if st, _ := s.Wait(id); st.State != Done {
			t.Fatalf("job %s = %s, want done", id, st.State)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Close()
	started := make(chan string, 1)
	release := make(chan struct{})
	first, err := s.Submit("first", gated(started, release, "first"))
	if err != nil {
		t.Fatal(err)
	}
	<-started // worker is now occupied
	second, err := s.Submit("second", noop)
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
	close(release)
	if st, _ := s.Wait(first); st.State != Done {
		t.Fatalf("first job = %s, want done", st.State)
	}
	// The canceled job must stay canceled and never run.
	if st, _ := s.Wait(second); st.State != Canceled {
		t.Fatalf("second job = %s, want canceled", st.State)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
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
	if _, ok := s.Cancel(id); !ok {
		t.Fatal("cancel: job not found")
	}
	st, _ := s.Wait(id)
	if st.State != Canceled {
		t.Fatalf("state after cancel = %s, want canceled", st.State)
	}
	if st.Error != context.Canceled.Error() {
		t.Fatalf("error = %q", st.Error)
	}
	// Canceling a terminal job is a harmless no-op.
	if st, ok := s.Cancel(id); !ok || st.State != Canceled {
		t.Fatalf("re-cancel = %+v", st)
	}
}

func TestProgressMonotonicAndPhaseTimings(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Close()
	steps := make(chan Progress)
	reported := make(chan struct{})
	id, err := s.Submit("prog", func(ctx context.Context, report func(Progress)) (any, error) {
		for p := range steps {
			report(p)
			reported <- struct{}{}
		}
		return nil, nil
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
	st, _ := s.Wait(id)
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

func TestRetentionEvictsOldestFinished(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16, Retain: 2})
	defer s.Close()
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := s.Submit(fmt.Sprintf("r%d", i), noop)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		s.Wait(id)
	}
	list := s.List()
	if len(list) != 2 {
		t.Fatalf("retained %d jobs, want 2: %+v", len(list), list)
	}
	if list[0].ID != ids[3] || list[1].ID != ids[4] {
		t.Fatalf("retained %s,%s; want newest %s,%s", list[0].ID, list[1].ID, ids[3], ids[4])
	}
	if _, ok := s.Status(ids[0]); ok {
		t.Error("evicted job still visible")
	}
}

func TestCloseCancelsAndRejects(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	started := make(chan string, 1)
	release := make(chan struct{}) // never closed
	running, err := s.Submit("running", gated(started, release, "running"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var queuedRan atomic.Bool
	queued, err := s.Submit("queued", func(ctx context.Context, report func(Progress)) (any, error) {
		queuedRan.Store(true)
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if st, _ := s.Status(running); st.State != Canceled {
		t.Fatalf("running job after Close = %s, want canceled", st.State)
	}
	if st, _ := s.Status(queued); st.State != Canceled {
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

func TestFailedTaskReportsError(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	id, err := s.Submit("boom", func(ctx context.Context, report func(Progress)) (any, error) {
		return nil, fmt.Errorf("scan: bad DSL")
	})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Wait(id)
	if st.State != Failed || st.Error != "scan: bad DSL" {
		t.Fatalf("status = %+v", st)
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
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	id, err := s.Submit("slow", func(ctx context.Context, report func(Progress)) (any, error) {
		time.Sleep(5 * time.Millisecond)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Wait(id)
	est, ok := s.RetryAfterEstimate()
	if !ok {
		t.Fatal("no estimate after a job finished")
	}
	if est <= 0 {
		t.Fatalf("estimate = %v, want > 0", est)
	}
}

// TestTerminalJobReleasesTask: a finished job stays retained for
// polling, but what only a running job needs must go — the task closure
// captures the whole campaign (project files included). Ran, canceled
// while queued, and drained at Close are the three ways a job ends.
func TestTerminalJobReleasesTask(t *testing.T) {
	s := New(Config{Workers: 1})
	collected := make(chan string, 3)
	// submit captures a payload with a finalizer in the task closure and
	// drops every other reference to it.
	submit := func(name string, task func(ctx context.Context) error) string {
		payload := &[1 << 16]byte{}
		runtime.SetFinalizer(payload, func(*[1 << 16]byte) { collected <- name })
		id, err := s.Submit(name, func(ctx context.Context, report func(Progress)) (any, error) {
			payload[0]++
			return nil, task(ctx)
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
	for st, _ := s.Status(drained); st.State != Canceled; st, _ = s.Status(drained) {
		time.Sleep(time.Millisecond)
	}
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
	// ...while the jobs themselves still answer.
	for id, want := range map[string]State{ran: Done, canceled: Canceled, drained: Canceled} {
		if st, ok := s.Status(id); !ok || st.State != want {
			t.Errorf("job %s after release: %+v, want %s", id, st, want)
		}
	}
}

package scheduler

import (
	"testing"
)

func TestSubmitIDRunsUnderChosenID(t *testing.T) {
	out := newOutcomes()
	s := New(Config{Workers: 1, QueueDepth: 8, OnFinish: out.hook})
	defer await(t, "Close", s.Close)
	if err := s.SubmitID("job-7", "recovered", noop); err != nil {
		t.Fatal(err)
	}
	if st := out.wait(t, "job-7"); st.State != Done || st.Name != "recovered" {
		t.Fatalf("recovered job = %+v", st)
	}
	// The ID counter advanced past the recovered job: the next Submit
	// must not collide with it.
	id, err := s.Submit("fresh", noop)
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-8" {
		t.Fatalf("next submit got %s, want job-8", id)
	}
}

func TestSubmitIDRejectsBadIDs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer await(t, "Close", s.Close)
	if err := s.SubmitID("", "x", noop); err == nil {
		t.Fatal("empty ID accepted")
	}
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	if err := s.SubmitID("job-3", "x", gated(started, release, "x")); err != nil {
		t.Fatal(err)
	}
	await(t, "job-3 to start", func() { <-started })
	if err := s.SubmitID("job-3", "x", noop); err == nil {
		t.Fatal("ID of a live job accepted")
	}
	// Non-numeric IDs work too; they just don't advance the counter.
	if err := s.SubmitID("weird-id", "x", noop); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Status("weird-id"); !ok {
		t.Fatal("weird-id not queued")
	}
}

func TestSubmitIDQueueFullAndClosed(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	started := make(chan string, 1)
	release := make(chan struct{})
	if _, err := s.Submit("run", gated(started, release, "run")); err != nil {
		t.Fatal(err)
	}
	await(t, "the running task to start", func() { <-started }) // worker busy, queue empty
	if err := s.SubmitID("job-10", "q", noop); err != nil {
		t.Fatalf("submit into empty queue: %v", err)
	}
	if err := s.SubmitID("job-11", "overflow", noop); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	// Cancel-while-queued frees the slot for a recovered job as well.
	if st, _ := s.Cancel("job-10"); st.State != Canceled {
		t.Fatalf("cancel queued = %+v", st)
	}
	if err := s.SubmitID("job-12", "refill", noop); err != nil {
		t.Fatalf("submit after cancel freed slot: %v", err)
	}
	close(release)
	await(t, "Close", s.Close)
	if err := s.SubmitID("job-13", "late", noop); err != ErrClosed {
		t.Fatalf("err after close = %v, want ErrClosed", err)
	}
}

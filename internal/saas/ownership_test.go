// Tests for who answers for a job: the scheduler while it is queued or
// running, the journal from the moment it finished — with no instant at
// which nobody does, and one history in submission order on top of both.
package saas

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"profipy/internal/campaign"
	"profipy/internal/scheduler"
)

// TestWaitAnswersForJobTheSchedulerForgot: a fast campaign can finish —
// be journaled and dropped by the scheduler — before its own ?wait=true
// submitter gets to wait for it. The answer is still 201 with the
// report, read from the journal, however many campaigns finished in
// between: no bound short of the journal's own stands in the way.
func TestWaitAnswersForJobTheSchedulerForgot(t *testing.T) {
	srv, ts := newAsyncTestServer(t, Options{Cores: 4, Workers: 2})
	first := submitDemo(t, ts.URL, 2)
	for i := 0; i < 40; i++ {
		pollUntilTerminal(t, ts.URL, submitDemo(t, ts.URL, 1))
	}
	pollUntilTerminal(t, ts.URL, first)
	if _, ok := srv.sched.Status(first); ok {
		t.Fatalf("scheduler still owns finished %s", first)
	}

	rec := httptest.NewRecorder()
	srv.answerWhenFinished(rec, first) // what the handler does after the submit
	var out struct {
		ID, Job string
		Report  struct{ Total int }
	}
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
		t.Fatalf("late wait = %d %s", rec.Code, rec.Body)
	}
	if out.ID != campaignIDFor(first) || out.Job != first || out.Report.Total != 2 {
		t.Errorf("late wait answered %+v", out)
	}

	// The same for outcomes without a report, and for DELETE.
	held, release := installGate(t, srv)
	canceled := submitDemo(t, ts.URL, 2)
	<-held
	deleteJob(t, ts.URL, canceled)
	release()
	pollUntilTerminal(t, ts.URL, canceled)
	rec = httptest.NewRecorder()
	if srv.answerWhenFinished(rec, canceled); rec.Code != http.StatusConflict {
		t.Errorf("late wait on a canceled job = %d %s", rec.Code, rec.Body)
	}
	if code, st := deleteJob(t, ts.URL, first); code != http.StatusAccepted || st.State != scheduler.Done || st.Campaign == "" {
		t.Errorf("DELETE on a finished job = %d %+v, want 202 and the job as it ended", code, st)
	}
	if code, _ := deleteJob(t, ts.URL, "job-9999"); code != http.StatusNotFound {
		t.Errorf("DELETE on an unknown job = %d", code)
	}
}

// jobsModel is what TestJobOwnershipInterleavings expects of the
// service: every job ever submitted, in submission order, and where each
// one is in its life. One worker, so at most one job runs — held at the
// gate in its scan phase — and the rest wait behind it in order.
type jobsModel struct {
	order  []string
	state  map[string]scheduler.State
	held   string
	queued []string
}

// TestJobOwnershipInterleavings drives seeded interleavings of submit,
// cancel-queued, cancel-running, finish and daemon reopen against one
// data directory. After every step GET /api/v1/jobs must be the journal
// fold plus the live jobs as one list in submission order, agreeing
// with the by-ID route entry for entry — and all the while a poller
// asks for every job ever submitted: none may be missing at any moment,
// in particular not between its task returning and its journal line
// being durable.
func TestJobOwnershipInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runOwnershipInterleaving(t, seed) })
	}
}

func runOwnershipInterleaving(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	m := jobsModel{state: map[string]scheduler.State{}}

	// svc guards the current server against the poller: a reopen swaps it.
	var svc sync.RWMutex
	var srv *Server
	var ts *httptest.Server
	running := make(chan struct{}, 1) // a campaign reached the gate
	proceed := make(chan struct{})    // the test lets it go on
	open := func() {
		var err error
		if srv, err = NewServerWithOptions(Options{Cores: 2, Workers: 1, DataDir: dir}); err != nil {
			t.Fatal(err)
		}
		srv.testProgressHook = func(p campaign.Progress) {
			if p.Phase == campaign.PhaseScan {
				running <- struct{}{}
				<-proceed
			}
		}
		ts = httptest.NewServer(srv.Handler())
	}
	closeDown := func() {
		done := make(chan struct{})
		go func() { ts.Close(); srv.Close(); close(done) }()
		for {
			select {
			case proceed <- struct{}{}: // Close waits for the held campaign
			case <-done:
				return
			}
		}
	}
	open()
	t.Cleanup(func() { closeDown() })

	// The poller: every job the model knows must answer 200, always, and
	// never move backwards.
	var known sync.Mutex
	var ids []string
	stop := make(chan struct{})
	var polled sync.WaitGroup
	polled.Add(1)
	go func() {
		defer polled.Done()
		last := map[string]scheduler.State{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			known.Lock()
			snapshot := append([]string(nil), ids...)
			known.Unlock()
			for _, id := range snapshot {
				svc.RLock()
				resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
				svc.RUnlock()
				if err != nil {
					t.Errorf("poll %s: %v", id, err)
					return
				}
				var st scheduler.Status
				derr := json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || derr != nil || st.ID != id {
					t.Errorf("poll %s = %d %+v: a submitted job must always answer", id, resp.StatusCode, st)
					return
				}
				if stateRank[st.State] < stateRank[last[id]] {
					t.Errorf("poll %s: %s after %s", id, st.State, last[id])
				}
				last[id] = st.State
			}
		}
	}()
	defer func() { close(stop); polled.Wait() }()

	awaitGate := func() {
		t.Helper()
		select {
		case <-running:
		case <-time.After(30 * time.Second):
			t.Fatal("no campaign reached the gate")
		}
	}
	// promote moves the head of the queue to the gate once the worker is free.
	promote := func() {
		t.Helper()
		m.held = ""
		if len(m.queued) > 0 {
			awaitGate()
			m.held, m.queued = m.queued[0], m.queued[1:]
			m.state[m.held] = scheduler.Running
		}
	}
	check := func(step string) {
		t.Helper()
		list := listJobs(t, ts.URL)
		var got []string
		for _, st := range list {
			got = append(got, st.ID)
			if st.State != m.state[st.ID] {
				t.Errorf("%s: %s listed as %s, want %s", step, st.ID, st.State, m.state[st.ID])
			}
			if byID := getJob(t, ts.URL, st.ID); !reflect.DeepEqual(byID, st) {
				t.Errorf("%s: list and by-ID views differ:\n list %+v\nby-ID %+v", step, st, byID)
			}
			// One owner: the scheduler has exactly the live jobs (it lets go
			// of a finished one a moment after the journal has it).
			owned := func() bool { _, ok := srv.sched.Status(st.ID); return ok }
			for deadline := time.Now().Add(5 * time.Second); st.State.Terminal() && owned() && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if e, filed := srv.store.Job(st.ID); owned() == st.State.Terminal() || !filed || e.Terminal() != st.State.Terminal() {
				t.Errorf("%s: %s is %s, but scheduler owns it = %v and journal has it terminal = %v", step, st.ID, st.State, owned(), e.Terminal())
			}
		}
		if !reflect.DeepEqual(got, m.order) {
			t.Fatalf("%s: listed %v, want submission order %v", step, got, m.order)
		}
	}

	for step := 0; step < 30; step++ {
		ops := []string{"submit", "submit"}
		if len(m.queued) > 0 {
			ops = append(ops, "cancel-queued")
		}
		if m.held != "" {
			ops = append(ops, "cancel-running", "finish", "finish")
		}
		if step > 0 {
			ops = append(ops, "reopen")
		}
		op := ops[rng.Intn(len(ops))]
		switch op {
		case "submit":
			id := submitDemo(t, ts.URL, 1+rng.Intn(2))
			m.order = append(m.order, id)
			m.state[id] = scheduler.Queued
			m.queued = append(m.queued, id)
			known.Lock()
			ids = append(ids, id)
			known.Unlock()
			if m.held == "" {
				promote()
			}
		case "cancel-queued":
			i := rng.Intn(len(m.queued))
			id := m.queued[i]
			if code, st := deleteJob(t, ts.URL, id); code != http.StatusAccepted || st.State != scheduler.Canceled {
				t.Fatalf("cancel queued %s = %d %+v", id, code, st)
			}
			m.queued = append(m.queued[:i:i], m.queued[i+1:]...)
			m.state[id] = scheduler.Canceled
		case "cancel-running", "finish":
			id, want := m.held, scheduler.Done
			if op == "cancel-running" {
				want = scheduler.Canceled
				if code, _ := deleteJob(t, ts.URL, id); code != http.StatusAccepted {
					t.Fatalf("cancel running %s = %d", id, code)
				}
			}
			proceed <- struct{}{}
			if st, _ := pollUntilTerminal(t, ts.URL, id); st.State != want {
				t.Fatalf("%s %s ended %s", op, id, st.State)
			}
			m.state[id] = want
			promote()
		case "reopen":
			// A graceful stop cancels what is live; the next process finds
			// all of it in the journal and nothing to re-admit.
			svc.Lock()
			closeDown()
			open()
			svc.Unlock()
			for _, id := range m.queued {
				m.state[id] = scheduler.Canceled
			}
			if m.held != "" {
				// Released at the gate while Close was canceling it: it may
				// have seen the cancellation or have run to its end first.
				st, ok := srv.job(srv.sched.Status, m.held)
				if !ok || !st.State.Terminal() {
					t.Fatalf("%s after reopen = %+v, %v", m.held, st, ok)
				}
				m.state[m.held] = st.State
			}
			m.held, m.queued = "", nil
		}
		t.Logf("step %d: %s", step, op)
		check(fmt.Sprintf("step %d (%s)", step, op))
	}
}

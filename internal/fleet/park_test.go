package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"profipy/internal/obs"
	"profipy/internal/remote"
)

// long is a wait no test sits out: a parked request that is not
// released fails its test by the timeout in await.
const long = time.Minute

type leaseResult struct {
	lease remote.Lease
	ok    bool
	err   error
}

// look notes when the worker last looked at the queue; the returned
// func waits for its next look. Every look stamps lastSeen from the
// (auto-advancing) test clock: a changed stamp with no answer means the
// request is parked.
func look(t *testing.T, c *Coordinator, worker string) (next func()) {
	t.Helper()
	c.mu.Lock()
	w := c.workers[worker]
	seen := w.lastSeen
	c.mu.Unlock()
	return func() {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
			c.mu.Lock()
			looked := !w.lastSeen.Equal(seen)
			c.mu.Unlock()
			if looked {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("lease request never looked at the queue")
			}
		}
	}
}

// park starts a lease request with the given wait in a goroutine and
// returns once it is parked (its first look found nothing).
func park(t *testing.T, c *Coordinator, ctx context.Context, worker string, wait time.Duration) <-chan leaseResult {
	t.Helper()
	parked := look(t, c, worker)
	out := make(chan leaseResult, 1)
	go func() {
		l, ok, err := c.Lease(ctx, worker, wait)
		out <- leaseResult{l, ok, err}
	}()
	parked()
	return out
}

func await(t *testing.T, ch <-chan leaseResult) leaseResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("parked lease request was not released")
		return leaseResult{}
	}
}

// tickingCoordinator's clock advances a nanosecond per reading, so
// successive looks at the queue are distinguishable.
func tickingCoordinator(reg *obs.Registry) (*Coordinator, *clock) {
	ck := newClock()
	return New(Config{LeaseTTL: ttl, Reg: reg, now: func() time.Time {
		ck.advance(time.Nanosecond)
		return ck.now()
	}}), ck
}

func TestParkedLeaseGrantedByStartJob(t *testing.T) {
	reg := obs.NewRegistry()
	c, _ := tickingCoordinator(reg)
	w := c.RegisterWorker(remote.RegisterRequest{})
	parked := park(t, c, context.Background(), w.ID, long)
	startTestJob(c, "camp", 4, 1)
	if r := await(t, parked); !r.ok || r.lease.Campaign != "camp" || r.lease.Shard != 0 {
		t.Fatalf("parked request got %+v", r)
	}
	reqs := reg.CounterVec("profipy_fleet_lease_requests_total", "", "result")
	if reqs.With("woken").Value() != 1 || reqs.With("granted").Value() != 0 {
		t.Errorf("lease_requests_total: woken=%v granted=%v, want 1 and 0",
			reqs.With("woken").Value(), reqs.With("granted").Value())
	}
}

func TestParkedLeaseGrantedByExpiry(t *testing.T) {
	c, ck := tickingCoordinator(nil)
	dead := c.RegisterWorker(remote.RegisterRequest{Name: "dead"})
	w := c.RegisterWorker(remote.RegisterRequest{Name: "idle"})
	startTestJob(c, "camp", 4, 1)
	l1, ok := lease(c, dead.ID)
	if !ok {
		t.Fatal("no lease granted")
	}
	parked := park(t, c, context.Background(), w.ID, long)
	ck.advance(ttl + time.Second)
	if n := c.Sweep(); n != 1 {
		t.Fatalf("sweep expired %d leases, want 1", n)
	}
	if r := await(t, parked); !r.ok || r.lease.Shard != l1.Shard || r.lease.Token == l1.Token {
		t.Fatalf("parked request got %+v, want shard %d under a fresh token", r, l1.Shard)
	}
}

// A worker that asks for work holds nothing: the shard still leased to
// it is granted again at once, under a new token, and whatever else
// became pending in the same look goes to the parked requests.
func TestAskingReleasesTheAskersLease(t *testing.T) {
	reg := obs.NewRegistry()
	c, ck := tickingCoordinator(reg)
	dead := c.RegisterWorker(remote.RegisterRequest{Name: "dead"})
	asker := c.RegisterWorker(remote.RegisterRequest{Name: "asker"})
	idle := c.RegisterWorker(remote.RegisterRequest{Name: "idle"})
	startTestJob(c, "camp", 8, 2)
	if _, ok := lease(c, dead.ID); !ok { // shard 0
		t.Fatal("no lease granted")
	}
	orphan, ok := lease(c, asker.ID) // shard 1: say the response was lost
	if !ok || orphan.Shard != 1 {
		t.Fatalf("lease = %+v, %v", orphan, ok)
	}
	parked := park(t, c, context.Background(), idle.ID, long)

	// Shard 0's holder falls silent; the asker keeps heartbeating.
	ck.advance(ttl * 4 / 5)
	c.Heartbeat(asker.ID)
	ck.advance(ttl * 2 / 5)
	again, ok := lease(c, asker.ID)
	if !ok || again.Shard != 0 {
		t.Fatalf("asker got %+v, %v; want the oldest pending shard, 0", again, ok)
	}
	if r := await(t, parked); !r.ok || r.lease.Shard != 1 || r.lease.Token == orphan.Token {
		t.Fatalf("parked request got %+v, want the released shard 1 under a fresh token", r)
	}
	if complete(c, orphan) {
		t.Error("the released lease's token still completes its shard")
	}
	if rd := reg.Counter("profipy_fleet_shard_redispatch_total", "").Value(); rd != 2 {
		t.Errorf("shard_redispatch_total = %v, want 2 (one expiry, one release)", rd)
	}
	if ex := reg.Counter("profipy_fleet_lease_expiries_total", "").Value(); ex != 1 {
		t.Errorf("lease_expiries_total = %v, want 1: a release is not an expiry", ex)
	}
}

func TestParkedLeaseReturnsEmpty(t *testing.T) {
	c, _ := tickingCoordinator(nil)
	w := c.RegisterWorker(remote.RegisterRequest{})

	t.Run("at its deadline", func(t *testing.T) {
		const wait = 30 * time.Millisecond
		start := time.Now()
		if r := await(t, park(t, c, context.Background(), w.ID, wait)); r.ok || r.err != nil {
			t.Fatalf("got %+v, want empty", r)
		}
		if d := time.Since(start); d < wait {
			t.Errorf("answered after %v, before its %v wait was over", d, wait)
		}
	})
	t.Run("when the request is canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		parked := park(t, c, ctx, w.ID, long)
		cancel()
		if r := await(t, parked); r.ok || r.err != nil {
			t.Fatalf("got %+v, want empty", r)
		}
	})
	t.Run("when the coordinator closes", func(t *testing.T) {
		parked := park(t, c, context.Background(), w.ID, long)
		c.Close()
		c.Close() // idempotent
		if r := await(t, parked); r.ok || r.err != nil {
			t.Fatalf("got %+v, want empty", r)
		}
		// Closed: nobody parks any more, pending work is still granted.
		if r := await(t, park(t, c, context.Background(), w.ID, long)); r.ok {
			t.Fatalf("got %+v from an empty queue", r)
		}
		startTestJob(c, "camp", 4, 1)
		if _, ok := lease(c, w.ID); !ok {
			t.Error("closed coordinator stopped granting pending shards")
		}
	})
}

// TestCloseLeavesNoParkedRequestBehind parks lease requests over HTTP,
// closes the coordinator and then the server: Close must answer them all
// (the server's own Close waits for open requests) and no goroutine of
// theirs may outlive it.
func TestCloseLeavesNoParkedRequestBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	c, _ := tickingCoordinator(nil)
	mux := http.NewServeMux()
	c.Mount(mux)
	ts := httptest.NewServer(mux)
	hc := ts.Client()

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := c.RegisterWorker(remote.RegisterRequest{})
		parked := look(t, c, w.ID)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The heartbeat interval (ttl/3) caps the minute asked for.
			resp, err := hc.Post(ts.URL+"/api/v1/workers/"+w.ID+"/lease?wait=60000", "", nil)
			if err != nil {
				t.Errorf("parked lease request: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Errorf("parked lease request answered %d, want 204", resp.StatusCode)
			}
		}()
		parked()
	}
	start := time.Now()
	c.Close()
	wg.Wait()
	ts.Close()
	if d := time.Since(start); d > time.Second {
		t.Errorf("closing under %d parked requests took %v", n, d)
	}
	hc.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLeaseAnswersUnknownWorker410: a worker the coordinator never
// registered (it restarted) is told to re-register, not to wait.
func TestLeaseAnswersUnknownWorker410(t *testing.T) {
	c, _ := newTestCoordinator()
	mux := http.NewServeMux()
	c.Mount(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/workers/w9999/lease?wait=60000", nil))
	if rec.Code != http.StatusGone {
		t.Fatalf("lease for an unknown worker answered %d, want 410", rec.Code)
	}
}

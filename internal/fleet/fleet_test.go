package fleet

import (
	"context"
	"sync"
	"testing"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/obs"
	"profipy/internal/remote"
	"profipy/internal/scanner"
)

// clock is a manually advanced time source injected via Config.now, so
// lease-expiry tests never sleep.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1_700_000_000, 0)} }

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

const ttl = 10 * time.Second

func newTestCoordinator() (*Coordinator, *clock) {
	ck := newClock()
	return New(Config{LeaseTTL: ttl, now: ck.now}), ck
}

func startTestJob(c *Coordinator, camp string, n, shards int) *Job {
	ranges := make([][2]int, shards)
	for i := range ranges {
		ranges[i] = [2]int{i * n / shards, (i + 1) * n / shards}
	}
	return c.StartJob(camp, remote.CampaignSpec{Name: camp, PlanHash: "h", NumExperiments: n}, n, ranges)
}

// lease asks for a shard without waiting.
func lease(c *Coordinator, worker string) (remote.Lease, bool) {
	l, ok, _ := c.Lease(context.Background(), worker, 0)
	return l, ok
}

// complete reports l's shard of "camp" done, with no records.
func complete(c *Coordinator, l remote.Lease) bool {
	_, _, ok := c.Complete("camp", l.Shard, l.Token, nil)
	return ok
}

func rec(i int) analysis.Record {
	return analysis.Record{FaultType: "T", Point: scanner.InjectionPoint{Line: i}}
}

func TestLeaseLifecycle(t *testing.T) {
	c, _ := newTestCoordinator()
	w := c.RegisterWorker(remote.RegisterRequest{Name: "a"})
	if w.ID == "" || w.LeaseTTLMS != ttl.Milliseconds() {
		t.Fatalf("bad registration: %+v", w)
	}
	job := startTestJob(c, "camp", 10, 2)

	l1, ok := lease(c, w.ID)
	if !ok || l1.Shard != 0 || l1.Lo != 0 || l1.Hi != 5 {
		t.Fatalf("first lease = %+v, %v", l1, ok)
	}
	// A worker runs one shard at a time: the second shard goes to a
	// second worker, and a third has nothing to get.
	w2 := c.RegisterWorker(remote.RegisterRequest{Name: "b"})
	l2, ok := lease(c, w2.ID)
	if !ok || l2.Shard != 1 {
		t.Fatalf("second lease = %+v, %v", l2, ok)
	}
	w3 := c.RegisterWorker(remote.RegisterRequest{Name: "c"})
	if _, ok := lease(c, w3.ID); ok {
		t.Fatal("third lease granted with no pending shard")
	}

	lines := []remote.RecordLine{{Idx: 0, Kind: remote.KindMutated, Rec: rec(0)}}
	if !c.Ingest("camp", l1.Shard, l1.Token, lines) {
		t.Fatal("ingest with live token rejected")
	}
	if !complete(c, l1) {
		t.Fatal("complete with live token rejected")
	}
	if complete(c, l1) {
		t.Fatal("double complete accepted")
	}
	if !job.IsDelivered(0) || job.IsDelivered(1) {
		t.Fatalf("delivered = %v/%v for indices 0/1, want exactly the ingested one", job.IsDelivered(0), job.IsDelivered(1))
	}
}

func TestLeaseExpiryAndRedispatch(t *testing.T) {
	c, ck := newTestCoordinator()
	w1 := c.RegisterWorker(remote.RegisterRequest{Name: "w1"})
	startTestJob(c, "camp", 10, 1)

	l1, ok := lease(c, w1.ID)
	if !ok {
		t.Fatal("no lease granted")
	}
	ck.advance(ttl + time.Second)
	if n := c.Sweep(); n != 1 {
		t.Fatalf("sweep expired %d leases, want 1", n)
	}

	// The stale token must be rejected everywhere.
	if c.Ingest("camp", l1.Shard, l1.Token, []remote.RecordLine{{Idx: 1, Rec: rec(1)}}) {
		t.Fatal("ingest with expired token accepted")
	}
	if complete(c, l1) {
		t.Fatal("complete with expired token accepted")
	}

	// The orphaned shard re-dispatches with a fresh fencing token.
	w2 := c.RegisterWorker(remote.RegisterRequest{Name: "w2"})
	l2, ok := lease(c, w2.ID)
	if !ok || l2.Shard != l1.Shard {
		t.Fatalf("re-dispatch lease = %+v, %v", l2, ok)
	}
	if l2.Token == l1.Token {
		t.Fatal("re-dispatched lease reused the old fencing token")
	}
	if !c.Ingest("camp", l2.Shard, l2.Token, []remote.RecordLine{{Idx: 1, Rec: rec(1)}}) {
		t.Fatal("ingest with fresh token rejected")
	}
}

func TestHeartbeatRenewsLeases(t *testing.T) {
	c, ck := newTestCoordinator()
	w := c.RegisterWorker(remote.RegisterRequest{})
	startTestJob(c, "camp", 10, 1)
	if _, ok := lease(c, w.ID); !ok {
		t.Fatal("no lease granted")
	}

	// Heartbeating every 80% of the TTL keeps the lease alive across
	// several would-be expiries.
	for i := 0; i < 3; i++ {
		ck.advance(ttl * 4 / 5)
		if !c.Heartbeat(w.ID) {
			t.Fatal("heartbeat for known worker rejected")
		}
		if n := c.Sweep(); n != 0 {
			t.Fatalf("lease expired despite heartbeats (sweep=%d)", n)
		}
	}
	if c.LiveWorkers() != 1 {
		t.Fatalf("live workers = %d, want 1", c.LiveWorkers())
	}

	// Silence kills it.
	ck.advance(ttl + time.Second)
	if n := c.Sweep(); n != 1 {
		t.Fatalf("sweep expired %d leases after silence, want 1", n)
	}
	if c.LiveWorkers() != 0 {
		t.Fatalf("live workers = %d after silence, want 0", c.LiveWorkers())
	}
}

func TestIngestRenewsLease(t *testing.T) {
	c, ck := newTestCoordinator()
	w := c.RegisterWorker(remote.RegisterRequest{})
	startTestJob(c, "camp", 10, 1)
	l, _ := lease(c, w.ID)

	// A worker whose heartbeat goroutine starves but keeps shipping
	// records stays leased: receipt of records proves liveness.
	for i := 0; i < 3; i++ {
		ck.advance(ttl * 4 / 5)
		if !c.Ingest("camp", l.Shard, l.Token, []remote.RecordLine{{Idx: i, Rec: rec(i)}}) {
			t.Fatalf("ingest %d rejected", i)
		}
		if n := c.Sweep(); n != 0 {
			t.Fatalf("lease expired despite record flow (sweep=%d)", n)
		}
	}
}

func TestDeliveryDedupe(t *testing.T) {
	c, _ := newTestCoordinator()
	job := startTestJob(c, "camp", 3, 1)

	if !job.Deliver(0, remote.KindMutated, rec(0)) {
		t.Fatal("first delivery rejected")
	}
	if job.Deliver(0, remote.KindMutated, rec(0)) {
		t.Fatal("duplicate delivery accepted")
	}
	if !job.IsDelivered(0) || job.IsDelivered(1) {
		t.Fatal("IsDelivered wrong")
	}
	job.Deliver(1, remote.KindInjected, rec(1))
	job.Deliver(2, remote.KindLocal, rec(2))

	var got []Delivery
	for d := range job.Deliveries() {
		got = append(got, d)
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d records, want 3 (channel must close after the last)", len(got))
	}
	if got[0].Idx != 0 || got[0].Kind != remote.KindMutated {
		t.Fatalf("first delivery = %+v", got[0])
	}
}

func TestClaimLocal(t *testing.T) {
	c, _ := newTestCoordinator()
	w := c.RegisterWorker(remote.RegisterRequest{})
	job := startTestJob(c, "camp", 10, 3)
	if _, ok := lease(c, w.ID); !ok {
		t.Fatal("no lease granted")
	}

	// Non-forcing claims take only pending shards (1 and 2).
	var claimed int
	for {
		_, _, ok := job.ClaimLocal(false)
		if !ok {
			break
		}
		claimed++
	}
	if claimed != 2 {
		t.Fatalf("claimed %d pending shards, want 2", claimed)
	}
	// Forcing revokes the leased shard too (cancellation drain).
	if _, _, ok := job.ClaimLocal(true); !ok {
		t.Fatal("forced claim did not revoke the leased shard")
	}
	if _, _, ok := job.ClaimLocal(true); ok {
		t.Fatal("claim succeeded with no shards left")
	}
}

func TestUnknownWorkerMustReregister(t *testing.T) {
	c, _ := newTestCoordinator()
	startTestJob(c, "camp", 4, 1)
	if c.Heartbeat("w9999") {
		t.Fatal("heartbeat for unknown worker accepted")
	}
	if _, ok := lease(c, "w9999"); ok {
		t.Fatal("lease granted to unknown worker")
	}
}

func TestCloseJobInvalidatesTokens(t *testing.T) {
	c, _ := newTestCoordinator()
	w := c.RegisterWorker(remote.RegisterRequest{})
	startTestJob(c, "camp", 4, 1)
	l, _ := lease(c, w.ID)
	c.CloseJob("camp")
	if c.Ingest("camp", l.Shard, l.Token, []remote.RecordLine{{Idx: 0, Rec: rec(0)}}) {
		t.Fatal("ingest accepted after job close")
	}
	if _, ok := c.Spec("camp", nil); ok {
		t.Fatal("spec served after job close")
	}
}

// TestIngestLatencyUsesInjectedClock pins the Ingest latency measurement
// to Config.now: with a clock that advances a fixed step per reading,
// the observed batch latency is exactly the injected steps elapsed
// between Ingest's first and last reading — a wall-clock measurement
// would record microseconds and break the determinism the injected
// clock exists for.
func TestIngestLatencyUsesInjectedClock(t *testing.T) {
	const step = 3 * time.Millisecond
	ck := newClock()
	reg := obs.NewRegistry()
	// Auto-advancing reader: every clock reading moves time forward by
	// one step, so durations measured on this clock are deterministic
	// multiples of step.
	now := func() time.Time {
		ck.advance(step)
		return ck.now()
	}
	c := New(Config{LeaseTTL: ttl, Reg: reg, now: now})
	w := c.RegisterWorker(remote.RegisterRequest{Name: "a"})
	startTestJob(c, "camp", 4, 1)
	l, ok := lease(c, w.ID)
	if !ok {
		t.Fatal("no lease granted")
	}
	if !c.Ingest("camp", l.Shard, l.Token, []remote.RecordLine{{Idx: 0, Rec: rec(0)}}) {
		t.Fatal("ingest rejected")
	}
	// Ingest reads the clock twice after its start reading (lease
	// renewal, then the end of the measurement): exactly 2 steps.
	h := reg.Histogram("profipy_fleet_ingest_seconds", "", nil)
	if got, want := h.Sum(), (2 * step).Seconds(); got != want {
		t.Fatalf("ingest latency sum = %v, want %v (injected clock)", got, want)
	}
}

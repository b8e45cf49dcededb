package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/campaign"
	"profipy/internal/executor"
	"profipy/internal/fleet"
	"profipy/internal/kvclient"
	"profipy/internal/obs"
	"profipy/internal/remote"
	"profipy/internal/sandbox"
)

// call is one exchange a worker had with the control plane.
type call struct {
	route  string // last path segment: lease, spec, records, complete, …
	status int
	files  int // files in a spec response
}

// wire is the worker's transport with a ledger: every exchange is
// recorded in order, and lose, when set, decides which responses never
// reach the worker (the request was served all the same).
type wire struct {
	mu    sync.Mutex
	calls []call
	lose  func(call) bool
	// leasesSent counts lease requests on their way out, answered or not.
	leasesSent atomic.Int64
}

func (w *wire) RoundTrip(req *http.Request) (*http.Response, error) {
	if path.Base(req.URL.Path) == "lease" {
		w.leasesSent.Add(1)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	c := call{route: path.Base(req.URL.Path), status: resp.StatusCode}
	if c.route == "spec" && resp.StatusCode == http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var spec remote.CampaignSpec
		_ = json.Unmarshal(body, &spec)
		c.files = len(spec.Files)
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.calls = append(w.calls, c)
	if w.lose != nil && w.lose(c) {
		resp.Body.Close()
		return nil, errors.New("response lost")
	}
	return resp, nil
}

// ledger returns the exchanges since the last call and forgets them.
func (w *wire) ledger() []call {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.calls
	w.calls = nil
	return out
}

// settle waits until the worker has the answers to n completions: a
// campaign ends when its last records are delivered, a moment before
// the completion that carried them is answered.
func (w *wire) settle(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		got := count(w.calls, "complete", 0)
		w.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker saw %d of %d completions answered", got, n)
		}
	}
}

func count(calls []call, route string, status int) int {
	n := 0
	for _, c := range calls {
		if c.route == route && (status == 0 || c.status == status) {
			n++
		}
	}
	return n
}

// rig is a control plane reduced to its fleet: a coordinator behind a
// real HTTP server whose handler can be swapped for another
// coordinator's, as a restart would.
type rig struct {
	t     *testing.T
	reg   *obs.Registry
	coord *fleet.Coordinator
	mux   atomic.Pointer[http.ServeMux]
	ts    *httptest.Server
}

func newRig(t *testing.T, ttl time.Duration) *rig {
	r := &rig{t: t}
	r.boot(ttl)
	r.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.mux.Load().ServeHTTP(w, req)
	}))
	t.Cleanup(r.ts.Close)
	return r
}

// boot replaces the coordinator with a fresh one that knows nothing.
func (r *rig) boot(ttl time.Duration) {
	r.reg = obs.NewRegistry()
	r.coord = fleet.New(fleet.Config{LeaseTTL: ttl, Reg: r.reg})
	mux := http.NewServeMux()
	r.coord.Mount(mux)
	r.mux.Store(mux)
}

// start runs an agent until the test ends (or the agent dies) and
// returns it with the channel its Run error arrives on.
func (r *rig) start(cfg Config) (*Agent, <-chan error) {
	cfg.Server = r.ts.URL
	a := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done, stopped := make(chan error, 1), make(chan struct{})
	go func() {
		done <- a.Run(ctx)
		close(stopped)
	}()
	r.t.Cleanup(func() {
		cancel()
		select {
		case <-stopped:
		case <-time.After(5 * time.Second):
			r.t.Error("agent did not stop")
		}
	})
	return a, done
}

func (r *rig) awaitWorkers(n int) {
	r.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); r.coord.LiveWorkers() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			r.t.Fatalf("%d/%d workers registered", r.coord.LiveWorkers(), n)
		}
	}
}

// run executes a campaign with every shard on the fleet and returns its
// records, canonically encoded (nil, and the test failed, on error).
func (r *rig) run(id string, build func(*sandbox.Runtime, int64) *campaign.Campaign, seed int64, shards int) []byte {
	r.t.Helper()
	c := build(sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 4, Seed: 20}), seed)
	c.Executor = &executor.Remote{
		Coord: r.coord, CampaignID: id, Shards: shards, WaitForWorkers: true, Reg: r.reg,
		Spec: specOf(c),
	}
	res, err := c.Run()
	if err != nil {
		r.t.Errorf("campaign %s: %v", id, err)
		return nil
	}
	return encode(r.t, res.Records)
}

// specOf serializes a kvclient campaign the way the SaaS layer does,
// minus the plan fields the campaign workflow fills in.
func specOf(c *campaign.Campaign) remote.CampaignSpec {
	return remote.CampaignSpec{
		Name: c.Name, Files: c.Files, ScanFiles: c.ScanFiles, Faultload: c.Faultload,
		Entry: c.Workload.Entry, WorkloadFiles: c.Workload.Files,
		TimeoutNS: c.Workload.TimeoutNS, MaxSteps: c.Workload.MaxSteps, EnvName: "kvclient",
		ImageName: c.Image.Name, ImageMemMB: c.Image.MemMB, ImageIOMBps: c.Image.IOMBps, Seed: c.Seed,
		ProjectDigest: campaign.ProjectDigest(c.Files, c.ScanFiles, c.Workload.Files),
	}
}

func encode(t *testing.T, recs []analysis.Record) []byte {
	t.Helper()
	data, err := json.Marshal(recs)
	if err != nil {
		t.Error(err)
	}
	return data
}

// local is the reference: the same campaign on the in-process executor.
func local(t *testing.T, build func(*sandbox.Runtime, int64) *campaign.Campaign, seed int64) []byte {
	t.Helper()
	res, err := build(sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 4, Seed: 20}), seed).Run()
	if err != nil {
		t.Fatal(err)
	}
	return encode(t, res.Records)
}

func (r *rig) counter(name string) float64 { return r.reg.Counter(name, "").Value() }

// TestShardCostsOneRoundTrip counts one warm worker's exchanges over two
// campaigns on one project. Per campaign of S shards: one lease granted
// (to the idle request the campaign woke), one spec, S completions, the
// intermediate batches of shards longer than a batch — and no lease
// request while a shard of the campaign was still to come. The second
// campaign's spec arrives without files, its project is a prepared hit,
// and its records are those of a cold worker and of Local.
func TestShardCostsOneRoundTrip(t *testing.T) {
	const shards, batch = 4, 3
	r := newRig(t, 10*time.Second)
	w := &wire{}
	var logs bytes.Buffer
	r.start(Config{Name: "warm", Parallel: 1, BatchSize: batch, Poll: 50 * time.Millisecond,
		HTTPClient: &http.Client{Transport: w}, Log: slog.New(slog.NewTextHandler(&logs, nil))})
	r.awaitWorkers(1)

	check := func(id string, got []byte, n int, wantFiles bool) {
		t.Helper()
		w.settle(t, shards)
		calls := w.ledger()
		// Idle polls before the campaign and after its last completion
		// are not the campaign's: cut the ledger at its granted lease and
		// its last completion.
		first, last := -1, -1
		for i, c := range calls {
			if c.route == "lease" && c.status == http.StatusOK && first < 0 {
				first = i
			}
			if c.route == "complete" {
				last = i
			}
		}
		if first < 0 || last < first {
			t.Fatalf("%s: no granted lease before the last completion in %+v", id, calls)
		}
		calls = calls[first : last+1]
		records := 0
		for i := 0; i < shards; i++ {
			lo, hi := executor.Shard(n, shards, i)
			records += (hi - lo - 1) / batch // the last batch rides with the completion
		}
		for route, want := range map[string]int{"lease": 1, "spec": 1, "complete": shards, "records": records} {
			if got := count(calls, route, 0); got != want {
				t.Errorf("%s: %d %s requests, want %d", id, got, route, want)
			}
		}
		if n := count(calls, "complete", http.StatusOK); n != shards-1 {
			t.Errorf("%s: %d completions were answered with the next lease, want %d", id, n, shards-1)
		}
		for _, c := range calls {
			if c.route == "spec" && (c.files > 0) != wantFiles {
				t.Errorf("%s: spec response carried %d files (want files: %v)", id, c.files, wantFiles)
			}
			if c.status/100 != 2 {
				t.Errorf("%s: %s answered %d", id, c.route, c.status)
			}
		}
		if len(got) == 0 {
			t.Errorf("%s: no records", id)
		}
	}

	gotB := r.run("c1", kvclient.CampaignB, 202, shards)
	check("c1", gotB, 66, true)
	gotC := r.run("c2", kvclient.CampaignC, 303, shards)
	check("c2", gotC, 37, false)

	if ing, dup := r.counter("profipy_fleet_records_ingested_total"), r.counter("profipy_fleet_records_duplicate_total"); ing != 66+37 || dup != 0 {
		t.Errorf("ingested %v records (%v duplicates), want %d and none", ing, dup, 66+37)
	}
	for _, want := range []string{"prepared=miss", "prepared=hit", "elided=true", "campaign=c2", "shard=3", "lease=t"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("worker log never says %q:\n%s", want, logs.String())
		}
	}

	if want := local(t, kvclient.CampaignB, 202); !bytes.Equal(gotB, want) {
		t.Error("campaign B through the fleet differs from Local")
	}
	wantC := local(t, kvclient.CampaignC, 303)
	if !bytes.Equal(gotC, wantC) {
		t.Error("campaign C on a warm worker (prepared hit, spec without files) differs from Local")
	}
	cold := newRig(t, 10*time.Second)
	cold.start(Config{Name: "cold", Parallel: 1, BatchSize: batch, Poll: 50 * time.Millisecond})
	cold.awaitWorkers(1)
	if got := cold.run("c2", kvclient.CampaignC, 303, shards); !bytes.Equal(got, gotC) {
		t.Error("campaign C on a warm worker differs from a cold worker's")
	}
}

// TestLostGrantIsRegrantedAtOnce loses the response of the first
// completion that carried the next lease. The worker's retry meets a
// stale token, it asks for work, and the control plane — seeing the
// orphan still leased to the asker — grants it again at once: the
// campaign must not wait out the (here: ten-minute) lease TTL.
func TestLostGrantIsRegrantedAtOnce(t *testing.T) {
	r := newRig(t, 10*time.Minute)
	lost := false
	w := &wire{}
	w.lose = func(c call) bool {
		if c.route == "complete" && c.status == http.StatusOK && !lost {
			lost = true
			return true
		}
		return false
	}
	r.start(Config{Name: "w", Parallel: 1, Poll: 50 * time.Millisecond, HTTPClient: &http.Client{Transport: w}})
	r.awaitWorkers(1)

	done := make(chan []byte, 1)
	go func() { done <- r.run("c1", kvclient.CampaignA, 101, 4) }()
	select {
	case got := <-done:
		if !bytes.Equal(got, local(t, kvclient.CampaignA, 101)) {
			t.Error("records differ from Local")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("campaign is waiting for the orphaned lease to expire")
	}
	w.settle(t, 4+1) // four shards and the retry
	calls := w.ledger()
	if !lost || count(calls, "complete", http.StatusGone) != 1 {
		t.Errorf("lost=%v, %d completions answered 410; want the one retry", lost, count(calls, "complete", http.StatusGone))
	}
	if rd, ex := r.counter("profipy_fleet_shard_redispatch_total"), r.counter("profipy_fleet_lease_expiries_total"); rd != 1 || ex != 0 {
		t.Errorf("redispatch=%v expiries=%v, want 1 and 0", rd, ex)
	}
	if ing, dup := r.counter("profipy_fleet_records_ingested_total"), r.counter("profipy_fleet_records_duplicate_total"); ing != 27 || dup != 0 {
		t.Errorf("ingested=%v duplicates=%v, want every index once: 27 and 0", ing, dup)
	}
}

// TestKilledBeforeCompletion kills a worker after its shard's last
// intermediate batch and before the completion that would have carried
// the tail: the lease expires, a second worker re-runs the shard, the
// batches the dead one shipped come back as duplicates and the tail
// fills the hole.
func TestKilledBeforeCompletion(t *testing.T) {
	const shards, batch = 4, 3
	r := newRig(t, 300*time.Millisecond)
	lo, hi := executor.Shard(27, shards, 0)
	size := hi - lo
	_, died := r.start(Config{Name: "victim", Parallel: 1, BatchSize: batch, Poll: 20 * time.Millisecond, KillAfterRecords: size})
	r.awaitWorkers(1)

	done := make(chan []byte, 1)
	go func() { done <- r.run("c1", kvclient.CampaignA, 101, shards) }()
	select {
	case err := <-died:
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("victim returned %v, want ErrKilled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("victim never died")
	}
	r.start(Config{Name: "survivor", Parallel: 1, BatchSize: batch, Poll: 20 * time.Millisecond})
	select {
	case got := <-done:
		if !bytes.Equal(got, local(t, kvclient.CampaignA, 101)) {
			t.Error("records differ from Local")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not finish")
	}
	shipped := (size - 1) / batch * batch // what the victim's record batches carried
	if ing, dup := r.counter("profipy_fleet_records_ingested_total"), r.counter("profipy_fleet_records_duplicate_total"); ing != 27 || dup != float64(shipped) {
		t.Errorf("ingested=%v duplicates=%v, want 27 and %d", ing, dup, shipped)
	}
}

// TestCoordinatorRestartUnderParkedPoll replaces the coordinator while
// the worker's lease request is parked on it and cuts the connection, as
// a control-plane crash does. The worker's next request meets a
// coordinator that never heard of it (410), it registers again and runs
// the next campaign.
func TestCoordinatorRestartUnderParkedPoll(t *testing.T) {
	r := newRig(t, 30*time.Second)
	w := &wire{}
	a, _ := r.start(Config{Name: "w", Parallel: 1, Poll: 5 * time.Second, HTTPClient: &http.Client{Transport: w}})
	r.awaitWorkers(1)
	before := a.ID()
	for deadline := time.Now().Add(5 * time.Second); w.leasesSent.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker never asked for a lease")
		}
	}

	r.boot(30 * time.Second)
	r.ts.CloseClientConnections()
	r.awaitWorkers(1)
	if after := a.ID(); after == before {
		t.Errorf("worker kept its identity %q across the restart", before)
	}
	if got := r.run("c1", kvclient.CampaignA, 101, 4); !bytes.Equal(got, local(t, kvclient.CampaignA, 101)) {
		t.Error("records after the restart differ from Local")
	}
	if n := count(w.ledger(), "lease", http.StatusGone); n != 1 {
		t.Errorf("%d lease requests answered 410, want the one that found the new coordinator", n)
	}
}

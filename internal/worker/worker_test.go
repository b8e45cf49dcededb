package worker

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"profipy/internal/campaign"
	"profipy/internal/kvclient"
	"profipy/internal/remote"
	"profipy/internal/sandbox"
)

// specServer serves one valid campaign spec under every campaign ID
// (IDs containing "bad" get a 500, IDs containing "nocompile" a spec
// whose base program does not compile) and counts the fetches per ID.
// The specs carry the "engine"/"treeWalk" keys older control planes
// shipped; workers ignore them.
func specServer(t *testing.T) (*httptest.Server, func(id string) int64) {
	t.Helper()
	rt := sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 2, Seed: 1})
	c := kvclient.CampaignB(rt, 202)
	r, err := campaign.NewRunner(c, nil)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	spec := specOf(c)
	spec.PlanHash, spec.NumExperiments = remote.PlanHash(r.Points()), r.Len()
	encode := func(spec remote.CampaignSpec) []byte {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatal(err)
		}
		raw["engine"], raw["treeWalk"] = json.RawMessage(`"tree-walk"`), json.RawMessage(`true`)
		if data, err = json.Marshal(raw); err != nil {
			t.Fatal(err)
		}
		return data
	}
	body := encode(spec)
	broken := spec
	broken.Files = map[string][]byte{}
	for name, src := range spec.Files {
		broken.Files[name] = src
	}
	broken.Files[kvclient.FileAuth] = append(append([]byte(nil), spec.Files[kvclient.FileAuth]...), "\nfunc External()\n"...)
	brokenBody := encode(broken)
	var fetches [16]atomic.Int64 // by trailing digit of the campaign ID
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := strings.TrimSuffix(strings.TrimPrefix(req.URL.Path, "/api/v1/workers/campaigns/"), "/spec")
		if strings.Contains(id, "bad") {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		fetches[id[len(id)-1]-'0'].Add(1)
		w.Header().Set("Content-Type", "application/json")
		if strings.Contains(id, "nocompile") {
			_, _ = w.Write(brokenBody)
			return
		}
		_, _ = w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts, func(id string) int64 { return fetches[id[len(id)-1]-'0'].Load() }
}

// TestRunnerCacheIsBounded leases more campaigns than the cache holds:
// the cache must stay at maxCachedRunners, evict least recently leased
// first, serve hits without refetching, and rebuild an evicted campaign
// that is leased again.
func TestRunnerCacheIsBounded(t *testing.T) {
	ts, fetched := specServer(t)
	a := New(Config{Server: ts.URL})
	ctx := context.Background()
	lease := func(id string) *campaign.Runner {
		t.Helper()
		r, err := a.runnerFor(ctx, remote.Lease{Campaign: id})
		if err != nil {
			t.Fatalf("runnerFor(%s): %v", id, err)
		}
		return r
	}

	first := lease("camp-1")
	if rec := first.Experiment(0); rec.Result == nil {
		t.Fatal("a Runner built from a spec with legacy engine keys cannot run its experiments")
	}
	if again := lease("camp-1"); again != first || fetched("camp-1") != 1 {
		t.Fatalf("second lease of camp-1 rebuilt its Runner (%d spec fetches)", fetched("camp-1"))
	}
	for _, id := range []string{"camp-2", "camp-3", "camp-4"} {
		lease(id)
	}
	// Cache full: [1 2 3 4]. Touch camp-1 so camp-2 is now the oldest.
	lease("camp-1")
	lease("camp-5") // evicts camp-2
	lease("camp-6") // evicts camp-3
	if len(a.runners) != maxCachedRunners {
		t.Fatalf("cache holds %d runners, want %d", len(a.runners), maxCachedRunners)
	}
	if again := lease("camp-1"); again != first || fetched("camp-1") != 1 {
		t.Fatalf("recently leased camp-1 was evicted (%d spec fetches)", fetched("camp-1"))
	}
	for _, id := range []string{"camp-2", "camp-3"} {
		lease(id)
		if fetched(id) != 2 {
			t.Fatalf("evicted %s: %d spec fetches, want 2 (rebuild on re-lease)", id, fetched(id))
		}
	}
	if len(a.runners) != maxCachedRunners {
		t.Fatalf("cache holds %d runners after re-leases, want %d", len(a.runners), maxCachedRunners)
	}
}

// TestRunnerBuildFailureIsNotCached pins the pre-existing contract the
// bounded cache must keep: a failed build leaves no entry behind.
func TestRunnerBuildFailureIsNotCached(t *testing.T) {
	ts, _ := specServer(t)
	a := New(Config{Server: ts.URL})
	if _, err := a.runnerFor(context.Background(), remote.Lease{Campaign: "bad-1"}); err == nil {
		t.Fatal("runnerFor on a failing spec fetch returned no error")
	}
	if len(a.runners) != 0 {
		t.Fatalf("failed build left %d cache entries", len(a.runners))
	}
}

// TestBaseCompileFailureRefusesLease: a spec whose base program does not
// compile is refused with the campaign's own compile error (naming the
// file), every time it is leased — the failure is not cached either.
func TestBaseCompileFailureRefusesLease(t *testing.T) {
	ts, fetched := specServer(t)
	a := New(Config{Server: ts.URL})
	for attempt := 1; attempt <= 2; attempt++ {
		_, err := a.runnerFor(context.Background(), remote.Lease{Campaign: "nocompile-7"})
		if err == nil {
			t.Fatal("runnerFor accepted a base program that does not compile")
		}
		if !strings.Contains(err.Error(), ": compile: ") || !strings.Contains(err.Error(), kvclient.FileAuth) {
			t.Errorf("error = %q, want the campaign's compile error naming %s", err, kvclient.FileAuth)
		}
		if len(a.runners) != 0 || fetched("nocompile-7") != int64(attempt) {
			t.Fatalf("attempt %d: %d cache entries, %d spec fetches", attempt, len(a.runners), fetched("nocompile-7"))
		}
	}
}

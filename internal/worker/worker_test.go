package worker

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
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
// whose base program does not compile, IDs containing "diverged" one
// whose plan hash was taken with one coverage verdict flipped, IDs
// naming a key of indexSpecs that spec with its Indices and
// NumExperiments) and counts the fetches per ID.
// The specs carry the "engine"/"treeWalk" keys older control planes
// shipped; workers ignore them.
func specServer(t *testing.T) (*httptest.Server, func(id string) int64) {
	t.Helper()
	rt := sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 2, Seed: 1})
	c := kvclient.CampaignB(rt, 202)
	r, err := campaign.NewRunner(c)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	spec := specOf(c)
	spec.PlanHash, spec.NumExperiments = r.PlanHash(), r.Len()
	res, err := kvclient.CampaignB(rt, 202).Run()
	if err != nil {
		t.Fatal(err)
	}
	flipped := res.Covered
	flipped[r.Points()[0].ID()] = !flipped[r.Points()[0].ID()]
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
	diverged := spec
	diverged.PlanHash = remote.PlanHash(r.Points(), flipped)
	bodies := map[string][]byte{"nocompile": encode(broken), "diverged": encode(diverged)}
	for key, job := range indexSpecs(r.Len()) {
		resumed := spec
		resumed.Indices, resumed.NumExperiments = job.indices, job.n
		bodies[key] = encode(resumed)
	}
	var fetches [16]atomic.Int64 // by trailing digit of the campaign ID
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := strings.TrimSuffix(strings.TrimPrefix(req.URL.Path, "/api/v1/workers/campaigns/"), "/spec")
		if strings.Contains(id, "bad") {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		fetches[id[len(id)-1]-'0'].Add(1)
		w.Header().Set("Content-Type", "application/json")
		for key, b := range bodies {
			if strings.Contains(id, key) {
				_, _ = w.Write(b)
				return
			}
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
	// lease reports a build exactly when the campaign's spec is fetched:
	// the lease the worker ships a first record at once for.
	lease := func(id string) *campaign.Runner {
		t.Helper()
		before := fetched(id)
		cr, built, err := a.runnerFor(ctx, remote.Lease{Campaign: id})
		if err != nil {
			t.Fatalf("runnerFor(%s): %v", id, err)
		}
		if rebuilt := fetched(id) > before; built != rebuilt {
			t.Fatalf("runnerFor(%s) reports built=%v, spec fetched: %v", id, built, rebuilt)
		}
		return cr.runner
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
	if _, _, err := a.runnerFor(context.Background(), remote.Lease{Campaign: "bad-1"}); err == nil {
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
		_, _, err := a.runnerFor(context.Background(), remote.Lease{Campaign: "nocompile-7"})
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

// TestDivergedVerdictRefusesLease: a spec whose plan hash was taken
// with one coverage verdict flipped — a control plane whose fault-free
// pass disagrees with this worker's — is refused as a diverged plan,
// and nothing is cached.
func TestDivergedVerdictRefusesLease(t *testing.T) {
	ts, _ := specServer(t)
	a := New(Config{Server: ts.URL})
	_, _, err := a.runnerFor(context.Background(), remote.Lease{Campaign: "diverged-8"})
	if err == nil || !strings.Contains(err.Error(), "plan diverged") {
		t.Fatalf("error = %v, want plan diverged", err)
	}
	if len(a.runners) != 0 {
		t.Fatalf("refused build left %d cache entries", len(a.runners))
	}
}

// indexJob is a job's Indices and NumExperiments in a served spec.
type indexJob struct {
	indices []int
	n       int
}

// indexSpecs are the jobs specServer serves under their keys, for a plan
// of planLen experiments: a valid resumed job and ones a worker must
// refuse.
func indexSpecs(planLen int) map[string]indexJob {
	return map[string]indexJob{
		"resumed":    {[]int{1, 3, 4}, 3},
		"outofrange": {[]int{0, planLen}, 2},
		"negative":   {[]int{-1, 2}, 2},
		"unsorted":   {[]int{3, 1}, 2},
		"duplicated": {[]int{2, 2}, 2},
		"count":      {[]int{1, 2, 3}, 2},
		// What a worker that predates Indices reads of a resumed job.
		"legacy": {nil, planLen - 1},
	}
}

// TestBadIndicesRefuseLease: a spec's Indices come from another
// process, so a worker checks them before it executes anything. Indices
// outside the plan, out of order, repeated or not NumExperiments of
// them refuse the lease by name, and nothing is cached; a job without
// Indices must be the whole plan, or the plan diverged. Valid Indices
// are cached with the Runner.
func TestBadIndicesRefuseLease(t *testing.T) {
	ts, _ := specServer(t)
	a := New(Config{Server: ts.URL})
	ctx := context.Background()
	for _, id := range []string{"outofrange-1", "negative-2", "unsorted-3", "duplicated-4", "count-5"} {
		if _, _, err := a.runnerFor(ctx, remote.Lease{Campaign: id}); !errors.Is(err, errBadIndices) {
			t.Errorf("%s: error = %v, want %v", id, err, errBadIndices)
		}
	}
	if _, _, err := a.runnerFor(ctx, remote.Lease{Campaign: "legacy-6"}); err == nil || !strings.Contains(err.Error(), "plan diverged") {
		t.Errorf("legacy-6: error = %v, want plan diverged", err)
	}
	if len(a.runners) != 0 {
		t.Fatalf("refused builds left %d cache entries", len(a.runners))
	}
	cr, _, err := a.runnerFor(ctx, remote.Lease{Campaign: "resumed-7"})
	if err != nil {
		t.Fatal(err)
	}
	if again, _, _ := a.runnerFor(ctx, remote.Lease{Campaign: "resumed-7"}); !slices.Equal(cr.indices, []int{1, 3, 4}) || !slices.Equal(again.indices, cr.indices) {
		t.Fatalf("indices %v, cached %v, want [1 3 4]", cr.indices, again.indices)
	}
}

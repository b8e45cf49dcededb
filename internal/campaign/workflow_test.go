// Workflow integration tests: the Fig. 2 pipeline (Scan -> Execution ->
// Data Analysis) end-to-end on the Python-etcd analog, reproducing the
// shape of the §V case study.
package campaign_test

import (
	"sync/atomic"
	"testing"

	"profipy/internal/kvclient"
	"profipy/internal/sandbox"
)

func newRuntime() *sandbox.Runtime {
	return sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 4, Seed: 20})
}

func TestWorkflowCampaignA(t *testing.T) {
	res, err := kvclient.CampaignA(newRuntime(), 101).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := res.Report
	// Paper §V-A: 26 points, 13 covered, 12 failures, ~half of the
	// failures unavailable in round 2. Our analog: 27/15/12/6.
	if rep.Total < 24 || rep.Total > 30 {
		t.Errorf("points = %d, want ~26", rep.Total)
	}
	if rep.Covered < 12 || rep.Covered > 18 {
		t.Errorf("covered = %d, want ~13-15 (about half)", rep.Covered)
	}
	if rep.Failures < 10 || rep.Failures > 14 {
		t.Errorf("failures = %d, want ~12", rep.Failures)
	}
	// About half of the failures persist into round 2.
	if rep.Unavailable < rep.Failures/3 || rep.Unavailable > rep.Failures*2/3+1 {
		t.Errorf("unavailable = %d of %d failures, want about half", rep.Unavailable, rep.Failures)
	}
	// The paper's three failure modes must all be observed.
	if rep.Modes["reconnection-failure"] == 0 {
		t.Error("no reconnection failures observed")
	}
	if rep.Modes["member-bootstrapped"] == 0 {
		t.Error("no member-bootstrapped failures observed")
	}
	// Faults in the uncovered auth module must never fail.
	if st := rep.ByComponent["auth"]; st == nil || st.Failures != 0 || st.Covered != 0 {
		t.Errorf("auth component stats = %+v, want 0 covered / 0 failures", rep.ByComponent["auth"])
	}
	if res.Errors != 0 {
		t.Errorf("infrastructure errors = %d", res.Errors)
	}
}

func TestWorkflowCampaignB(t *testing.T) {
	res, err := kvclient.CampaignB(newRuntime(), 202).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := res.Report
	// Paper §V-B: 66 points, all covered, 29 failures with three modes:
	// nil AttributeError, key-not-found, 400 Bad Request.
	if rep.Total != 66 {
		t.Errorf("points = %d, want 66", rep.Total)
	}
	if rep.Covered != rep.Total {
		t.Errorf("covered = %d, want all %d", rep.Covered, rep.Total)
	}
	if rep.Failures < 25 || rep.Failures > 45 {
		t.Errorf("failures = %d, want in the 29-45 band", rep.Failures)
	}
	for _, mode := range []string{"nil-attribute-error", "key-not-found", "bad-request-400"} {
		if rep.Modes[mode] == 0 {
			t.Errorf("failure mode %q not observed", mode)
		}
	}
}

func TestWorkflowCampaignC(t *testing.T) {
	res, err := kvclient.CampaignC(newRuntime(), 303).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := res.Report
	// Paper §V-C: 37 points, all covered, 14 failures, mostly
	// UnboundLocalError crashes plus inconsistent (stale) reads.
	if rep.Total != 37 {
		t.Errorf("points = %d, want 37", rep.Total)
	}
	if rep.Covered != rep.Total {
		t.Errorf("covered = %d, want all", rep.Covered)
	}
	if rep.Failures < 10 || rep.Failures > 22 {
		t.Errorf("failures = %d, want ~14-19", rep.Failures)
	}
	if rep.Modes["unbound-local"] == 0 {
		t.Error("no UnboundLocalError crashes observed")
	}
	if rep.Modes["stale-read"] == 0 {
		t.Error("no stale reads observed")
	}
	// UnboundLocal must dominate stale reads (the paper's "most of these
	// failures forced a process termination").
	if rep.Modes["unbound-local"] < rep.Modes["stale-read"] {
		t.Errorf("unbound-local (%d) should dominate stale-read (%d)",
			rep.Modes["unbound-local"], rep.Modes["stale-read"])
	}
}

func TestWorkflowReducedPlanSkipsUncovered(t *testing.T) {
	c := kvclient.CampaignA(newRuntime(), 404)
	c.ReducePlan = true
	res, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// With coverage pruning, only covered points become experiments.
	covered := 0
	for _, ok := range res.Covered {
		if ok {
			covered++
		}
	}
	if len(res.Records) != covered {
		t.Errorf("experiments = %d, want %d (covered only)", len(res.Records), covered)
	}
	if len(res.Records) >= res.Plan.Len() {
		t.Errorf("reduced plan (%d) should be smaller than full plan (%d)", len(res.Records), res.Plan.Len())
	}
}

func TestWorkflowSampling(t *testing.T) {
	c := kvclient.CampaignB(newRuntime(), 505)
	c.SampleN = 10
	res, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Records) != 10 {
		t.Errorf("experiments = %d, want 10 (sampled)", len(res.Records))
	}
}

func TestWorkflowDeterministicAcrossRuns(t *testing.T) {
	run := func() (int, int) {
		res, err := kvclient.CampaignC(newRuntime(), 99).Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Report.Failures, res.Report.Unavailable
	}
	f1, u1 := run()
	f2, u2 := run()
	if f1 != f2 || u1 != u2 {
		t.Errorf("non-deterministic campaign: (%d,%d) vs (%d,%d)", f1, u1, f2, u2)
	}
}

func TestWorkflowContainersAllDestroyed(t *testing.T) {
	rt := newRuntime()
	if _, err := kvclient.CampaignA(rt, 606).Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := rt.Stats()
	if st.Active != 0 {
		t.Errorf("active containers after campaign = %d, want 0", st.Active)
	}
	if st.Created != st.Destroyed {
		t.Errorf("created %d != destroyed %d", st.Created, st.Destroyed)
	}
}

func TestWorkflowTraceHook(t *testing.T) {
	c := kvclient.CampaignA(newRuntime(), 707)
	c.SampleN = 3
	var hooked atomic.Int32
	c.TraceHook = func(ctr *sandbox.Container) {
		hooked.Add(1)
		kvclient.EnableTracing(ctr)
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Three experiment containers plus the prefix build's scratch
	// container, which must carry the same env-bag state to be captured.
	if hooked.Load() != 4 {
		t.Errorf("trace hook called %d times, want 4", hooked.Load())
	}
}

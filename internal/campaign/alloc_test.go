package campaign_test

import (
	"runtime"
	"testing"

	"profipy/internal/campaign"
	"profipy/internal/kvclient"
)

// TestExperimentAllocationBudget pins how much one §V-A experiment may
// allocate, measured end to end through Runner.Experiment (mutate,
// recompile, container, environment install, both workload rounds,
// log collection). A campaign pays this 13–185 times, and allocation
// volume drives the GC share of the whole service, so the shaped-object
// / small-map / shared-host-environment / lazy-host-reply diet must not
// erode silently. The budget sits ~20 % above the measured figure
// (1 090 objects, 83 KB, one compileFunc per mutant included: nothing
// caches a derivation, so repeating the plan on one Runner measures what
// a fresh campaign pays); raise it only with a ledger (bench/run.sh
// --trace 1) that shows why.
func TestExperimentAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation inflates allocated bytes")
	}
	r, err := campaign.NewRunner(kvclient.CampaignA(newRuntime(), 101))
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if r.Len() == 0 {
		t.Fatal("campaign A has no experiments")
	}
	all := make([]int, r.Len())
	for i := range all {
		all[i] = i
	}
	checkAllocs(t, r, all, "", 1310, 100)
}

// TestForkedExperimentAllocationBudget is the same budget for the fork
// path: one campaign-late experiment resumed from its site's prefix
// snapshot (restore, forked round 1, full round 2). The budget sits ~20 %
// above the measured figure (1 930 objects, 152 KB).
func TestForkedExperimentAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation inflates allocated bytes")
	}
	r, err := campaign.NewRunner(kvclient.CampaignLate(newRuntime(), 707))
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	var forked []int
	for i := 0; i < r.Len(); i++ {
		if _, _, fork := r.ExperimentDetail(i); fork == campaign.ForkHit {
			forked = append(forked, i)
		}
	}
	if len(forked) == 0 {
		t.Fatal("no campaign-late experiment forked")
	}
	checkAllocs(t, r, forked, campaign.ForkHit, 2320, 182)
}

// checkAllocs measures the mean allocations of the experiments at plan
// indices idx — one AllocsPerRun "run" executes each once, which
// averages out how far into the workload each injected fault lets
// round 1 get — and holds them to a budget. A non-empty fork is the path
// every experiment must take.
func checkAllocs(t *testing.T, r *campaign.Runner, idx []int, fork string, budgetObjects, budgetKB float64) {
	t.Helper()
	run := func() {
		for _, i := range idx {
			rec, _, got := r.ExperimentDetail(i)
			if rec.Result == nil {
				t.Fatalf("experiment %d produced no result", i)
			}
			if fork != "" && got != fork {
				t.Fatalf("experiment %d took fork path %q, want %q", i, got, fork)
			}
		}
	}
	run() // warm the per-campaign caches
	perExp := testing.AllocsPerRun(3, run) / float64(len(idx))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	kbPerExp := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(idx))

	t.Logf("per experiment: %.0f allocations, %.0f KB (%d experiments)", perExp, kbPerExp, len(idx))
	if perExp > budgetObjects {
		t.Errorf("one experiment allocates %.0f objects, budget %.0f", perExp, budgetObjects)
	}
	if kbPerExp > budgetKB {
		t.Errorf("one experiment allocates %.0f KB, budget %.0f KB", kbPerExp, budgetKB)
	}
}

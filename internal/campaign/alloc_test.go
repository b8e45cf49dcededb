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
// / small-map / shared-host-environment diet must not erode silently.
// The budget sits ~20 % above the measured figure (1 760 objects, 93 KB,
// one compileFunc per mutant included: nothing caches a derivation, so
// repeating the plan on one Runner measures what a fresh campaign pays);
// raise it only with a ledger (bench/run.sh --trace 1) that shows why.
func TestExperimentAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation inflates allocated bytes")
	}
	c := kvclient.CampaignA(newRuntime(), 101)
	r, err := campaign.NewRunner(c)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	if r.Len() == 0 {
		t.Fatal("campaign A has no experiments")
	}
	// Mean over the whole plan: one AllocsPerRun "run" executes every
	// experiment of campaign A once, which averages out how far into the
	// workload each injected fault lets round 1 get.
	r.Experiment(0) // warm the per-campaign caches
	perPlan := testing.AllocsPerRun(3, func() {
		for i := 0; i < r.Len(); i++ {
			if rec := r.Experiment(i); rec.Result == nil {
				t.Fatalf("experiment %d produced no result", i)
			}
		}
	})
	perExp := perPlan / float64(r.Len())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < r.Len(); i++ {
		r.Experiment(i)
	}
	runtime.ReadMemStats(&after)
	kbPerExp := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(r.Len())

	t.Logf("per experiment: %.0f allocations, %.0f KB (plan of %d)", perExp, kbPerExp, r.Len())
	const budgetObjects, budgetKB = 2100, 110
	if perExp > budgetObjects {
		t.Errorf("one experiment allocates %.0f objects, budget %d", perExp, budgetObjects)
	}
	if kbPerExp > budgetKB {
		t.Errorf("one experiment allocates %.0f KB, budget %d KB", kbPerExp, budgetKB)
	}
}

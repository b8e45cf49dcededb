// Golden-record regression tests: the three §V case-study campaigns
// (plus the mixed runtime-injection campaign) run with fixed seeds and
// their full experiment records are compared byte-for-byte against
// canonical JSON fixtures under testdata/golden/. Any drift — a changed
// failure mode, step count, virtual clock, log line, trigger decision
// or JSON encoding — fails the test. The same run pins the fork policy:
// campaign-late's sites sit late enough in the round to be forked, the
// §V campaigns' do not (remote_test.go holds the fleet to the same
// fixtures; internal/workload/golden_fork_test.go forces a fork at every
// site).
//
// To regenerate the fixtures after an intentional behavior change:
//
//	go test -run TestGoldenCampaignRecords -update .
//
// then review the fixture diff like any other code change.
package profipy

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"profipy/internal/analysis"
	"profipy/internal/campaign"
	"profipy/internal/kvclient"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden campaign record fixtures under testdata/golden/")

// goldenCampaigns pins each campaign to the seed its fixture was
// recorded with. Runtime seeds (container PRNGs, trigger decisions,
// corruptions) all derive from it, so records are reproducible across
// machines and worker counts. forks says which side of the fork policy
// the campaign's sites fall on.
var goldenCampaigns = []struct {
	name  string
	build func(rt *Runtime, seed int64) *campaign.Campaign
	seed  int64
	forks bool
}{
	{"campaign-a", kvclient.CampaignA, 101, false},
	{"campaign-b", kvclient.CampaignB, 202, false},
	{"campaign-c", kvclient.CampaignC, 303, false},
	{"campaign-r", kvclient.CampaignR, 404, false},
	{"campaign-late", kvclient.CampaignLate, 707, true},
}

// canonicalRecords is the fixtures' encoding of a record set: indented,
// trailing newline, key order fixed by the struct and map encodings.
func canonicalRecords(tb testing.TB, recs []analysis.Record) []byte {
	tb.Helper()
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return append(data, '\n')
}

// checkForkPolicy asserts the campaign forked exactly when its sites
// are late enough to pay: a forking campaign resumed experiments from
// snapshots, a short-prefix one took no snapshot at all and says why.
func checkForkPolicy(t *testing.T, res *campaign.Result, forks bool) {
	t.Helper()
	if forks {
		if res.ForkSnapshots == 0 || res.ForkHits == 0 {
			t.Errorf("late sites did not fork: snapshots=%d hits=%d misses=%v",
				res.ForkSnapshots, res.ForkHits, res.ForkMissReasons)
		}
		return
	}
	if res.ForkSnapshots != 0 || res.ForkHits != 0 || res.ForkMisses != 0 {
		t.Errorf("short-prefix campaign forked: snapshots=%d hits=%d misses=%d",
			res.ForkSnapshots, res.ForkHits, res.ForkMisses)
	}
	if res.ForkShortSites == 0 {
		t.Error("short-prefix campaign reports no short sites: why it did not fork is not answerable from Result")
	}
}

func TestGoldenCampaignRecords(t *testing.T) {
	for _, gc := range goldenCampaigns {
		t.Run(gc.name, func(t *testing.T) {
			rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
			res, err := gc.build(rt, gc.seed).Run()
			if err != nil {
				t.Fatalf("campaign: %v", err)
			}
			checkForkPolicy(t, res, gc.forks)
			got := canonicalRecords(t, res.Records)
			path := filepath.Join("testdata", "golden", gc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture %s (run `go test -run TestGoldenCampaignRecords -update .`): %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("campaign records drifted from %s (%d vs %d bytes);\n"+
					"if the change is intentional, regenerate with `go test -run TestGoldenCampaignRecords -update .` and review the diff",
					path, len(got), len(want))
			}
		})
	}
}

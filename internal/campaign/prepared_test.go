package campaign_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"profipy/internal/campaign"
	"profipy/internal/kvclient"
	"profipy/internal/obs"
	"profipy/internal/sandbox"
)

// preparedCount reads profipy_campaign_prepared_total{result}.
func preparedCount(t *testing.T, reg *obs.Registry, result string) float64 {
	t.Helper()
	return reg.CounterVec("profipy_campaign_prepared_total", "", "result").With(result).Value()
}

// TestCampaignsShareOnePrepared runs campaigns B and C — one project and
// scan subset, different faultloads — concurrently and repeatedly on one
// PreparedSet (run under -race): whoever comes second borrows the first
// one's parses and base program, and every run produces the records of
// the golden fixtures, which the nil-set path is held to elsewhere.
func TestCampaignsShareOnePrepared(t *testing.T) {
	set := new(campaign.PreparedSet)
	reg := obs.NewRegistry()
	cases := []struct {
		fixture string
		build   func(*sandbox.Runtime, int64) *campaign.Campaign
		seed    int64
	}{
		{"campaign-b", kvclient.CampaignB, 202},
		{"campaign-c", kvclient.CampaignC, 303},
	}
	const rounds = 3
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for _, tc := range cases {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := tc.build(sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 4, Seed: 20}), tc.seed)
				c.Prepared, c.Metrics = set, reg
				res, err := c.Run()
				if err != nil {
					t.Errorf("%s: %v", tc.fixture, err)
					return
				}
				got, err := json.MarshalIndent(res.Records, "", "  ")
				if err != nil {
					t.Error(err)
					return
				}
				want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", tc.fixture+".json"))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(append(got, '\n'), want) {
					t.Errorf("%s on a shared Prepared drifted from its golden fixture", tc.fixture)
				}
			}()
		}
		if round == 0 {
			wg.Wait() // the later rounds find the project prepared
		}
	}
	wg.Wait()
	if got := set.Digests(); len(got) != 1 {
		t.Fatalf("set holds %d projects, want the one both campaigns share", len(got))
	}
	hit, miss := preparedCount(t, reg, campaign.PreparedHit), preparedCount(t, reg, campaign.PreparedMiss)
	if hit+miss != rounds*float64(len(cases)) || hit < (rounds-1)*float64(len(cases)) || miss < 1 {
		t.Errorf("prepared_total: hit=%v miss=%v over %d campaigns", hit, miss, rounds*len(cases))
	}
}

// TestPreparedCountsMutantsPerCampaign: two campaigns on one borrowed
// base program report their own derivation counts, not a running total.
func TestPreparedCountsMutantsPerCampaign(t *testing.T) {
	set := new(campaign.PreparedSet)
	var counts [2]float64
	for i := range counts {
		reg := obs.NewRegistry()
		c := kvclient.CampaignB(sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 4, Seed: 20}), 202)
		c.Prepared, c.Metrics = set, reg
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		counts[i] = reg.CounterVec("profipy_campaign_mutant_compiles_total", "", "path", "reason").With("decl", "").Value()
	}
	if counts[0] == 0 || counts[0] != counts[1] {
		t.Errorf("decl compiles = %v on the fresh project, %v on the borrowed one; want equal and non-zero", counts[0], counts[1])
	}
}

// TestPreparedCompileFailureIsNotRetained: a project whose base program
// does not compile fails its campaign every time and leaves nothing in
// the set.
func TestPreparedCompileFailureIsNotRetained(t *testing.T) {
	set := new(campaign.PreparedSet)
	for attempt := 0; attempt < 2; attempt++ {
		c := kvclient.CampaignB(sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 2, Seed: 1}), 202)
		c.Prepared = set
		c.Files[kvclient.FileAuth] = append(append([]byte(nil), c.Files[kvclient.FileAuth]...), "\nfunc External()\n"...)
		if _, err := campaign.NewRunner(c); err == nil || !strings.Contains(err.Error(), ": compile: ") {
			t.Fatalf("attempt %d: err = %v, want the compile error", attempt, err)
		}
		if got := set.Digests(); len(got) != 0 {
			t.Fatalf("attempt %d: a failed compile left %d projects in the set", attempt, len(got))
		}
	}
}

// TestPreparedBounds: a project over the byte bound is prepared for its
// campaign alone (too_large), and the set never holds more than four.
func TestPreparedBounds(t *testing.T) {
	set := new(campaign.PreparedSet)
	reg := obs.NewRegistry()
	build := func(pad []byte) *campaign.Runner {
		t.Helper()
		c := kvclient.CampaignB(sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 2, Seed: 1}), 202)
		c.Prepared, c.Metrics = set, reg
		// A file outside the scan subset and the workload: ballast that
		// changes the digest and the project's size, nothing else.
		c.Files["ballast.txt"] = pad
		r, err := campaign.NewRunner(c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r := build(make([]byte, 4<<20)); r.Prepared() != campaign.PreparedTooLarge || len(set.Digests()) != 0 {
		t.Fatalf("4 MiB of ballast: prepared=%q, set holds %d", r.Prepared(), len(set.Digests()))
	}
	for i := 0; i < 6; i++ {
		if r := build([]byte{byte(i)}); r.Prepared() != campaign.PreparedMiss {
			t.Fatalf("project %d: prepared=%q, want miss", i, r.Prepared())
		}
	}
	if got := len(set.Digests()); got != 4 {
		t.Fatalf("set holds %d projects after six, want 4", got)
	}
	if r := build([]byte{5}); r.Prepared() != campaign.PreparedHit {
		t.Errorf("most recent project: prepared=%q, want hit", r.Prepared())
	}
	if r := build([]byte{0}); r.Prepared() != campaign.PreparedMiss {
		t.Errorf("evicted project: prepared=%q, want miss", r.Prepared())
	}
	if n := preparedCount(t, reg, campaign.PreparedTooLarge); n != 1 {
		t.Errorf("prepared_total{too_large} = %v, want 1", n)
	}
}

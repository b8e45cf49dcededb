package campaign_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"profipy/internal/analysis"
	"profipy/internal/campaign"
	"profipy/internal/faultmodel"
	"profipy/internal/interp"
	"profipy/internal/kvclient"
	"profipy/internal/mutator"
	"profipy/internal/obs"
	"profipy/internal/sandbox"
	"profipy/internal/scanner"
	"profipy/internal/workload"
)

// TestBaseCompileFailureFailsFast breaks the base program both ways
// compileBase can fail. The campaign must fail in its compile phase —
// before any container exists — with one error that names the file,
// through Campaign.Run and through NewRunner (the worker's entry).
func TestBaseCompileFailureFailsFast(t *testing.T) {
	cases := []struct {
		name   string
		file   string
		breakC func(c *campaign.Campaign)
	}{
		{"bodyless-func", kvclient.FileAuth, func(c *campaign.Campaign) {
			// Parses (so the scan is happy) but does not compile.
			c.Files[kvclient.FileAuth] = append(c.Files[kvclient.FileAuth], "\nfunc External()\n"...)
		}},
		{"missing-workload-file", "workload/absent.go", func(c *campaign.Campaign) {
			c.Workload.Files = append(c.Workload.Files, "workload/absent.go")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRuntime()
			reg := obs.NewRegistry()
			c := kvclient.CampaignB(rt, 202)
			c.Metrics = reg
			tc.breakC(c)
			wantPrefix := "campaign " + c.Name + ": compile: "

			_, runErr := c.Run()
			_, runnerErr := campaign.NewRunner(c, nil)
			for what, err := range map[string]error{"Run": runErr, "NewRunner": runnerErr} {
				if err == nil {
					t.Fatalf("%s succeeded on a base program that does not compile", what)
				}
				if !strings.HasPrefix(err.Error(), wantPrefix) || !strings.Contains(err.Error(), tc.file) {
					t.Errorf("%s error = %q, want prefix %q naming %s", what, err, wantPrefix, tc.file)
				}
			}
			if runErr.Error() != runnerErr.Error() {
				t.Errorf("Run and NewRunner disagree:\n %v\n %v", runErr, runnerErr)
			}
			if n := rt.Stats().Created; n != 0 {
				t.Errorf("%d containers created before the compile failure surfaced", n)
			}
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), `profipy_campaign_runs_total{status="failed"} 1`) {
				t.Errorf("failed run not counted:\n%s", sb.String())
			}
		})
	}
}

// hoistCampaign is a two-point plan whose spec hoists an assignment's
// right-hand side into an if header: fine for `n := 5`, but the bare
// `t := T{a: 1}` would print as `if T{a: 1} == nil {`, which does not
// parse — the one place go/printer leaves out parentheses the grammar
// needs.
func hoistCampaign(rt *sandbox.Runtime) *campaign.Campaign {
	const src = `package main

type T struct{}

func Workload() any {
	n := 5
	t := T{a: 1}
	return n + t.a
}
`
	return &campaign.Campaign{
		Name:  "hoist",
		Files: map[string][]byte{"w.go": []byte(src)},
		Faultload: []faultmodel.Spec{{Name: "hoist", Type: "Hoist", DSL: `
change {
	$VAR#v := $EXPR#e
} into {
	if $EXPR#e == nil {
		$VAR#v = nil
	}
}`}},
		Workload: workload.Config{
			Entry: "Workload", Files: []string{"w.go"}, TimeoutNS: 1_000_000_000, MaxSteps: 100_000,
			Env: func(it *interp.Interp, c *sandbox.Container) { sandbox.InstallHooks(it, c) },
		},
		Runtime: rt,
		Image:   sandbox.Image{Name: "t"},
		Seed:    9,
	}
}

// hoistRecords is what hoistCampaign records. Until the mutator
// parenthesized literals in headers, the second mutant's text did not
// parse and its record was an infrastructure error ("result":null).
const hoistRecords = `[{"point":{"spec":"hoist","file":"w.go","func":"Workload","listIndex":0,"start":0,"n":1,"line":6,"snippet":"n := 5"},"faultType":"Hoist","covered":true,"result":{"rounds":[{"ok":false,"crash":true,"timeout":false,"exception":"UnboundLocalError","message":"uncaught exception: UnboundLocalError: local variable 'n' referenced before assignment (in Workload)","virtualNs":6000,"steps":6},{"ok":true,"crash":false,"timeout":false,"virtualNs":6000,"steps":6}],"logs":{"stdout":""}}},{"point":{"spec":"hoist","file":"w.go","func":"Workload","listIndex":0,"start":1,"n":1,"line":7,"snippet":"t := T{a: 1}"},"faultType":"Hoist","covered":true,"result":{"rounds":[{"ok":false,"crash":true,"timeout":false,"exception":"UnboundLocalError","message":"uncaught exception: UnboundLocalError: local variable 't' referenced before assignment (in Workload)","virtualNs":6000,"steps":6},{"ok":true,"crash":false,"timeout":false,"virtualNs":6000,"steps":6}],"logs":{"stdout":""}}}]`

// TestHoistedLiteralMutant: the compiler gets the mutant as a tree and
// the container as text, so the two must be the same program even where
// the printer alone would not make them so. The literal hoisted into
// the if header is parenthesized in both; the campaign run through the
// text front end (what a library user holding only the deployed text
// would compile) records the same bytes.
func TestHoistedLiteralMutant(t *testing.T) {
	rt := newRuntime()
	res, err := hoistCampaign(rt).Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != hoistRecords {
		t.Errorf("records changed:\n got: %s\nwant: %s", got, hoistRecords)
	}
	if res.Errors != 0 || res.Mutated != 2 {
		t.Errorf("errors=%d mutated=%d, want 0 and 2", res.Errors, res.Mutated)
	}

	c := hoistCampaign(rt)
	pf, err := scanner.ParseFileOnce("w.go", c.Files["w.go"])
	if err != nil {
		t.Fatal(err)
	}
	mm, err := c.Faultload[0].Compile()
	if err != nil {
		t.Fatal(err)
	}
	base, err := interp.CompileProgram([]interp.SourceUnit{{Name: "w.go", Src: pf.Src, AST: pf.File}})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range res.Plan.Points {
		mut, err := mutator.ApplyParsed(pf, mm, pt, mutator.Options{Triggered: true})
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && !strings.Contains(string(mut.Source), "if (T{a: 1}) == nil {") {
			t.Errorf("hoisted literal is not parenthesized:\n%s", mut.Source)
		}
		img := c.Image
		img.Files = c.Files
		img.Overlay = map[string][]byte{"w.go": mut.Source}
		wcfg := c.Workload
		if wcfg.Program, err = base.WithFiles(img.Overlay); err != nil {
			t.Fatalf("mutant %d: its text does not compile: %v", i, err)
		}
		ctr := rt.CreateSeeded(img, c.Seed+int64(i)+1)
		text, err := workload.Run(ctr, wcfg)
		_ = rt.Destroy(ctr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(text, res.Records[i].Result) {
			t.Errorf("mutant %d: compiled from text %+v, from the tree %+v", i, text, res.Records[i].Result)
		}
	}
}

// TestMutantsCompileOneDeclaration: every compile-time mutant of the §V
// campaigns reaches the compiler as one declaration; the only whole-file
// recompiles a campaign performs are the coverage pass's instrumented
// files, whose hooks span declarations.
func TestMutantsCompileOneDeclaration(t *testing.T) {
	for _, build := range []func(*sandbox.Runtime, int64) *campaign.Campaign{
		kvclient.CampaignA, kvclient.CampaignB, kvclient.CampaignC, kvclient.CampaignR, kvclient.CampaignLate,
	} {
		reg := obs.NewRegistry()
		c := build(newRuntime(), 11)
		c.Metrics = reg
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("profipy_campaign_mutant_compiles_total{path=\"decl\",reason=\"\"} %d\n", res.Mutated); !strings.Contains(sb.String(), want) {
			t.Errorf("%s: %d mutants, scrape lacks %q", c.Name, res.Mutated, want)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, `profipy_campaign_mutant_compiles_total{path="file"`) &&
				!strings.HasPrefix(line, `profipy_campaign_mutant_compiles_total{path="file",reason="cross_decl"} `) {
				t.Errorf("%s: unexpected whole-file compile: %s", c.Name, line)
			}
		}
	}
}

// TestPrefixBuildFailureIsCounted breaks the prefix build of a campaign
// whose sites are worth forking (the scratch container is already
// running when BuildPrefixes tries to start it): the failure must show
// up as a build_failed fork event, and every experiment must run in
// full with unchanged records.
func TestPrefixBuildFailureIsCounted(t *testing.T) {
	run := func(breakPrefix bool) (*campaign.Result, string) {
		reg := obs.NewRegistry()
		c := kvclient.CampaignLate(newRuntime(), 707)
		c.Metrics = reg
		if breakPrefix {
			// The prefix container is the only one seeded with the bare
			// campaign seed (experiments use seed+index+1, coverage 0).
			c.TraceHook = func(ctr *sandbox.Container) {
				if ctr.Seed() == c.Seed {
					_ = ctr.Start()
				}
			}
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return res, sb.String()
	}
	forked, forkedMetrics := run(false)
	broken, brokenMetrics := run(true)

	if forked.ForkHits == 0 {
		t.Fatal("control run did not fork; the test would prove nothing")
	}
	if strings.Contains(forkedMetrics, `event="build_failed"`) {
		t.Errorf("healthy prefix build reported build_failed")
	}
	if !strings.Contains(brokenMetrics, `profipy_campaign_fork_events_total{event="build_failed",reason=""} 1`) {
		t.Errorf("broken prefix build not counted:\n%s", brokenMetrics)
	}
	if broken.ForkSnapshots != 0 || broken.ForkHits != 0 || broken.ForkMisses != 0 {
		t.Errorf("broken prefix build still forked: snapshots=%d hits=%d misses=%d",
			broken.ForkSnapshots, broken.ForkHits, broken.ForkMisses)
	}
	if !sameRecords(t, forked.Records, broken.Records) {
		t.Error("records differ between forked execution and full runs after a failed prefix build")
	}
}

func sameRecords(t *testing.T, a, b []analysis.Record) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ja) == string(jb)
}

package campaign_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"profipy/internal/campaign"
	"profipy/internal/executor"
	"profipy/internal/faultmodel"
	"profipy/internal/fleet"
	"profipy/internal/interp"
	"profipy/internal/kvclient"
	"profipy/internal/mutator"
	"profipy/internal/obs"
	"profipy/internal/remote"
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
			_, runnerErr := campaign.NewRunner(c)
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
// campaigns reaches the compiler as one declaration, and nothing else is
// compiled after the base program: coverage runs the base program
// itself, so a healthy campaign recompiles no file whole.
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
			if strings.HasPrefix(line, `profipy_campaign_mutant_compiles_total{path="file"`) {
				t.Errorf("%s: whole-file compile %q, want none", c.Name, line)
			}
		}
	}
}

// TestPrefixBuildFailureIsCounted breaks the fault-free pass of a
// campaign whose sites are worth forking — by starting its container
// before BuildPrefixes does — and runs it through Campaign.Run and
// through NewRunner (a fleet worker's path): a broken pass fails both
// alike, by name, and never degrades into a campaign without verdicts or
// prefixes.
func TestPrefixBuildFailureIsCounted(t *testing.T) {
	errs := map[string]error{}
	for _, via := range []string{"Run", "NewRunner"} {
		reg := obs.NewRegistry()
		c := kvclient.CampaignLate(newRuntime(), 707)
		c.Metrics = reg
		// The pass's container is the only one seeded with the bare
		// campaign seed (experiments use seed+index+1).
		c.TraceHook = func(ctr *sandbox.Container) {
			if ctr.Seed() == c.Seed {
				_ = ctr.Start()
			}
		}
		if via == "Run" {
			_, errs[via] = c.Run()
		} else {
			_, errs[via] = campaign.NewRunner(c)
		}
		want := "campaign " + c.Name + ": coverage: fault-free run"
		if err := errs[via]; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s on a broken pass: err = %v, want prefix %q", via, err, want)
		}
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(sb.String(), `event="snapshot"`) {
			t.Errorf("%s: a failed pass reported fork activity:\n%s", via, sb.String())
		}
	}
	if errs["Run"] != nil && errs["NewRunner"] != nil && errs["Run"].Error() != errs["NewRunner"].Error() {
		t.Errorf("Run and NewRunner disagree:\n %v\n %v", errs["Run"], errs["NewRunner"])
	}
}

// TestOneFaultFreeRunPerCampaign: every Runner runs its campaign's base
// program fault-free exactly once, when it is built — the coverage pass,
// which is also the prefix build: one container seeded with the bare
// campaign seed and hooked like the experiments' containers (seed plus
// plan index plus one). Every other container is an experiment's. That
// holds for a local campaign, for a remote one whose takeover drain runs
// every experiment on the control plane's Runner, and for a Runner built
// the way a fleet worker builds it, which runs no more base runs once
// built.
func TestOneFaultFreeRunPerCampaign(t *testing.T) {
	for _, build := range []func(*sandbox.Runtime, int64) *campaign.Campaign{kvclient.CampaignA, kvclient.CampaignLate} {
		for _, via := range []string{"local", "remote", "runner"} {
			rt := newRuntime()
			c := build(rt, 707)
			var hooked []int64 // container seeds, in creation order
			c.TraceHook = func(ctr *sandbox.Container) { hooked = append(hooked, ctr.Seed()) }
			base := func() int {
				n := 0
				for _, seed := range hooked {
					if seed == c.Seed {
						n++
					}
				}
				return n
			}
			experiments := 0
			switch via {
			case "local", "remote":
				c.Executor = executor.Local{Workers: 1}
				if via == "remote" { // no worker: the drain runs every shard
					c.Executor = &executor.Remote{Coord: fleet.New(fleet.Config{}), Spec: remote.CampaignSpec{Name: c.Name}, LocalWorkers: 1}
				}
				res, err := c.Run()
				if err != nil {
					t.Fatal(err)
				}
				experiments = len(res.Records)
			case "runner":
				r, err := campaign.NewRunner(c)
				if err != nil {
					t.Fatal(err)
				}
				if len(hooked) != 1 || base() != 1 {
					t.Errorf("%s/%s: built with containers seeded %v, want the one base run", c.Name, via, hooked)
				}
				for i := 0; i < r.Len(); i++ {
					r.Experiment(i)
				}
				experiments = r.Len()
			}
			if len(hooked) == 0 || hooked[0] != c.Seed {
				t.Fatalf("%s/%s: first hooked container seeds %v, want the campaign seed %d", c.Name, via, hooked[:min(len(hooked), 3)], c.Seed)
			}
			if created := rt.Stats().Created; base() != 1 || created != len(hooked) {
				t.Errorf("%s/%s: %d containers, %d hooked, %d of them fault-free runs of the base program; want every container hooked and one base run",
					c.Name, via, created, len(hooked), base())
			}
			if experiments == 0 {
				t.Errorf("%s/%s: no experiments ran", c.Name, via)
			}
		}
	}
}

// TestWatchdogKillsAreCounted runs a campaign whose one mutant spins in
// round 1 until the wall-clock watchdog kills it, through the workflow
// (Run) and through a NewRunner Runner (a fleet worker's path): both
// count the kill in the campaign's registry. A campaign that kills
// nothing still exposes the family, at 0.
func TestWatchdogKillsAreCounted(t *testing.T) {
	const src = `package main

var n = 0

func advance() { n = n + 1 }

func Workload() any {
	n = 0
	for n < 3 {
		advance()
	}
	return n
}
`
	spin := func(reg *obs.Registry) *campaign.Campaign {
		return &campaign.Campaign{
			Name:  "spin",
			Files: map[string][]byte{"w.go": []byte(src)},
			Faultload: []faultmodel.Spec{{Name: "omit-advance", Type: "MFC", DSL: `
change {
	$CALL{name=advance}(...)
} into {
}`}},
			Workload: workload.Config{
				Entry: "Workload", Files: []string{"w.go"}, TimeoutNS: 3_600_000_000_000, MaxSteps: 1 << 60,
				WallBudgetNS: 20_000_000,
				Env:          func(it *interp.Interp, c *sandbox.Container) { sandbox.InstallHooks(it, c) },
			},
			Runtime: newRuntime(),
			Image:   sandbox.Image{Name: "t"},
			Seed:    5,
			Metrics: reg,
		}
	}
	scrape := func(reg *obs.Registry) string {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	const killed = "\nprofipy_workload_watchdog_timeouts_total 1\n"

	reg := obs.NewRegistry()
	res, err := spin(reg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || !res.Records[0].Result.Round1().Watchdog {
		t.Fatalf("records = %+v, want one watchdog-killed round 1", res.Records)
	}
	if got := scrape(reg); !strings.Contains(got, killed) {
		t.Errorf("Run: scrape lacks %q:\n%s", killed, got)
	}

	reg = obs.NewRegistry()
	r, err := campaign.NewRunner(spin(reg))
	if err != nil {
		t.Fatal(err)
	}
	if rec := r.Experiment(0); rec.Result == nil || !rec.Result.Round1().Watchdog {
		t.Fatalf("Runner record = %+v, want a watchdog-killed round 1", rec)
	}
	if got := scrape(reg); !strings.Contains(got, killed) {
		t.Errorf("NewRunner: scrape lacks %q:\n%s", killed, got)
	}

	reg = obs.NewRegistry()
	c := hoistCampaign(newRuntime())
	c.Metrics = reg
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := scrape(reg), "\nprofipy_workload_watchdog_timeouts_total 0\n"; !strings.Contains(got, want) {
		t.Errorf("no kill: scrape lacks %q:\n%s", want, got)
	}
}

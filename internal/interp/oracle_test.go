// Oracle equivalence: the tree-walk interpreter (interp.New + LoadSource,
// test-only) defines what a workload round must produce. The real
// kvclient corpus — fault-free, and every experiment of the §V-A/B/C/R
// plans at the golden seeds (mutated sources and runtime injectors) —
// runs the two-round protocol on the tree-walk through the test-local
// driver below and on the production path (workload.Run), and the two
// must agree on every field of both round results, on stdout and on the
// injector's activation report.
package interp_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"profipy"
	"profipy/internal/campaign"
	"profipy/internal/faultmodel"
	"profipy/internal/interp"
	"profipy/internal/kvclient"
	"profipy/internal/sandbox"
	"profipy/internal/workload"
)

// treeWalkRounds runs the workload protocol on the tree-walk reference:
// per round a fresh interp.New with the sources loaded from the
// container, trigger and injector armed in round 1 only, and
// workload.Run's classification of the outcome. A source the tree-walk
// cannot load comes back as the error.
func treeWalkRounds(c *sandbox.Container, cfg workload.Config, rounds int) ([]workload.RoundResult, error) {
	if err := c.Start(); err != nil {
		return nil, err
	}
	defer c.Exit()
	var out []workload.RoundResult
	for i := 0; i < rounds; i++ {
		enabled := i == 0
		c.SetTrigger(enabled)
		icfg := interp.Config{DeadlineNS: cfg.TimeoutNS, MaxSteps: cfg.MaxSteps, Stdout: c.Log("stdout")}
		if cfg.Injector != nil {
			cfg.Injector.BeginRound(i, enabled)
			icfg.Hook = cfg.Injector
		}
		it := interp.New(icfg)
		cfg.Env(it.Interp, c)
		for _, f := range cfg.Files {
			src, err := c.FS.Read(f)
			if err != nil {
				return nil, err
			}
			if err := it.LoadSource(f, src); err != nil {
				return nil, err
			}
		}
		_, err := it.Call(cfg.Entry)
		rr := workload.RoundResult{VirtualNS: it.Clock(), Steps: it.Steps()}
		var pe *interp.PanicError
		switch {
		case err == nil:
			rr.OK = true
		case errors.Is(err, interp.ErrTimeout), errors.Is(err, interp.ErrSteps):
			rr.Timeout, rr.Message = true, "workload timeout (hang)"
		case errors.As(err, &pe):
			rr.Crash, rr.Message = true, err.Error()
			if exc, ok := pe.Exception(); ok {
				rr.Exception = exc.Type
			}
		default:
			return nil, err
		}
		out = append(out, rr)
	}
	return out, nil
}

// oracleCampaigns are the golden campaigns of the module root's
// golden_test.go, at the seeds their fixtures were recorded with.
var oracleCampaigns = []struct {
	name  string
	build func(rt *profipy.Runtime, seed int64) *campaign.Campaign
	seed  int64
}{
	{"campaign-a", kvclient.CampaignA, 101},
	{"campaign-b", kvclient.CampaignB, 202},
	{"campaign-c", kvclient.CampaignC, 303},
	{"campaign-r", kvclient.CampaignR, 404},
	{"campaign-late", kvclient.CampaignLate, 707},
}

// eachExperiment calls fn with what the campaign Runner deploys for
// every point of the campaign's plan: the image (base files, plus the
// mutated file as overlay for a compile-time fault), the experiment's
// seed and, for a runtime fault, the fault bound to the point's function.
func eachExperiment(tb testing.TB, c *campaign.Campaign,
	fn func(pt profipy.InjectionPoint, img sandbox.Image, seed int64, fault *profipy.RuntimeFault)) {
	tb.Helper()
	scan := make(map[string][]byte, len(c.ScanFiles))
	for _, name := range c.ScanFiles {
		scan[name] = c.Files[name]
	}
	pl, err := profipy.Scan(scan, c.Faultload)
	if err != nil {
		tb.Fatal(err)
	}
	if pl.Len() == 0 {
		tb.Fatal("empty plan")
	}
	_, rtFaults, err := faultmodel.CompileSplit(pl.Specs)
	if err != nil {
		tb.Fatal(err)
	}
	for i, pt := range pl.Points {
		img := c.Image
		img.Files = c.Files
		seed := c.Seed + int64(i) + 1
		if rf, ok := rtFaults[pt.Spec]; ok {
			fault := *rf
			fault.Site = pt.Func
			fn(pt, img, seed, &fault)
			continue
		}
		spec, ok := pl.Spec(pt.Spec)
		if !ok {
			tb.Fatalf("plan names unknown spec %q", pt.Spec)
		}
		mut, err := profipy.Mutate(c.Files[pt.File], spec, pt, profipy.MutateOptions{Triggered: true})
		if err != nil {
			tb.Fatalf("mutate %s: %v", pt.ID(), err)
		}
		img.Overlay = map[string][]byte{pt.File: mut.Source}
		fn(pt, img, seed, nil)
	}
}

// compareWithOracle runs img's two rounds on both paths — each with its
// own injector when the experiment has a runtime fault — and fails on
// any difference in a round result, stdout or the activation report.
func compareWithOracle(t *testing.T, rt *profipy.Runtime, img sandbox.Image, seed int64,
	cfg workload.Config, fault *profipy.RuntimeFault, label string) {
	t.Helper()
	cfg.Rounds = 2
	arm := func(cfg workload.Config) (workload.Config, *profipy.InjectorEngine) {
		if fault == nil {
			return cfg, nil
		}
		eng, err := profipy.NewInjectorEngine([]profipy.RuntimeFault{*fault}, seed)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cfg.Injector = eng
		return cfg, eng
	}

	tc := rt.CreateSeeded(img, seed)
	defer func() { _ = rt.Destroy(tc) }()
	tcfg, teng := arm(cfg)
	want, werr := treeWalkRounds(tc, tcfg, cfg.Rounds)

	pc := rt.CreateSeeded(img, seed)
	defer func() { _ = rt.Destroy(pc) }()
	pcfg, peng := arm(cfg)
	res, perr := workload.Run(pc, pcfg)

	if werr != nil || perr != nil {
		if (werr == nil) != (perr == nil) {
			t.Errorf("%s: tree-walk error %v, production error %v", label, werr, perr)
		}
		return
	}
	if !reflect.DeepEqual(res.Rounds, want) {
		t.Errorf("%s: round results differ:\n tree-walk:  %+v\n production: %+v", label, want, res.Rounds)
	}
	if w, g := tc.LogContents("stdout"), pc.LogContents("stdout"); w != g {
		t.Errorf("%s: stdout differs:\n tree-walk:  %q\n production: %q", label, w, g)
	}
	if teng != nil && !reflect.DeepEqual(teng.Report(), peng.Report()) {
		t.Errorf("%s: activation report differs:\n tree-walk:  %+v\n production: %+v", label, teng.Report(), peng.Report())
	}
}

func TestOracleFaultFreeCorpus(t *testing.T) {
	for _, wl := range []struct{ name, src string }{
		{"standard", kvclient.WorkloadSource},
		{"late-site", kvclient.LateWorkloadSource},
	} {
		t.Run(wl.name, func(t *testing.T) {
			rt := profipy.NewRuntime(profipy.RuntimeConfig{Cores: 2, Seed: 20})
			img := kvclient.Image()
			img.Files = kvclient.Sources()
			img.Files[kvclient.FileWorkload] = []byte(wl.src)
			// The base program: round 1 arms the trigger, but nothing
			// in it reads the trigger, so both rounds are fault-free.
			cfg := kvclient.WorkloadConfig()
			compareWithOracle(t, rt, img, 7, cfg, nil, wl.name)
		})
	}
}

func TestOracleExperiments(t *testing.T) {
	for _, gc := range oracleCampaigns {
		if gc.name == "campaign-late" {
			continue // §V-A's mutants again, on a workload the fault-free test covers
		}
		t.Run(gc.name, func(t *testing.T) {
			rt := profipy.NewRuntime(profipy.RuntimeConfig{Cores: 2, Seed: 20})
			c := gc.build(rt, gc.seed)
			mutants, injected := 0, 0
			eachExperiment(t, c, func(pt profipy.InjectionPoint, img sandbox.Image, seed int64, fault *profipy.RuntimeFault) {
				compareWithOracle(t, rt, img, seed, c.Workload, fault,
					fmt.Sprintf("%s (experiment %d)", pt.ID(), mutants+injected))
				if fault != nil {
					injected++
				} else {
					mutants++
				}
			})
			t.Logf("%d mutants and %d runtime injections agree with the tree-walk", mutants, injected)
		})
	}
}

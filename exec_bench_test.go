// End-to-end execute-phase benchmarks for the compile-once/run-many
// interpreter: campaign throughput in experiments per second on the
// production path, next to the tree-walk reference driven by the
// test-local harness of oracle_test.go.
//
// TestEmitExecBenchJSON (gated by PROFIPY_BENCH_JSON) writes the
// machine-readable BENCH_exec.json consumed by `make bench` and CI, so
// the execute-phase perf trajectory is tracked from this PR on.
package profipy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"profipy/internal/campaign"
	"profipy/internal/faultmodel"
	"profipy/internal/interp"
	"profipy/internal/kvclient"
	"profipy/internal/mutator"
	"profipy/internal/pattern"
	"profipy/internal/plan"
	"profipy/internal/runtimefault"
	"profipy/internal/sandbox"
	"profipy/internal/scanner"
	"profipy/internal/workload"
)

// runCampaign runs one §V-A campaign.
func runCampaign(tb testing.TB, seed int64) *campaign.Result {
	tb.Helper()
	rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
	res, err := kvclient.CampaignA(rt, seed).Run()
	if err != nil {
		tb.Fatalf("campaign: %v", err)
	}
	return res
}

// runTreeWalkCampaign is the tree-walk baseline of runCampaign: every
// §V-A experiment (mutate, deploy, two rounds) on the reference
// interpreter, scheduled N−1 parallel like the Local executor. It skips
// the coverage pass and the analysis, both small next to the rounds.
// Returns the experiment count.
func runTreeWalkCampaign(tb testing.TB, seed int64) int {
	tb.Helper()
	rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
	c := kvclient.CampaignA(rt, seed)
	type exp struct {
		img  sandbox.Image
		seed int64
	}
	var exps []exp
	eachExperiment(tb, c, func(_ InjectionPoint, img sandbox.Image, seed int64, _ *RuntimeFault) {
		exps = append(exps, exp{img, seed})
	})
	errs := sandbox.RunBatch(rt, c.Image, len(exps), func(i int) error {
		ctr := rt.CreateSeeded(exps[i].img, exps[i].seed)
		defer func() { _ = rt.Destroy(ctr) }()
		_, err := treeWalkRounds(ctr, c.Workload, 2)
		return err
	})
	for _, err := range errs {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return len(exps)
}

// TestRuntimeCampaignDeterminism asserts the runtime-injection seed
// guarantee: the same campaign seed produces byte-identical records
// (trigger decisions, corruptions, activation counts included) across
// repeated runs.
func TestRuntimeCampaignDeterminism(t *testing.T) {
	var out [2][]byte
	for i := range out {
		rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
		res, err := kvclient.CampaignR(rt, 404).Run()
		if err != nil {
			t.Fatal(err)
		}
		recs, err := json.Marshal(res.Records)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = recs
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Error("same seed must produce byte-identical records with runtime faults enabled")
	}
}

// runtimeOnlyFaultload filters the mixed §V-R faultload down to its
// runtime trigger/action specs.
func runtimeOnlyFaultload(tb testing.TB) []faultmodel.Spec {
	tb.Helper()
	var out []faultmodel.Spec
	for _, s := range kvclient.CampaignRFaultload() {
		if s.IsRuntime() {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		tb.Fatal("mixed faultload has no runtime specs")
	}
	return out
}

// TestRuntimeOnlySkipsRecompile asserts that a runtime-only faultload
// never takes the mutation path: every experiment runs as a runtime
// injection against the campaign's base program (no per-experiment
// source rewrite, no single-file program derivation).
func TestRuntimeOnlySkipsRecompile(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
	c := kvclient.CampaignR(rt, 404)
	c.Faultload = runtimeOnlyFaultload(t)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Len() == 0 {
		t.Fatal("runtime-only plan is empty")
	}
	if res.Mutated != 0 {
		t.Errorf("runtime-only campaign took the mutation path %d times", res.Mutated)
	}
	if res.Injected != len(res.Records) {
		t.Errorf("Injected = %d, want every experiment (%d)", res.Injected, len(res.Records))
	}
	for _, rec := range res.Records {
		if rec.Result != nil && len(rec.Injections) == 0 {
			t.Errorf("experiment %s has no injector report", rec.Point.ID())
		}
	}
}

// lateSites are the lock/auth functions the late-site workload first
// reaches near the end of round 1 — the injection sites of
// campaign-late, and the sites the snapshot/fork microbenchmarks below
// build prefixes for.
var lateSites = []string{
	"Lock.Acquire", "Lock.Release",
	"Auth.AddUser", "Auth.ListUsers", "Auth.SaveToken", "Auth.RemoveUser",
}

// latePrefixSetup compiles the late-site corpus and returns everything
// the prefix microbenchmarks need: runtime, image with the file layer,
// and the workload config holding the compiled program.
func latePrefixSetup(tb testing.TB) (*Runtime, sandbox.Image, workload.Config) {
	tb.Helper()
	files := kvclient.Sources()
	files[kvclient.FileWorkload] = []byte(kvclient.LateWorkloadSource)
	cfg := kvclient.WorkloadConfig()
	units := make([]interp.SourceUnit, 0, len(cfg.Files))
	for _, f := range cfg.Files {
		units = append(units, interp.SourceUnit{Name: f, Src: files[f]})
	}
	prog, err := interp.CompileProgram(units)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Program = prog
	rt := NewRuntime(RuntimeConfig{Cores: 2, Seed: 7})
	img := kvclient.Image()
	img.Files = files
	return rt, img, cfg
}

// buildLatePrefixes runs one BuildPrefixes pass over the late-site
// corpus and asserts every site got a prefix — a partially covered set
// would let the fork microbenchmark silently measure a fallback.
func buildLatePrefixes(tb testing.TB, rt *Runtime, img sandbox.Image, cfg workload.Config) *workload.PrefixSet {
	tb.Helper()
	ctr := rt.CreateSeeded(img, 7)
	ps, err := workload.BuildPrefixes(ctr, cfg, lateSites)
	if err != nil {
		tb.Fatal(err)
	}
	if err := rt.Destroy(ctr); err != nil {
		tb.Fatal(err)
	}
	st := ps.Stats()
	if st.Covered != len(lateSites) {
		tb.Fatalf("prefix build covered %d of %d late sites (snapshots=%d)", st.Covered, len(lateSites), st.Snapshots)
	}
	return ps
}

// runLateExperiments runs every campaign-late experiment (recompile the
// mutated file, deploy, two rounds) N−1 parallel by driving the
// workload package directly: with fork, one BuildPrefixes pass and
// RunForked per experiment, falling back to Run like the Runner does;
// without, Run only. It skips scan-to-coverage and the analysis on both
// sides, so the two rows differ in nothing but the fork. Returns the
// experiment count and how many of them resumed from a snapshot.
func runLateExperiments(tb testing.TB, fork bool) (experiments, hits int) {
	tb.Helper()
	_, _, cfg := latePrefixSetup(tb) // campaign-late's sources and workload config, compiled
	rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
	c := kvclient.CampaignLate(rt, 707)
	type exp struct {
		site string
		img  sandbox.Image
		seed int64
	}
	var exps []exp
	eachExperiment(tb, c, func(pt InjectionPoint, img sandbox.Image, seed int64, fault *RuntimeFault) {
		if fault != nil {
			tb.Fatalf("campaign-late has a runtime fault at %s; this harness only recompiles mutants", pt.ID())
		}
		exps = append(exps, exp{pt.Func, img, seed})
	})
	var prefixes *workload.PrefixSet
	if fork {
		img := c.Image
		img.Files = c.Files
		prefixes = buildLatePrefixes(tb, rt, img, cfg)
	}
	var forked atomic.Int64
	errs := sandbox.RunBatch(rt, c.Image, len(exps), func(i int) error {
		e := exps[i]
		ecfg := cfg
		var err error
		if ecfg.Program, err = cfg.Program.WithFiles(e.img.Overlay); err != nil {
			return err
		}
		if pre := prefixes.For(e.site); pre != nil {
			ctr := rt.CreateSeeded(e.img, e.seed)
			_, ok, _ := workload.RunForked(ctr, ecfg, workload.ForkSpec{Prefix: pre, BaseFiles: c.Files, Overlay: e.img.Overlay})
			_ = rt.Destroy(ctr)
			if ok {
				forked.Add(1)
				return nil
			}
		}
		ctr := rt.CreateSeeded(e.img, e.seed)
		defer func() { _ = rt.Destroy(ctr) }()
		_, err = workload.Run(ctr, ecfg)
		return err
	})
	for _, err := range errs {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return len(exps), int(forked.Load())
}

// BenchmarkPrefixSnapshot measures the cost of one full BuildPrefixes
// pass over the late-site workload: the base round executed once with a
// boundary snapshot captured per top-level statement until all sites
// are assigned. AllocedBytes/op divided by the snapshot count is the
// per-snapshot memory footprint BENCH_exec.json reports.
func BenchmarkPrefixSnapshot(b *testing.B) {
	rt, img, cfg := latePrefixSetup(b)
	snapshots := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr := rt.CreateSeeded(img, 7)
		ps, err := workload.BuildPrefixes(ctr, cfg, lateSites)
		if err != nil {
			b.Fatal(err)
		}
		snapshots = ps.Stats().Snapshots
		if err := rt.Destroy(ctr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(snapshots), "snapshots")
}

// BenchmarkForkedExperiment measures one forked experiment (round 1 resumed
// from a late-site snapshot, round 2 run in full) against the full
// two-round run of BenchmarkExperimentRound / experiment-two-rounds.
// The headroom between them is what campaign-late's fork-vs-full A/B
// realizes end to end.
func BenchmarkForkedExperiment(b *testing.B) {
	rt, img, cfg := latePrefixSetup(b)
	ps := buildLatePrefixes(b, rt, img, cfg)
	pre := ps.For(lateSites[0])
	spec := workload.ForkSpec{Prefix: pre, BaseFiles: img.Files}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr := rt.CreateSeeded(img, 7)
		res, ok, err := workload.RunForked(ctr, cfg, spec)
		if err != nil {
			b.Fatal(err)
		}
		if !ok || res == nil {
			b.Fatal("fork fell back to a full run; the microbenchmark would measure the wrong path")
		}
		if err := rt.Destroy(ctr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeExperiment measures one runtime-injection experiment
// (engine build + two workload rounds) against a prebuilt base program:
// the path that skips per-experiment recompilation entirely. Compare
// with the mutated-experiment rows of BENCH_exec.json.
func BenchmarkRuntimeExperiment(b *testing.B) {
	files := kvclient.Sources()
	cfg := kvclient.WorkloadConfig()
	units := make([]interp.SourceUnit, 0, len(cfg.Files))
	for _, f := range cfg.Files {
		units = append(units, interp.SourceUnit{Name: f, Src: files[f]})
	}
	prog, err := interp.CompileProgram(units)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Program = prog
	fault := runtimefault.Fault{
		Name: "bench-flaky",
		Site: "Client.api",
		When: runtimefault.Trigger{Mode: runtimefault.TriggerProb, P: 0.5},
		Do:   runtimefault.Action{Kind: runtimefault.ActionRaise, ExcType: "ConnectTimeoutError", Message: "bench"},
	}
	rt := NewRuntime(RuntimeConfig{Cores: 2, Seed: 7})
	img := kvclient.Image()
	img.Files = files
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := runtimefault.NewEngine([]runtimefault.Fault{fault}, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		ecfg := cfg
		ecfg.Injector = eng
		ctr := rt.CreateSeeded(img, int64(i))
		if _, err := workload.Run(ctr, ecfg); err != nil {
			b.Fatal(err)
		}
		if err := rt.Destroy(ctr); err != nil {
			b.Fatal(err)
		}
	}
}

// mutantDeriveLap prepares §V-B's whole plan for deriving every mutant's
// program off a fresh base: what an experiment pays before its container
// exists. The text front end is what the Runner did until it was handed
// the declaration (print the window twice more for diagnostics, splice,
// then diff the file against the base and re-parse the declaration);
// the decl front end prints the deployed text once and compiles the
// tree it was printed from. lap runs the plan once; mutants is its size.
func mutantDeriveLap(tb testing.TB, decl bool) (lap func(), mutants int) {
	tb.Helper()
	c := kvclient.CampaignB(NewRuntime(RuntimeConfig{Cores: 2, Seed: 20}), 202)
	cache := scanner.NewProjectCache(c.Files)
	pl, err := plan.BuildFromCache(cache, c.Faultload)
	if err != nil {
		tb.Fatal(err)
	}
	models := make(map[string]*pattern.MetaModel)
	for _, spec := range c.Faultload {
		if models[spec.Name], err = spec.Compile(); err != nil {
			tb.Fatal(err)
		}
	}
	units := make([]interp.SourceUnit, 0, len(c.Workload.Files))
	for _, name := range c.Workload.Files {
		pf, err := cache.Get(name)
		if err != nil {
			tb.Fatal(err)
		}
		units = append(units, interp.SourceUnit{Name: name, Src: pf.Src, AST: pf.File})
	}
	return func() {
		base, err := interp.CompileProgram(units)
		if err != nil {
			tb.Fatal(err)
		}
		for _, pt := range pl.Points {
			pf, _ := cache.Get(pt.File)
			opts := mutator.Options{Triggered: true}
			if !decl {
				res, err := mutator.ApplyParsed(pf, models[pt.Spec], pt, opts)
				if err != nil {
					tb.Fatal(err)
				}
				_, _ = res.Original(), res.Mutated()
				if _, err := base.WithFiles(map[string][]byte{pt.File: res.Source}); err != nil {
					tb.Fatal(err)
				}
				continue
			}
			mut, err := mutator.Mutate(pf, models[pt.Spec], pt, opts)
			if err != nil {
				tb.Fatal(err)
			}
			src, err := mut.Render()
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := base.WithDecl(pt.File, mut.Decl(), src); err != nil {
				tb.Fatal(err)
			}
		}
	}, len(pl.Points)
}

var mutantDeriveRows = []struct {
	name string
	decl bool
}{{"text", false}, {"decl", true}}

// BenchmarkMutantDerive measures mutant → program over §V-B's plan on
// both front ends; one op is the whole plan off a fresh base (the base
// compile included, the same on both rows).
func BenchmarkMutantDerive(b *testing.B) {
	for _, row := range mutantDeriveRows {
		b.Run(row.name, func(b *testing.B) {
			lap, mutants := mutantDeriveLap(b, row.decl)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lap()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*mutants), "ns/mutant")
		})
	}
}

// BenchmarkCampaignExecution measures end-to-end campaign throughput
// (scan + coverage + all experiments + analysis) in experiments per
// wall second, next to the tree-walk baseline (experiments only).
func BenchmarkCampaignExecution(b *testing.B) {
	for _, row := range campaignRows {
		b.Run(row.name, func(b *testing.B) {
			experiments := 0
			for i := 0; i < b.N; i++ {
				experiments = row.run(b, 101)
			}
			b.ReportMetric(float64(experiments*b.N)/b.Elapsed().Seconds(), "experiments/s")
			b.ReportMetric(float64(experiments), "experiments")
		})
	}
}

// campaignRows are the campaign-level benchmark rows; run returns the
// experiment count.
var campaignRows = []struct {
	name string
	run  func(tb testing.TB, seed int64) int
}{
	{"closure", func(tb testing.TB, seed int64) int { return len(runCampaign(tb, seed).Records) }},
	{"tree-walk", runTreeWalkCampaign},
}

// execBenchResult is one row of BENCH_exec.json.
type execBenchResult struct {
	Name             string  `json:"name"`
	NsPerOp          float64 `json:"nsPerOp"`
	AllocsPerOp      int64   `json:"allocsPerOp"`
	BytesPerOp       int64   `json:"bytesPerOp"`
	ExperimentsPerSc float64 `json:"experimentsPerSec,omitempty"`
	// Snapshots and BytesPerSnapshot describe the prefix-snapshot rows:
	// boundary snapshots captured per BuildPrefixes pass and the
	// allocation footprint of one snapshot (pass bytes / snapshots).
	Snapshots        int   `json:"snapshots,omitempty"`
	BytesPerSnapshot int64 `json:"bytesPerSnapshot,omitempty"`
}

// TestEmitExecBenchJSON measures the execute phase on both rows and
// writes machine-readable results to the path in PROFIPY_BENCH_JSON
// (skipped otherwise). `make bench` and the CI bench job run it and
// archive the artifact.
func TestEmitExecBenchJSON(t *testing.T) {
	path := os.Getenv("PROFIPY_BENCH_JSON")
	if path == "" {
		t.Skip("set PROFIPY_BENCH_JSON=<path> to emit the exec benchmark artifact")
	}

	var rows []execBenchResult
	measureCampaign := func(name string, run func(tb testing.TB, seed int64) int) {
		experiments := 0
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments = run(b, 101)
			}
		})
		row := execBenchResult{
			Name:        name,
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		}
		if br.NsPerOp() > 0 {
			row.ExperimentsPerSc = float64(experiments) * 1e9 / float64(br.NsPerOp())
		}
		rows = append(rows, row)
	}
	for _, row := range campaignRows {
		measureCampaign("campaign-exec/"+row.name, row.run)
	}

	measureRound := func(name string, treeWalk bool) {
		files := kvclient.Sources()
		cfg := kvclient.WorkloadConfig()
		if !treeWalk {
			units := make([]interp.SourceUnit, 0, len(cfg.Files))
			for _, f := range cfg.Files {
				units = append(units, interp.SourceUnit{Name: f, Src: files[f]})
			}
			prog, err := interp.CompileProgram(units)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Program = prog
		}
		br := testing.Benchmark(func(b *testing.B) {
			rt := NewRuntime(RuntimeConfig{Cores: 2, Seed: 7})
			img := kvclient.Image()
			img.Files = files
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctr := rt.CreateSeeded(img, 7)
				var err error
				if treeWalk {
					_, err = treeWalkRounds(ctr, cfg, 2)
				} else {
					_, err = workload.Run(ctr, cfg)
				}
				if err != nil {
					b.Fatal(err)
				}
				if err := rt.Destroy(ctr); err != nil {
					b.Fatal(err)
				}
			}
		})
		rows = append(rows, execBenchResult{
			Name:        name,
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		})
	}
	measureRound("experiment-two-rounds/closure", false)
	measureRound("experiment-two-rounds/tree-walk", true)

	// Fork-vs-full A/B on the late-site scenario: every injection site
	// in campaign-late is first reached near the end of round 1, so the
	// prefix-fork path skips almost a full round per experiment. Forking
	// is the Runner's own decision now, so the full-runs side cannot be
	// had from a campaign; both rows drive the workload package directly
	// (runLateExperiments) and differ only in RunForked vs Run. The rows
	// are adjacent (fork first) so the speedup map reports fork-vs-full.
	// The hits check is the CI smoke that the fork path actually engaged
	// — a silent fallback to full runs would otherwise report a ~1.00x
	// row without failing anything.
	measureLate := func(name string, fork bool) {
		experiments, hits := 0, 0
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments, hits = runLateExperiments(b, fork)
			}
		})
		if fork && hits != experiments {
			t.Fatalf("prefix-fork did not engage: %d hits of %d experiments", hits, experiments)
		}
		row := execBenchResult{
			Name:        name,
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		}
		if br.NsPerOp() > 0 {
			row.ExperimentsPerSc = float64(experiments) * 1e9 / float64(br.NsPerOp())
		}
		rows = append(rows, row)
	}
	measureLate("campaign-late/prefix-fork-closure", true)
	measureLate("campaign-late/full-runs-closure", false)

	// Snapshot-size / fork-cost microbenchmark rows: what one
	// BuildPrefixes pass costs (time and per-snapshot memory), and one
	// forked experiment vs the same experiment run in full, both on the
	// late-site workload where the fork pays off most.
	{
		rt, img, cfg := latePrefixSetup(t)
		snapshots := 0
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctr := rt.CreateSeeded(img, 7)
				ps, err := workload.BuildPrefixes(ctr, cfg, lateSites)
				if err != nil {
					b.Fatal(err)
				}
				snapshots = ps.Stats().Snapshots
				if err := rt.Destroy(ctr); err != nil {
					b.Fatal(err)
				}
			}
		})
		row := execBenchResult{
			Name:        "prefix-snapshot/build-pass",
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			Snapshots:   snapshots,
		}
		if snapshots > 0 {
			row.BytesPerSnapshot = br.AllocedBytesPerOp() / int64(snapshots)
		}
		rows = append(rows, row)

		ps := buildLatePrefixes(t, rt, img, cfg)
		spec := workload.ForkSpec{Prefix: ps.For(lateSites[0]), BaseFiles: img.Files}
		forked := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctr := rt.CreateSeeded(img, 7)
				res, ok, err := workload.RunForked(ctr, cfg, spec)
				if err != nil || !ok || res == nil {
					b.Fatalf("fork fell back to a full run (ok=%v err=%v)", ok, err)
				}
				if err := rt.Destroy(ctr); err != nil {
					b.Fatal(err)
				}
			}
		})
		rows = append(rows, execBenchResult{
			Name:        "prefix-fork/forked-experiment",
			NsPerOp:     float64(forked.NsPerOp()),
			AllocsPerOp: forked.AllocsPerOp(),
			BytesPerOp:  forked.AllocedBytesPerOp(),
		})
		full := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctr := rt.CreateSeeded(img, 7)
				if _, err := workload.Run(ctr, cfg); err != nil {
					b.Fatal(err)
				}
				if err := rt.Destroy(ctr); err != nil {
					b.Fatal(err)
				}
			}
		})
		rows = append(rows, execBenchResult{
			Name:        "prefix-fork/full-experiment",
			NsPerOp:     float64(full.NsPerOp()),
			AllocsPerOp: full.AllocsPerOp(),
			BytesPerOp:  full.AllocedBytesPerOp(),
		})
	}

	// Mutant → program on both front ends, whole §V-B plan per op.
	for _, row := range mutantDeriveRows {
		lap, _ := mutantDeriveLap(t, row.decl)
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lap()
			}
		})
		rows = append(rows, execBenchResult{
			Name:        "mutant-derive/" + row.name,
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		})
	}

	// The speedup map pairs rows by name: each entry divides the
	// baseline row's ns/op by the subject row's, so >1.00x means the
	// subject is faster.
	ratio := func(subject, baseline string) (string, bool) {
		var num, den float64
		for _, r := range rows {
			if r.Name == subject {
				den = r.NsPerOp
			}
			if r.Name == baseline {
				num = r.NsPerOp
			}
		}
		if num <= 0 || den <= 0 {
			return "", false
		}
		return fmt.Sprintf("%.2fx", num/den), true
	}
	out := struct {
		Benchmarks []execBenchResult `json:"benchmarks"`
		Speedup    map[string]string `json:"speedup"`
	}{Benchmarks: rows, Speedup: map[string]string{}}
	for name, pair := range map[string][2]string{
		"campaign-exec closure-vs-tree-walk":         {"campaign-exec/closure", "campaign-exec/tree-walk"},
		"experiment-two-rounds closure-vs-tree-walk": {"experiment-two-rounds/closure", "experiment-two-rounds/tree-walk"},
		"campaign-late prefix-fork-vs-full-runs":     {"campaign-late/prefix-fork-closure", "campaign-late/full-runs-closure"},
		"late-experiment forked-vs-full":             {"prefix-fork/forked-experiment", "prefix-fork/full-experiment"},
		"mutant-derive decl-vs-text":                 {"mutant-derive/decl", "mutant-derive/text"},
	} {
		if v, ok := ratio(pair[0], pair[1]); ok {
			out.Speedup[name] = v
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %s", path, data)
}

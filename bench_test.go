// Benchmark harness regenerating every table and figure of the paper's
// evaluation. The experiment index lives in DESIGN.md; paper-vs-measured
// values are recorded in EXPERIMENTS.md.
//
//	F1   BenchmarkFig1DSLCompile        Fig. 1 bug specifications
//	T1   BenchmarkTable1Faultloads      Table I faultload definitions
//	E-A  BenchmarkCampaignA             §V-A  errors from external APIs
//	E-B  BenchmarkCampaignB             §V-B  wrong inputs
//	E-C  BenchmarkCampaignC             §V-C  resource management bugs
//	E-D1 BenchmarkScanKVClient          §V-D  scan+mutate the client
//	E-D2 BenchmarkScanLargeProject      §V-D  OpenStack-scale scan
//	E-D3 BenchmarkSingleExperiment      §V-D  10–120s per experiment
//	E-D4 BenchmarkParallelExperiments   §V-D  N−1 parallel containers
//	     BenchmarkAblationTrigger       trigger-wrap overhead (design ablation)
//	     BenchmarkAblationCoverage      coverage-pruned vs full plans
//	     BenchmarkSchedulerThroughput   async campaign jobs/s vs pool size
//	     BenchmarkSchedulerOverhead     queue+pool cost with no-op jobs
package profipy

import (
	"context"
	"fmt"
	"testing"

	"profipy/internal/campaign"
	"profipy/internal/faultmodel"
	"profipy/internal/genproject"
	"profipy/internal/interp"
	"profipy/internal/kvclient"
	"profipy/internal/sandbox"
	"profipy/internal/scanner"
	"profipy/internal/scheduler"
	"profipy/internal/workload"
)

// fig1Specs are the three bug specifications of Fig. 1.
var fig1Specs = []Spec{
	{Name: "MFC", DSL: `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`},
	{Name: "MIFS", DSL: `
change {
	if $EXPR{var=node} {
		$BLOCK{stmts=1,4}
		continue
	}
} into {
}`},
	{Name: "WPF", DSL: `
change {
	$CALL#c{name=utils.Execute}(..., $STRING#s{val=*-*}, ...)
} into {
	$CALL#c(..., $CORRUPT($STRING#s), ...)
}`},
}

// BenchmarkFig1DSLCompile measures DSL compilation of the Fig. 1 specs
// (experiment F1).
func BenchmarkFig1DSLCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range fig1Specs {
			if _, err := Compile(s.Name, s.DSL); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1Faultloads compiles and scans the three Table I
// faultloads, reporting the injection-point counts the paper's case study
// is built on (experiment T1). Paper: A=26, B=66, C=37.
func BenchmarkTable1Faultloads(b *testing.B) {
	src := kvclient.Sources()
	client := map[string][]byte{kvclient.FileClient: src[kvclient.FileClient], kvclient.FileLock: src[kvclient.FileLock], kvclient.FileAuth: src[kvclient.FileAuth]}
	workload := map[string][]byte{kvclient.FileWorkload: src[kvclient.FileWorkload]}
	rows := []struct {
		name  string
		files map[string][]byte
		specs []Spec
	}{
		{"external-api-failures", client, kvclient.CampaignAFaultload()},
		{"wrong-inputs", workload, kvclient.CampaignBFaultload()},
		{"resource-management", workload, kvclient.CampaignCFaultload()},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			points := 0
			for i := 0; i < b.N; i++ {
				pl, err := Scan(row.files, row.specs)
				if err != nil {
					b.Fatal(err)
				}
				points = pl.Len()
			}
			b.ReportMetric(float64(points), "points")
		})
	}
}

func benchCampaign(b *testing.B, build func(rt *Runtime, seed int64) *campaign.Campaign, seed int64) {
	b.Helper()
	var rep *Report
	for i := 0; i < b.N; i++ {
		rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
		res, err := build(rt, seed).Run()
		if err != nil {
			b.Fatal(err)
		}
		rep = res.Report
	}
	b.ReportMetric(float64(rep.Total), "points")
	b.ReportMetric(float64(rep.Covered), "covered")
	b.ReportMetric(float64(rep.Failures), "failures")
	b.ReportMetric(float64(rep.Unavailable), "unavailable")
}

// BenchmarkCampaignA regenerates §V-A (paper: 26 points, 13 covered,
// 12 failures, half unavailable in round 2).
func BenchmarkCampaignA(b *testing.B) { benchCampaign(b, kvclient.CampaignA, 101) }

// BenchmarkCampaignB regenerates §V-B (paper: 66 points, all covered,
// 29 failures: AttributeError, KeyNotFound, 400 Bad Request).
func BenchmarkCampaignB(b *testing.B) { benchCampaign(b, kvclient.CampaignB, 202) }

// BenchmarkCampaignC regenerates §V-C (paper: 37 points, all covered,
// 14 failures, mostly UnboundLocalError).
func BenchmarkCampaignC(b *testing.B) { benchCampaign(b, kvclient.CampaignC, 303) }

// BenchmarkScanKVClient measures scan+mutate over the whole client
// project with all three faultloads (experiment E-D1; paper: < 1 min for
// Python-etcd).
func BenchmarkScanKVClient(b *testing.B) {
	files := kvclient.Sources()
	specs := append(append(kvclient.CampaignAFaultload(), kvclient.CampaignBFaultload()...),
		kvclient.CampaignCFaultload()...)
	models, err := faultmodel.CompileAll(specs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	points := 0
	for i := 0; i < b.N; i++ {
		pts, err := scanner.ScanProject(files, models)
		if err != nil {
			b.Fatal(err)
		}
		// Mutate the first point of each file to include generation cost.
		seen := map[string]bool{}
		for _, pt := range pts {
			if seen[pt.File] {
				continue
			}
			seen[pt.File] = true
			spec := findSpec(specs, pt.Spec)
			if _, err := Mutate(files[pt.File], spec, pt, MutateOptions{Triggered: true}); err != nil {
				b.Fatal(err)
			}
		}
		points = len(pts)
	}
	b.ReportMetric(float64(points), "points")
}

func findSpec(specs []Spec, name string) Spec {
	for _, s := range specs {
		if s.Name == name {
			return s
		}
	}
	return Spec{}
}

// BenchmarkScanLargeProject measures scan throughput on synthetic corpora
// with 120 DSL patterns (experiment E-D2; paper: ~400K lines -> 17,488
// locations in ~20 min). The shape to reproduce is linear scaling in
// corpus size; lines/s is the comparable throughput metric.
func BenchmarkScanLargeProject(b *testing.B) {
	for _, lines := range []int{10_000, 40_000, 100_000} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			files := genproject.Generate(genproject.DefaultConfig(lines, 1))
			total := genproject.Lines(files)
			models, err := faultmodel.CompileAll(genproject.Patterns(120))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			points := 0
			for i := 0; i < b.N; i++ {
				pts, err := scanner.ScanProject(files, models)
				if err != nil {
					b.Fatal(err)
				}
				points = len(pts)
			}
			b.ReportMetric(float64(points), "points")
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
		})
	}
}

// BenchmarkSingleExperiment measures one full experiment (mutate, deploy
// container, two workload rounds, teardown) — experiment E-D3 (paper:
// 10–120s per experiment, worst case a hang). The virtual-duration metric
// is the in-experiment time that corresponds to the paper's wall clock.
func BenchmarkSingleExperiment(b *testing.B) {
	files := kvclient.Sources()
	run := func(b *testing.B, specs []Spec, pointIdx int) {
		b.Helper()
		pl, err := Scan(map[string][]byte{kvclient.FileClient: files[kvclient.FileClient]}, specs)
		if err != nil {
			b.Fatal(err)
		}
		if pl.Len() <= pointIdx {
			b.Fatalf("no point %d (have %d)", pointIdx, pl.Len())
		}
		pt := pl.Points[pointIdx]
		spec, _ := pl.Spec(pt.Spec)
		mut, err := Mutate(files[kvclient.FileClient], spec, pt, MutateOptions{Triggered: true})
		if err != nil {
			b.Fatal(err)
		}
		imgFiles := map[string][]byte{}
		for k, v := range files {
			imgFiles[k] = v
		}
		imgFiles[kvclient.FileClient] = mut.Source
		rt := NewRuntime(RuntimeConfig{Cores: 2, Seed: 5})
		var virtual int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			img := kvclient.Image()
			img.Files = imgFiles
			ctr := rt.CreateSeeded(img, 5)
			res, err := workload.Run(ctr, kvclient.WorkloadConfig())
			if err != nil {
				b.Fatal(err)
			}
			virtual = res.Round1().VirtualNS + res.Round2().VirtualNS
			if err := rt.Destroy(ctr); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(virtual)/1e9, "virtual-s")
	}
	b.Run("typical", func(b *testing.B) {
		run(b, kvclient.CampaignAFaultload(), 0)
	})
	b.Run("hang-worst-case", func(b *testing.B) {
		// An injected unbounded delay in the request path makes round 1
		// hit the workload timeout — the paper's 120s worst case.
		hang := []Spec{{Name: "hang", Type: "Hang", DSL: `
change {
	$VAR#v := $CALL#c{name=urllib.Request}($EXPR#m, $EXPR#u, $EXPR#p)
} into {
	$TIMEOUT{ms=500000}
	$VAR#v := $CALL#c
}`}}
		run(b, hang, 2) // the tryOnce request site: hit on every API call
	})
}

// BenchmarkParallelExperiments sweeps the simulated host's core count:
// the runtime schedules at most N−1 parallel containers (experiment
// E-D4, the PAIN rule [52]). The metric is experiments per wall second
// over a fixed 24-experiment batch.
func BenchmarkParallelExperiments(b *testing.B) {
	files := kvclient.Sources()
	const batch = 24
	for _, cores := range []int{2, 3, 5, 9} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := NewRuntime(RuntimeConfig{Cores: cores, Seed: 1})
				img := kvclient.Image()
				img.Files = files
				results := sandbox.RunBatch(rt, img, batch, func(j int) error {
					ctr := rt.CreateSeeded(img, int64(j))
					defer func() { _ = rt.Destroy(ctr) }()
					_, err := workload.Run(ctr, kvclient.WorkloadConfig())
					return err
				})
				for _, err := range results {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "experiments/s")
			b.ReportMetric(float64(cores-1), "workers")
		})
	}
}

// BenchmarkAblationTrigger compares a fault-free workload run against the
// same run with a trigger-wrapped (disabled) mutation in the hot path:
// the cost of keeping original statements behind the EDFI-style trigger.
func BenchmarkAblationTrigger(b *testing.B) {
	files := kvclient.Sources()
	runOnce := func(b *testing.B, srcs map[string][]byte) {
		b.Helper()
		rt := NewRuntime(RuntimeConfig{Cores: 2, Seed: 3})
		cfg := kvclient.WorkloadConfig()
		for i := 0; i < b.N; i++ {
			img := kvclient.Image()
			img.Files = srcs
			ctr := rt.CreateSeeded(img, 3)
			// One round with the trigger left off, as a new container
			// has it: the wrapped mutation takes its original branch.
			units := make([]interp.SourceUnit, 0, len(cfg.Files))
			for _, f := range cfg.Files {
				units = append(units, interp.SourceUnit{Name: f, Src: srcs[f]})
			}
			prog, err := interp.CompileProgram(units)
			if err != nil {
				b.Fatal(err)
			}
			it := interp.NewRun(prog, interp.Config{DeadlineNS: cfg.TimeoutNS, MaxSteps: cfg.MaxSteps})
			cfg.Env(it, ctr)
			if err := it.Boot(); err != nil {
				b.Fatal(err)
			}
			if _, err := it.Call(cfg.Entry); err != nil {
				b.Fatalf("fault-free round failed: %v", err)
			}
			if err := rt.Destroy(ctr); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pristine", func(b *testing.B) { runOnce(b, files) })
	b.Run("trigger-wrapped-disabled", func(b *testing.B) {
		specs := kvclient.CampaignAFaultload()
		pl, err := Scan(map[string][]byte{kvclient.FileClient: files[kvclient.FileClient]}, specs)
		if err != nil {
			b.Fatal(err)
		}
		pt := pl.Points[2] // the tryOnce request site: on every API call
		spec, _ := pl.Spec(pt.Spec)
		mut, err := Mutate(files[kvclient.FileClient], spec, pt, MutateOptions{Triggered: true})
		if err != nil {
			b.Fatal(err)
		}
		srcs := map[string][]byte{}
		for k, v := range files {
			srcs[k] = v
		}
		srcs[kvclient.FileClient] = mut.Source
		runOnce(b, srcs)
	})
}

// BenchmarkSchedulerThroughput measures whole-campaign throughput
// through the async scheduler as the worker pool grows: a fixed batch of
// sampled Campaign-A jobs is enqueued and drained, reporting campaigns
// per wall second. This is the SaaS-layer analog of E-D4 — one level up
// from parallel experiments, we parallelize across campaigns.
func BenchmarkSchedulerThroughput(b *testing.B) {
	const batch = 8
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// The scheduler forgets a job once OnFinish has it, so that is
				// where outcomes are read.
				finished := make(chan scheduler.Status, batch)
				s := scheduler.New(scheduler.Config{Workers: workers, QueueDepth: batch,
					OnFinish: func(st scheduler.Status) { finished <- st }})
				for j := 0; j < batch; j++ {
					seed := int64(101 + j)
					_, err := s.Submit("bench", func(ctx context.Context, report func(scheduler.Progress)) error {
						c := kvclient.CampaignA(NewRuntime(RuntimeConfig{Cores: 4, Seed: 20}), seed)
						c.SampleN = 4
						c.OnProgress = func(p campaign.Progress) {
							report(scheduler.Progress{Phase: p.Phase, Done: p.Done, Total: p.Total})
						}
						_, err := c.RunContext(ctx)
						return err
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				for j := 0; j < batch; j++ {
					if st := <-finished; st.State != scheduler.Done {
						b.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
					}
				}
				s.Close()
			}
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "campaigns/s")
			b.ReportMetric(float64(workers), "workers")
		})
	}
}

// BenchmarkSchedulerOverhead isolates the queue + worker-pool cost by
// draining no-op jobs: the jobs/s ceiling the scheduling layer itself
// imposes on campaign throughput.
func BenchmarkSchedulerOverhead(b *testing.B) {
	finished := make(chan scheduler.Status, 1)
	s := scheduler.New(scheduler.Config{Workers: 4, QueueDepth: 1,
		OnFinish: func(st scheduler.Status) { finished <- st }})
	defer s.Close()
	noop := func(ctx context.Context, report func(scheduler.Progress)) error { return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit("noop", noop); err != nil {
			b.Fatal(err)
		}
		if st := <-finished; st.State != scheduler.Done {
			b.Fatalf("job %s: %s", st.ID, st.State)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkAblationCoverage compares campaign cost with and without the
// §IV-D coverage optimization (pruning experiments the workload cannot
// reach).
func BenchmarkAblationCoverage(b *testing.B) {
	for _, reduce := range []bool{false, true} {
		name := "full-plan"
		if reduce {
			name = "coverage-pruned"
		}
		b.Run(name, func(b *testing.B) {
			experiments := 0
			for i := 0; i < b.N; i++ {
				rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
				c := kvclient.CampaignA(rt, 101)
				c.ReducePlan = reduce
				res, err := c.Run()
				if err != nil {
					b.Fatal(err)
				}
				experiments = len(res.Records)
			}
			b.ReportMetric(float64(experiments), "experiments")
		})
	}
}

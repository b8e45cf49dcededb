// Package campaign orchestrates the complete ProFIPy workflow of Fig. 2:
// Scan (DSL compile + source scan + plan), optional coverage analysis,
// Execution (per-experiment mutation, container deploy, two workload
// rounds, teardown — scheduled by an internal/executor engine: the
// local N−1 pool by default, a worker fleet on request), and Data
// Analysis. Records stream as experiments complete — into the online
// analysis.Aggregator, an optional caller Sink (result store, live
// NDJSON) and, unless discarded, the plan-ordered Result.Records slice
// — so the report exists the moment the last experiment lands and
// memory need not grow with the experiment count.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/coverage"
	"profipy/internal/executor"
	"profipy/internal/faultmodel"
	"profipy/internal/interp"
	"profipy/internal/obs"
	"profipy/internal/pattern"
	"profipy/internal/plan"
	"profipy/internal/runtimefault"
	"profipy/internal/sandbox"
	"profipy/internal/scanner"
	"profipy/internal/trace"
	"profipy/internal/workload"
)

// Campaign is a fully configured fault injection campaign.
type Campaign struct {
	// Name labels reports.
	Name string
	// Files holds every file deployed into experiment containers
	// (target software + workload scripts), keyed by container path.
	Files map[string][]byte
	// ScanFiles names the subset of Files to scan for injection points
	// (empty = scan everything).
	ScanFiles []string
	// Faultload is the set of bug specifications to inject.
	Faultload []faultmodel.Spec
	// Workload configures the two-round experiment execution.
	Workload workload.Config
	// Runtime is the container runtime; Image carries the resource
	// profile (files are filled in per experiment).
	Runtime *sandbox.Runtime
	Image   sandbox.Image
	// Seed drives per-experiment determinism.
	Seed int64
	// ReducePlan executes only workload-covered points (§IV-D coverage
	// optimization). When false, all points run and coverage is reported.
	ReducePlan bool
	// SampleN caps the number of experiments (0 = no cap); sampling is
	// deterministic under Seed.
	SampleN int

	// Analysis configures failure classification and metrics.
	Analysis analysis.Config
	// TraceHook, when set, is called on every experiment container (and
	// on the prefix build's scratch container, whose captured state must
	// match theirs) to enable span recording (the kvclient campaign
	// passes kvclient.EnableTracing).
	TraceHook func(c *sandbox.Container)
	// OnProgress, when set, is called as the workflow advances: once per
	// phase transition and once per completed experiment. Experiments run
	// in parallel, so the callback must be safe for concurrent use.
	OnProgress func(Progress)
	// Executor selects the execution engine. Nil picks executor.Local
	// sized by the runtime's N−1 rule. Records are byte-identical across
	// engines, because every experiment's seed derives from its plan
	// index.
	Executor executor.Executor
	// Sink, when set, receives every experiment record as it completes
	// (streaming consumers: the result store, live NDJSON feeds).
	// Put is never called concurrently and sees every executed plan
	// index exactly once, in completion order.
	Sink executor.RecordSink
	// Resume seeds a restarted campaign with records a previous run
	// already produced (typically read back from the result store).
	// Matching plan indices are replayed into the aggregator and the
	// Result — but not re-executed and not re-emitted to Sink — so the
	// final report is byte-identical to an uninterrupted run while only
	// the missing experiments execute. Records whose injection point is
	// not in the current plan are ignored. Experiment seeds derive from
	// plan indices, which is what makes resumed and uninterrupted runs
	// indistinguishable in their record bytes.
	Resume []analysis.Record
	// DiscardRecords drops Result.Records: the report still comes from
	// the online aggregator and records still stream to Sink, but the
	// campaign stops materializing the full record slice — memory stays
	// O(workers) instead of O(experiments).
	DiscardRecords bool
	// Metrics, when set, instruments the run (experiment outcomes,
	// phase latency, mutant compiles) and is forwarded to the
	// default Local executor; caller-supplied executors carry their own
	// registry reference.
	Metrics *obs.Registry
	// Prepared, when set, is where the scan and compile phases look the
	// project up before parsing and compiling it, and leave it for the
	// next campaign over the same files. The process that runs many
	// campaigns (a fleet worker, the SaaS server) owns one set and wires
	// it here; nil prepares the project for this campaign alone.
	Prepared *PreparedSet
}

// Phase names reported through OnProgress, in workflow order.
const (
	PhaseScan     = "scan"
	PhaseCoverage = "coverage"
	PhaseExecute  = "execute"
	PhaseAnalyze  = "analyze"
)

// Progress is a point-in-time snapshot of campaign advancement. Done and
// Total count experiments of the execution phase; both are zero until the
// plan is built.
type Progress struct {
	Phase string `json:"phase"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

func (c *Campaign) progress(phase string, done, total int) {
	if c.OnProgress != nil {
		c.OnProgress(Progress{Phase: phase, Done: done, Total: total})
	}
}

// Result is the outcome of a campaign run.
type Result struct {
	Plan    *plan.Plan
	Covered map[string]bool
	// Records holds every experiment record in plan order; nil when the
	// campaign ran with DiscardRecords (streaming consumers read them
	// from the Sink instead).
	Records  []analysis.Record
	Report   *analysis.Report
	ScanTime time.Duration
	CovTime  time.Duration
	ExecTime time.Duration
	// Errors counts experiments aborted by infrastructure errors.
	Errors int
	// Replayed counts records seeded from Campaign.Resume instead of
	// executed (0 for a fresh run).
	Replayed int
	// Mutated counts experiments that ran the compile-time mutation
	// path (source rewrite + single-file program derivation); Injected
	// counts experiments that ran the runtime injection path, which
	// reuses the campaign's base program unchanged — no per-experiment
	// recompilation.
	Mutated  int
	Injected int
	// Prefix-fork accounting. Every campaign builds its prefix set;
	// workload.BuildPrefixes decides which sites are worth a snapshot.
	// ForkSnapshots and ForkShortSites describe this process's build
	// pass: snapshots captured, and sites left to full runs because
	// their prefix is too short to pay. ForkHits counts experiments
	// resumed from a snapshot and ForkMisses those that tried and fell
	// back to a full run, fleet workers' experiments included;
	// ForkMissReasons splits the misses by workload.ForkMiss ("remote":
	// on a worker, whose envelope carries the outcome, not the reason).
	ForkSnapshots   int
	ForkShortSites  int
	ForkHits        int
	ForkMisses      int
	ForkMissReasons map[string]int
	// Phases is the campaign's own span timeline — the §IV-D recorder
	// turned on the workflow itself: one span per phase (scan, compile,
	// coverage, execute, aggregate). Offsets are nanoseconds from
	// campaign start; ordering is deterministic (StartNS, then Name).
	Phases []trace.Span
}

// Run executes the full workflow.
func (c *Campaign) Run() (*Result, error) {
	return c.RunContext(context.Background())
}

// RunContext executes the full workflow under ctx. Cancellation is
// honored between phases and between experiments: already-running
// experiments finish, pending ones are skipped, and the ctx error is
// returned.
func (c *Campaign) RunContext(ctx context.Context) (*Result, error) {
	met := newMetrics(c.Metrics)
	met.run("started")
	res, err := c.runContext(ctx, met)
	switch {
	case err == nil:
		met.run("completed")
	case errors.Is(err, context.Canceled):
		met.run("canceled")
	default:
		met.run("failed")
	}
	return res, err
}

func (c *Campaign) runContext(ctx context.Context, met *cmetrics) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign %s: %w", c.Name, err)
	}

	// The phase recorder is the §IV-D span timeline pointed at the
	// workflow itself: every phase lands as a span with nanosecond
	// offsets from t0, so the service can answer "where did this
	// campaign's time go".
	t0 := time.Now()
	spans := trace.NewRecorder()
	phaseSpan := func(name string, from time.Time) {
		spans.Record(trace.Span{
			Name: name, Component: "campaign",
			StartNS: from.Sub(t0).Nanoseconds(), EndNS: time.Since(t0).Nanoseconds(),
		})
		met.phase(name, time.Since(from))
	}

	// --- Scan phase ---
	// The project's parse cache is the campaign's shared front-end:
	// every file is parsed once (in this campaign, or in an earlier one
	// that left the project in c.Prepared) and the same parses serve the
	// coverage instrumentation and every experiment's mutation below.
	c.progress(PhaseScan, 0, 0)
	scanStart := time.Now()
	proj, pl, err := c.scan()
	if err != nil {
		return nil, err
	}
	cache := proj.cache
	res := &Result{Plan: pl, ScanTime: time.Since(scanStart)}
	phaseSpan("scan", scanStart)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign %s: %w", c.Name, err)
	}

	// Compile the unmutated base files once per project (reusing the
	// scan-phase parses); every round of every experiment then runs
	// compiled code, and each experiment recompiles only its single
	// mutated declaration.
	compileStart := time.Now()
	wcfg := c.Workload
	if wcfg.Program, _, err = c.baseProgram(proj, met); err != nil {
		return nil, err
	}
	phaseSpan("compile", compileStart)

	// --- Coverage analysis (fault-free instrumented run) ---
	c.progress(PhaseCoverage, 0, len(pl.Points))
	covStart := time.Now()
	covered, err := coverage.AnalyzeCached(c.Runtime, c.Image, c.Files, cache, pl.Points, wcfg)
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", c.Name, err)
	}
	res.Covered = covered
	res.CovTime = time.Since(covStart)
	phaseSpan("coverage", covStart)

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign %s: %w", c.Name, err)
	}

	// --- Execution phase (streaming pipeline) ---
	// The Runner is the campaign's prepared execution state: reduced
	// plan, compiled faultload, coverage verdicts. Remote workers build
	// the very same Runner from the campaign spec, so experiments are
	// interchangeable between this process and the fleet. Records
	// stream once each into the online aggregator, the caller's sink
	// and (unless discarded) the plan-ordered collector.
	runner, err := c.buildRunner(cache, pl, covered, wcfg)
	if err != nil {
		return nil, err
	}
	execPoints := runner.Points()
	agg, err := analysis.NewAggregator(c.Analysis)
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", c.Name, err)
	}
	exec := c.Executor
	if exec == nil {
		img := c.Image
		img.Files = c.Files
		exec = executor.Local{Workers: c.Runtime.MaxParallel(img), Reg: c.Metrics}
	}
	var collect *executor.Collect
	if !c.DiscardRecords {
		collect = executor.NewCollect(len(execPoints))
	}

	// --- Resume replay ---
	// Records a previous run already produced are folded straight into
	// the aggregator (and the collector), their plan indices marked done
	// in the skip mask, and their path kinds re-derived — without
	// executing anything — so the resumed run's Result and report are
	// byte-identical to what one uninterrupted run would have produced.
	// Stored records carry no plan index; the injection point's ID
	// (file, function, window, spec) identifies it uniquely within the
	// plan, so the bitmap is rebuilt by point identity.
	var skip *executor.Mask
	if len(c.Resume) > 0 {
		skip = executor.NewMask(len(execPoints))
		byID := make(map[string][]int, len(execPoints))
		for i, pt := range execPoints {
			byID[pt.ID()] = append(byID[pt.ID()], i)
		}
		for _, rec := range c.Resume {
			id := rec.Point.ID()
			idxs := byID[id]
			if len(idxs) == 0 {
				continue // not in this plan (stale or foreign record)
			}
			byID[id] = idxs[1:]
			i := idxs[0]
			skip.Set(i)
			res.Replayed++
			agg.Add(rec)
			if rec.Result == nil {
				res.Errors++
			}
			switch runner.KindOf(i) {
			case KindMutated:
				runner.mutated.Add(1)
			case KindInjected:
				runner.injected.Add(1)
			}
			if collect != nil {
				collect.Put(i, rec)
			}
		}
	}
	c.progress(PhaseExecute, res.Replayed, len(execPoints))
	execStart := time.Now()
	// The remote executor needs the resolved plan context — coverage
	// verdicts and the exec-point list — to complete the campaign spec
	// its workers rebuild their Runners from, and to fingerprint the
	// plan so a worker that derived a different plan refuses the shard.
	if rm, ok := exec.(*executor.Remote); ok {
		rm.SetPlanContext(covered, execPoints)
	}
	// Hand the completion bitmap to whichever engine runs the missing
	// indices. The value engine is copied (the caller's Executor field is
	// a template, not shared state).
	if skip != nil {
		switch e := exec.(type) {
		case executor.Local:
			e.Skip = skip
			exec = e
		case *executor.Remote:
			e.Skip = skip
		}
	}
	experiment := func(i int) analysis.Record {
		if ctx.Err() != nil {
			return analysis.Record{Point: execPoints[i], FaultType: pl.TypeOf(execPoints[i])}
		}
		return runner.Experiment(i)
	}
	done := res.Replayed
	sink := executor.SinkFunc(func(idx int, rec analysis.Record) {
		agg.Add(rec)
		met.experiment(rec.Result == nil)
		if rec.Result == nil {
			res.Errors++
		}
		if collect != nil {
			collect.Put(idx, rec)
		}
		// Stop forwarding to the caller's sink once canceled: the
		// remaining records are skip stubs, not experiment outcomes, and
		// must not pollute a durable store.
		if c.Sink != nil && ctx.Err() == nil {
			c.Sink.Put(idx, rec)
		}
		done++
		c.progress(PhaseExecute, done, len(execPoints))
	})
	if err := exec.Run(ctx, len(execPoints), experiment, sink); err != nil {
		return nil, fmt.Errorf("campaign %s: execute: %w", c.Name, err)
	}
	res.ExecTime = time.Since(execStart)
	phaseSpan("execute", execStart)
	if collect != nil {
		res.Records = collect.Records()
	}
	res.Mutated, res.Injected = runner.Counts()
	build, forkHits, forkMisses := runner.ForkStats()
	// Remote execution runs experiments in worker processes; their path
	// kinds and fork outcomes arrive with the record envelopes instead
	// of this process's Runner (which only counts locally executed
	// fallback shards).
	if rm, ok := exec.(*executor.Remote); ok {
		rc := rm.Counts()
		res.Mutated += rc.Mutated
		res.Injected += rc.Injected
		forkHits += rc.ForkHits
		if rc.ForkMisses > 0 {
			forkMisses["remote"] = rc.ForkMisses
		}
	}
	res.ForkSnapshots, res.ForkShortSites = build.Snapshots, build.Short
	res.ForkHits, res.ForkMissReasons = forkHits, forkMisses
	for _, n := range forkMisses {
		res.ForkMisses += n
	}
	met.fork(build, forkHits, forkMisses)
	met.mutantCompiles(wcfg.Program.MutantCompiles())
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign %s: %w", c.Name, err)
	}

	// --- Data analysis phase ---
	// The report is already aggregated: every record was folded in as
	// it completed, so finishing the phase is O(1) regardless of the
	// experiment count (and byte-identical to the batch BuildReport).
	c.progress(PhaseAnalyze, len(execPoints), len(execPoints))
	aggStart := time.Now()
	res.Report = agg.Report()
	phaseSpan("aggregate", aggStart)
	res.Phases = spans.Spans()
	return res, nil
}

// scan is the scan phase: the project's parses (borrowed or fresh) and
// the faultload's plan over them, deterministically sampled.
func (c *Campaign) scan() (*Prepared, *plan.Plan, error) {
	if len(c.Files) == 0 {
		return nil, nil, fmt.Errorf("campaign %s: no target files", c.Name)
	}
	if c.Runtime == nil {
		return nil, nil, fmt.Errorf("campaign %s: no runtime", c.Name)
	}
	proj := c.project()
	pl, err := plan.BuildFromCache(proj.cache, c.Faultload)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign %s: scan: %w", c.Name, err)
	}
	if c.SampleN > 0 {
		pl = pl.Sample(c.SampleN, c.Seed)
	}
	return proj, pl, nil
}

// compileBase builds the campaign's compiled base program from the
// workload's file list, reusing the scan cache's parses when the scan
// covered those files (no re-parse in the container). A base program
// that does not compile fails the campaign here, naming the file.
func (c *Campaign) compileBase(scanCache *scanner.ProjectCache) (*interp.Program, error) {
	units := make([]interp.SourceUnit, 0, len(c.Workload.Files))
	for _, name := range c.Workload.Files {
		// Reuse the scan-phase parse when the file was scanned; files
		// outside the scan subset (workload scripts) are parsed by the
		// compiler itself.
		if pf, err := scanCache.Get(name); err == nil {
			units = append(units, interp.SourceUnit{Name: name, Src: pf.Src, AST: pf.File})
			continue
		}
		src, ok := c.Files[name]
		if !ok {
			return nil, fmt.Errorf("campaign %s: compile: %s: workload file is not in the campaign's file set", c.Name, name)
		}
		units = append(units, interp.SourceUnit{Name: name, Src: src})
	}
	prog, err := interp.CompileProgram(units)
	if err != nil {
		return nil, fmt.Errorf("campaign %s: compile: %w", c.Name, err)
	}
	return prog, nil
}

func (c *Campaign) scanSubset() map[string][]byte {
	if len(c.ScanFiles) == 0 {
		return c.Files
	}
	out := make(map[string][]byte, len(c.ScanFiles))
	for _, name := range c.ScanFiles {
		if data, ok := c.Files[name]; ok {
			out[name] = data
		}
	}
	return out
}

// compileByName splits a faultload into its execution forms: mutation
// meta-models for compile-time specs and injector faults (site unbound)
// for runtime specs, compiling each spec once.
func compileByName(specs []faultmodel.Spec) (map[string]*pattern.MetaModel, map[string]*runtimefault.Fault, error) {
	models, rtFaults, err := faultmodel.CompileSplit(specs)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]*pattern.MetaModel, len(models))
	for _, mm := range models {
		if _, runtime := rtFaults[mm.Name]; !runtime {
			out[mm.Name] = mm
		}
	}
	return out, rtFaults, nil
}

package campaign

import (
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"

	"profipy/internal/analysis"
	"profipy/internal/coverage"
	"profipy/internal/mutator"
	"profipy/internal/pattern"
	"profipy/internal/plan"
	"profipy/internal/remote"
	"profipy/internal/runtimefault"
	"profipy/internal/scanner"
	"profipy/internal/workload"
)

// Experiment kinds and fork outcomes reported by
// Runner.ExperimentDetail, shared with the remote wire protocol so
// workers ship them verbatim.
const (
	KindMutated  = remote.KindMutated
	KindInjected = remote.KindInjected
	KindError    = remote.KindError

	ForkHit  = remote.ForkHit
	ForkMiss = remote.ForkMiss
	ForkNone = remote.ForkNone
)

// Runner is a campaign's prepared execution state: the scanned plan,
// the compiled base program, the compiled faultload and the coverage
// verdicts — everything needed to run any experiment of the campaign by
// plan index, independently of the workflow that produced it. The
// campaign's own execute phase runs through a Runner, and so does a
// remote worker that received the campaign spec and a shard lease: both
// sides derive the Runner deterministically from the same inputs, which
// is what keeps records byte-identical across process boundaries.
//
// Experiment seeds derive from the campaign seed plus the plan index,
// never from scheduling, so any subset of indices can run anywhere, in
// any order, any number of times, and produce the same record bytes.
type Runner struct {
	c        *Campaign
	cache    *scanner.ProjectCache
	pl       *plan.Plan
	points   []scanner.InjectionPoint
	covered  map[string]bool
	wcfg     workload.Config
	models   map[string]*pattern.MetaModel
	rtFaults map[string]*runtimefault.Fault

	// prepared is how NewRunner came by the project (PreparedHit, …).
	prepared string

	mutated  atomic.Int64
	injected atomic.Int64

	// Prefix-fork state: the site->snapshot map is built by the first
	// experiment that runs, off a single base-program run in a scratch
	// container. Misses are rare; their per-reason tally takes a lock.
	prefixOnce sync.Once
	prefixes   *workload.PrefixSet
	forkHits   atomic.Int64
	missMu     sync.Mutex
	forkMisses map[string]int
}

// NewRunner prepares a campaign for execution without running its
// workflow: scan, plan, deterministic sampling, base-program compile
// and faultload compile. covered is the coverage verdict map produced
// by the campaign's coverage phase (remote workers receive it with the
// campaign spec; passing nil marks every point uncovered and, with
// ReducePlan, selects no points). The campaign's own workflow builds
// its Runner through the same code path, so a worker-side Runner is the
// control-plane Runner by construction.
func NewRunner(c *Campaign, covered map[string]bool) (*Runner, error) {
	proj, pl, err := c.scan()
	if err != nil {
		return nil, err
	}
	wcfg := c.Workload
	var prepared string
	if wcfg.Program, prepared, err = c.baseProgram(proj, newMetrics(c.Metrics)); err != nil {
		return nil, err
	}
	if wcfg.Metrics == nil {
		wcfg.Metrics = c.Metrics
	}
	r, err := c.buildRunner(proj.cache, pl, covered, wcfg)
	if err != nil {
		return nil, err
	}
	r.prepared = prepared
	return r, nil
}

// buildRunner assembles a Runner around an already-prepared workload
// config (the campaign workflow compiles the base program during its
// compile phase and reuses it here): reduce the plan to covered points
// when requested and compile the faultload into its execution forms.
func (c *Campaign) buildRunner(cache *scanner.ProjectCache, pl *plan.Plan, covered map[string]bool, wcfg workload.Config) (*Runner, error) {
	points := pl.Points
	if c.ReducePlan {
		points = coverage.Reduce(pl.Points, covered)
	}
	models, rtFaults, err := compileByName(c.Faultload)
	if err != nil {
		return nil, err
	}
	return &Runner{
		c: c, cache: cache, pl: pl, points: points, covered: covered,
		wcfg: wcfg, models: models, rtFaults: rtFaults,
	}, nil
}

// Len returns the number of experiments (post-reduction plan points).
func (r *Runner) Len() int { return len(r.points) }

// Points returns the experiments' injection points in plan order.
// Callers must not mutate the slice.
func (r *Runner) Points() []scanner.InjectionPoint { return r.points }

// Prepared reports how NewRunner came by the parsed and compiled
// project: PreparedHit, PreparedMiss or PreparedTooLarge against the
// campaign's PreparedSet, "" without one.
func (r *Runner) Prepared() string { return r.prepared }

// Counts reports how many experiments ran the compile-time mutation
// path and the runtime injection path so far.
func (r *Runner) Counts() (mutated, injected int) {
	return int(r.mutated.Load()), int(r.injected.Load())
}

// ForkStats reports prefix-fork activity: what the prefix build
// captured (snapshots, and sites it left to full runs because their
// prefix is too short to pay), experiments resumed from a snapshot
// (hits) and experiments that attempted a fork but fell back to a full
// run, by workload.ForkMiss reason. All zero before the first
// experiment ran.
func (r *Runner) ForkStats() (build workload.PrefixStats, hits int, misses map[string]int) {
	r.missMu.Lock()
	defer r.missMu.Unlock()
	misses = make(map[string]int, len(r.forkMisses))
	for reason, n := range r.forkMisses {
		misses[reason] = n
	}
	return r.prefixes.Stats(), int(r.forkHits.Load()), misses
}

// sitePrefix returns the shared prefix snapshot for a point's site
// function, building the campaign's prefix set on first use. Whether a
// site gets a prefix at all is workload.BuildPrefixes' decision.
func (r *Runner) sitePrefix(pt scanner.InjectionPoint) *workload.Prefix {
	if r.wcfg.FaultFree || pt.Func == "" {
		return nil
	}
	r.prefixOnce.Do(r.buildPrefixes)
	return r.prefixes.For(pt.Func)
}

// buildPrefixes runs the base program once in a scratch container and
// snapshots at each injection site's first reach. A build failure
// leaves the prefix set empty — every experiment falls back to full
// runs — and is logged and counted once.
func (r *Runner) buildPrefixes() {
	seen := make(map[string]bool)
	var sites []string
	for _, pt := range r.points {
		if pt.Func != "" && !seen[pt.Func] {
			seen[pt.Func] = true
			sites = append(sites, pt.Func)
		}
	}
	if len(sites) == 0 {
		return
	}
	img := r.c.Image
	img.Files = r.c.Files
	ctr := r.c.Runtime.CreateSeeded(img, r.c.Seed)
	defer func() { _ = r.c.Runtime.Destroy(ctr) }()
	if r.c.TraceHook != nil {
		r.c.TraceHook(ctr)
	}
	ps, err := workload.BuildPrefixes(ctr, r.wcfg, sites)
	if err != nil {
		slog.Warn("prefix build failed, every experiment runs in full",
			"campaign", r.c.Name, "sites", len(sites), "err", err)
		newMetrics(r.c.Metrics).forkBuildFailed()
		return
	}
	r.prefixes = ps
}

// Experiment runs the experiment at plan index i and returns its
// record. Safe for concurrent calls.
func (r *Runner) Experiment(i int) analysis.Record {
	rec, _, _ := r.ExperimentDetail(i)
	return rec
}

// ExperimentDetail runs the experiment at plan index i and additionally
// reports which execution path it took (KindMutated, KindInjected or
// KindError) and whether it resumed from its site's prefix snapshot
// (ForkHit, ForkMiss, or ForkNone when the site has no prefix) — remote
// workers ship both alongside the record so the control plane accounts
// them without re-deriving anything.
func (r *Runner) ExperimentDetail(i int) (rec analysis.Record, kind, fork string) {
	pt := r.points[i]
	rec = analysis.Record{Point: pt, FaultType: r.pl.TypeOf(pt), Covered: r.covered[pt.ID()]}
	seed := r.c.Seed + int64(i) + 1
	wcfg := r.wcfg

	var eng *runtimefault.Engine
	img := r.c.Image
	img.Files = r.c.Files
	kind = KindError

	if rf, ok := r.rtFaults[pt.Spec]; ok {
		// Runtime injection: bind the fault's site selector to the
		// point's enclosing function (injection granularity is the
		// function entered at run time) and draw all trigger/corruption
		// randomness from this experiment's seed.
		fault := *rf
		fault.Site = pt.Func
		var err error
		eng, err = runtimefault.NewEngine([]runtimefault.Fault{fault}, seed)
		if err != nil {
			return rec, KindError, ForkNone
		}
		wcfg.Injector = eng
		r.injected.Add(1)
		kind = KindInjected
	} else {
		mm, ok := r.models[pt.Spec]
		if !ok {
			return rec, KindError, ForkNone
		}
		pf, err := r.cache.Get(pt.File)
		if err != nil {
			return rec, KindError, ForkNone
		}
		mut, err := mutator.Mutate(pf, mm, pt, mutator.Options{Triggered: true})
		if err != nil {
			return rec, KindError, ForkNone
		}
		src, err := mut.Render()
		if err != nil {
			return rec, KindError, ForkNone
		}
		// Copy-on-write deploy: the container shares the campaign's
		// base file layer and shadows just the mutated file through the
		// overlay, instead of copying the whole file map per experiment.
		img.Overlay = map[string][]byte{pt.File: src}
		r.mutated.Add(1)
		kind = KindMutated
		// The container gets the mutant as text, the compiler as the
		// tree that text was printed from: one compileFunc, no re-parse.
		wcfg.Program, err = wcfg.Program.WithDecl(pt.File, mut.Decl(), src)
		if err != nil {
			// A mutant the compiler rejects is an infrastructure error
			// on this experiment only.
			return rec, kind, ForkNone
		}
	}

	if pre := r.sitePrefix(pt); pre != nil {
		fctr := r.c.Runtime.CreateSeeded(img, seed)
		if r.c.TraceHook != nil {
			r.c.TraceHook(fctr)
		}
		result, ok, miss := workload.RunForked(fctr, wcfg, workload.ForkSpec{
			Prefix: pre, BaseFiles: r.c.Files, Overlay: img.Overlay,
		})
		_ = r.c.Runtime.Destroy(fctr)
		if ok {
			r.forkHits.Add(1)
			rec.Result = result
			if eng != nil {
				rec.Injections = eng.Report()
			}
			return rec, kind, ForkHit
		}
		r.forkMissed(pt.Func, miss)
		fork = ForkMiss
		if eng != nil {
			// The aborted fork attempt may have advanced the engine
			// (BeginRound, partial execution); rebuild it from the
			// same deterministic inputs so the fallback run observes
			// exactly the state a straight run would.
			fault := *r.rtFaults[pt.Spec]
			fault.Site = pt.Func
			if neng, err := runtimefault.NewEngine([]runtimefault.Fault{fault}, seed); err == nil {
				eng = neng
				wcfg.Injector = eng
			}
		}
	}

	ctr := r.c.Runtime.CreateSeeded(img, seed)
	defer func() { _ = r.c.Runtime.Destroy(ctr) }()
	if r.c.TraceHook != nil {
		r.c.TraceHook(ctr)
	}

	result, err := workload.Run(ctr, wcfg)
	if err != nil {
		return rec, kind, fork
	}
	rec.Result = result
	if eng != nil {
		rec.Injections = eng.Report()
	}
	return rec, kind, fork
}

// forkMissed tallies one fork attempt that fell back to a full run
// under its workload.ForkMiss reason, and logs it: a fleet worker's
// record envelope says hit or miss, its log says why.
func (r *Runner) forkMissed(site string, miss error) {
	var reason workload.ForkMiss
	errors.As(miss, &reason)
	slog.Debug("fork missed, experiment runs in full", "campaign", r.c.Name, "site", site, "reason", string(reason))
	r.missMu.Lock()
	defer r.missMu.Unlock()
	if r.forkMisses == nil {
		r.forkMisses = make(map[string]int)
	}
	r.forkMisses[string(reason)]++
}

// KindOf reports which execution path the experiment at plan index i
// takes — KindMutated, KindInjected or KindError — without running its
// workload. The path decision depends only on the faultload, the
// scanned sources and the plan-index-derived seed, all deterministic,
// so KindOf mirrors ExperimentDetail's kind exactly; a resumed campaign
// uses it to account replayed records the same way the original
// execution did (workload failures still count their kind, so a nil
// Result does not mean KindError).
func (r *Runner) KindOf(i int) string {
	pt := r.points[i]
	if rf, ok := r.rtFaults[pt.Spec]; ok {
		fault := *rf
		fault.Site = pt.Func
		seed := r.c.Seed + int64(i) + 1
		if _, err := runtimefault.NewEngine([]runtimefault.Fault{fault}, seed); err != nil {
			return KindError
		}
		return KindInjected
	}
	mm, ok := r.models[pt.Spec]
	if !ok {
		return KindError
	}
	pf, err := r.cache.Get(pt.File)
	if err != nil {
		return KindError
	}
	// The structured core decides; nothing is rendered or compiled.
	if _, err := mutator.Mutate(pf, mm, pt, mutator.Options{Triggered: true}); err != nil {
		return KindError
	}
	return KindMutated
}

package campaign

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/coverage"
	"profipy/internal/mutator"
	"profipy/internal/pattern"
	"profipy/internal/plan"
	"profipy/internal/remote"
	"profipy/internal/runtimefault"
	"profipy/internal/sandbox"
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
// the compiled base program, the coverage verdicts and fork prefixes of
// the campaign's one fault-free pass, and the compiled faultload —
// everything needed to run any experiment of the campaign by plan
// index, independently of the workflow that produced it. The campaign's
// own execute phase runs through a Runner, and so does a remote worker
// that received the campaign spec and a shard lease: both sides build
// it through NewRunner from the same inputs, which is what keeps records
// byte-identical across process boundaries.
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
	prefixes *workload.PrefixSet
	wcfg     workload.Config
	models   map[string]*pattern.MetaModel
	rtFaults map[string]*runtimefault.Fault

	// prepared is how NewRunner came by the project (PreparedHit, …).
	prepared string

	mutated  atomic.Int64
	injected atomic.Int64

	// Fork outcomes. Misses are rare; their tally takes a lock.
	forkHits   atomic.Int64
	missMu     sync.Mutex
	forkMisses map[string]int
}

// NewRunner prepares a campaign for execution without running its
// experiments: scan, plan, deterministic sampling, base-program
// compile, the campaign's one fault-free pass (coverage verdicts and
// fork prefixes), plan reduction and faultload compile. It is the only
// way a Runner is built — the campaign's own workflow and a fleet
// worker rebuilding the campaign from its spec both come through here —
// so a worker-side Runner is the control-plane Runner by construction,
// and PlanHash proves it. A pass that fails fails NewRunner.
func NewRunner(c *Campaign) (*Runner, error) {
	return c.newRunner(context.TODO(), newMetrics(c.Metrics), func(string, time.Time) {})
}

// newRunner is NewRunner under a workflow's context, metrics and phase
// timeline: each step reports its progress and its span, and
// cancellation is honored between steps.
func (c *Campaign) newRunner(ctx context.Context, met *cmetrics, phase func(name string, from time.Time)) (*Runner, error) {
	// --- Scan phase ---
	// The project's parse cache is the campaign's shared front-end:
	// every file is parsed once (in this campaign, or in an earlier one
	// that left the project in c.Prepared) and the same parses serve the
	// coverage verdicts and every experiment's mutation.
	c.progress(PhaseScan, 0, 0)
	start := time.Now()
	proj, pl, err := c.scan()
	if err != nil {
		return nil, err
	}
	phase("scan", start)
	if err := c.canceled(ctx); err != nil {
		return nil, err
	}

	// Compile the unmutated base files once per project (reusing the
	// scan-phase parses); every round of every experiment then runs
	// compiled code, and each experiment recompiles only its single
	// mutated declaration.
	start = time.Now()
	wcfg, prepared, err := c.baseWorkload(proj, met)
	if err != nil {
		return nil, err
	}
	phase("compile", start)

	// --- Coverage analysis: the base program's one fault-free run ---
	// Its reach gives the verdicts, its snapshots the fork prefixes. It
	// runs on the base image under the bare campaign seed.
	c.progress(PhaseCoverage, 0, len(pl.Points))
	start = time.Now()
	img := c.Image
	img.Files = c.Files
	ctr := c.container(img, c.Seed)
	covered, prefixes, err := coverage.Run(ctr, proj.cache, pl.Points, coverage.Sites(pl.Points), wcfg)
	_ = c.Runtime.Destroy(ctr)
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", c.Name, err)
	}
	phase("coverage", start)
	if err := c.canceled(ctx); err != nil {
		return nil, err
	}

	points := pl.Points
	if c.ReducePlan {
		points = coverage.Reduce(pl.Points, covered)
	}
	models, rtFaults, err := compileByName(c.Faultload)
	if err != nil {
		return nil, err
	}
	return &Runner{
		c: c, cache: proj.cache, pl: pl, points: points, covered: covered, prefixes: prefixes,
		wcfg: wcfg, models: models, rtFaults: rtFaults, prepared: prepared,
	}, nil
}

// Len returns the number of experiments (post-reduction plan points).
func (r *Runner) Len() int { return len(r.points) }

// Points returns the experiments' injection points in plan order.
// Callers must not mutate the slice.
func (r *Runner) Points() []scanner.InjectionPoint { return r.points }

// PlanHash is remote.PlanHash over the exec points and their coverage
// verdicts: what a worker's Runner must reproduce to run the control
// plane's shards.
func (r *Runner) PlanHash() string { return remote.PlanHash(r.points, r.covered) }

// Prepared reports how NewRunner came by the parsed and compiled
// project: PreparedHit, PreparedMiss or PreparedTooLarge against the
// campaign's PreparedSet, "" without one.
func (r *Runner) Prepared() string { return r.prepared }

// Counts reports how many experiments ran the compile-time mutation
// path and the runtime injection path so far.
func (r *Runner) Counts() (mutated, injected int) {
	return int(r.mutated.Load()), int(r.injected.Load())
}

// ForkStats reports prefix-fork activity: what the fault-free pass
// captured (snapshots, and sites it left to full runs because their
// prefix is too short to pay), experiments resumed from a snapshot
// (hits) and experiments that attempted a fork but fell back to a full
// run, by workload.ForkMiss reason.
func (r *Runner) ForkStats() (build workload.PrefixStats, hits int, misses map[string]int) {
	r.missMu.Lock()
	defer r.missMu.Unlock()
	misses = make(map[string]int, len(r.forkMisses))
	for reason, n := range r.forkMisses {
		misses[reason] = n
	}
	return r.prefixes.Stats(), int(r.forkHits.Load()), misses
}

// container creates every container the campaign runs code in: seeded,
// then hooked with the experiments' trace hook.
func (c *Campaign) container(img sandbox.Image, seed int64) *sandbox.Container {
	ctr := c.Runtime.CreateSeeded(img, seed)
	if c.TraceHook != nil {
		c.TraceHook(ctr)
	}
	return ctr
}

// Experiment runs the experiment at plan index i and returns its
// record. Safe for concurrent calls.
func (r *Runner) Experiment(i int) analysis.Record {
	rec, _, _ := r.ExperimentDetail(i)
	return rec
}

// ExperimentDetail runs the experiment at plan index i and additionally
// reports which execution path it took (KindMutated, KindInjected or
// KindError, as KindOf) and whether it resumed from its site's prefix
// snapshot (ForkHit, ForkMiss, or ForkNone when the site has no prefix) —
// remote workers ship both alongside the record so the control plane
// accounts them without re-deriving anything.
func (r *Runner) ExperimentDetail(i int) (rec analysis.Record, kind, fork string) {
	pt := r.points[i]
	rec = analysis.Record{Point: pt, FaultType: r.pl.TypeOf(pt), Covered: r.covered[pt.ID()]}
	wcfg := r.wcfg
	img := r.c.Image
	img.Files = r.c.Files

	eng, mut, kind := r.path(i)
	switch kind {
	case KindError:
		return rec, kind, ForkNone
	case KindInjected:
		wcfg.Injector = eng
		r.injected.Add(1)
	case KindMutated:
		r.mutated.Add(1)
		src, err := mut.Render()
		if err != nil {
			return rec, kind, ForkNone
		}
		// Copy-on-write deploy: the container shares the campaign's
		// base file layer and shadows just the mutated file through the
		// overlay, instead of copying the whole file map per experiment.
		img.Overlay = map[string][]byte{pt.File: src}
		// The container gets the mutant as text, the compiler as the
		// tree that text was printed from: one compileFunc, no re-parse.
		wcfg.Program, err = wcfg.Program.WithDecl(pt.File, mut.Decl(), src)
		if err != nil {
			// A mutant the compiler rejects is an infrastructure error
			// on this experiment only.
			return rec, kind, ForkNone
		}
	}

	if pre := r.prefixes.For(pt.Func); pre != nil {
		fctr := r.c.container(img, r.seed(i))
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
			if neng, err := r.injector(i); err == nil {
				eng = neng
				wcfg.Injector = eng
			}
		}
	}

	ctr := r.c.container(img, r.seed(i))
	defer func() { _ = r.c.Runtime.Destroy(ctr) }()
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

// seed is the experiment at plan index i's seed: the campaign seed plus
// the index, never anything scheduling decides.
func (r *Runner) seed(i int) int64 { return r.c.Seed + int64(i) + 1 }

// path decides how the experiment at plan index i runs: through a fresh
// runtime injector (KindInjected), through a mutant of its point
// (KindMutated), or not at all (KindError). ExperimentDetail and KindOf
// both decide here.
func (r *Runner) path(i int) (*runtimefault.Engine, *mutator.Mutant, string) {
	pt := r.points[i]
	if _, ok := r.rtFaults[pt.Spec]; ok {
		eng, err := r.injector(i)
		if err != nil {
			return nil, nil, KindError
		}
		return eng, nil, KindInjected
	}
	mm, ok := r.models[pt.Spec]
	if !ok {
		return nil, nil, KindError
	}
	pf, err := r.cache.Get(pt.File)
	if err != nil {
		return nil, nil, KindError
	}
	mut, err := mutator.Mutate(pf, mm, pt, mutator.Options{Triggered: true})
	if err != nil {
		return nil, nil, KindError
	}
	return nil, mut, KindMutated
}

// injector builds the runtime injector of the experiment at plan index
// i, whose point's spec names a runtime fault: the fault's site selector
// is bound to the point's enclosing function (injection granularity is
// the function entered at run time), and all trigger/corruption
// randomness is drawn from the experiment's seed.
func (r *Runner) injector(i int) (*runtimefault.Engine, error) {
	pt := r.points[i]
	fault := *r.rtFaults[pt.Spec]
	fault.Site = pt.Func
	return runtimefault.NewEngine([]runtimefault.Fault{fault}, r.seed(i))
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
// workload: ExperimentDetail's decision (path), deterministic in the
// faultload, the scanned sources and the plan index. A resumed campaign
// uses it to account replayed records the same way the original
// execution did (workload failures still count their kind, so a nil
// Result does not mean KindError).
func (r *Runner) KindOf(i int) string {
	_, _, kind := r.path(i)
	return kind
}

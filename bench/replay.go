package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/coverage"
	"profipy/internal/executor"
	"profipy/internal/faultmodel"
	"profipy/internal/genproject"
	"profipy/internal/interp"
	"profipy/internal/mutator"
	"profipy/internal/pattern"
	"profipy/internal/plan"
	"profipy/internal/resultstore"
	"profipy/internal/runtimefault"
	"profipy/internal/sandbox"
	"profipy/internal/scanner"
	"profipy/internal/workload"
)

// replayStats is what the staged replay counts beside its spans.
type replayStats struct {
	rounds       int // replays of the whole cycle (or traced scans)
	campaigns    int
	specs        int
	klines       float64 // scanned source, summed over replays
	points       int     // plan sizes, summed over replays
	experiments  int
	steps        int64 // interpreter steps of all rounds
	sinkWaitNS   int64 // experiment done → sink takes the record
	forkAttempts int
	forkHits     int
	snapshotKB   float64 // heap retained per snapshot, last prefix build
	cacheHits    uint64
	cacheMisses  uint64
	storeBytes   int64
	workers      int
}

// replay drives one campaign through the layers' public functions, in
// the order the campaign workflow calls them, timing each call as a span
// from out here. The experiments run on the real executor.Local; the
// Experiment function it is handed is the benchmark's own and mirrors
// campaign.Runner.ExperimentDetail step for step. It returns the records
// as the result store's follower saw them.
func replay(cfg runConfig, k campaignKind, store *resultstore.Store, storeID string) ([][]byte, error) {
	rec, st := cfg.rec, cfg.stats
	rt := sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: cfg.nproc + 1, Seed: cfg.seed})
	c := k.build(rt, cfg.seed) // the campaign's inputs; never Run
	camp := storeID
	root := rec.begin(0, "bench", "replay", camp)
	defer rec.end(root)
	st.campaigns++
	st.workers = cfg.nproc

	// dsl + faultmodel: compile the faultload into meta-models and
	// runtime faults.
	var (
		models   []*pattern.MetaModel
		rtFaults map[string]*runtimefault.Fault
		err      error
	)
	rec.do(root, "dsl", "dsl_compile", camp, func(int) {
		models, rtFaults, err = faultmodel.CompileSplit(c.Faultload)
	})
	if err != nil {
		return nil, err
	}
	st.specs += len(c.Faultload)
	byName := make(map[string]*pattern.MetaModel, len(models))
	for _, mm := range models {
		byName[mm.Name] = mm
	}

	// scanner + pattern + plan.
	scanFiles := make(map[string][]byte, len(c.ScanFiles))
	for _, name := range c.ScanFiles {
		scanFiles[name] = c.Files[name]
	}
	st.klines += float64(genproject.Lines(scanFiles)) / 1000
	var (
		cache *scanner.ProjectCache
		pl    *plan.Plan
	)
	rec.do(root, "scanner", "scan", camp, func(int) {
		cache = scanner.NewProjectCache(scanFiles)
		pl, err = plan.BuildFromCache(cache, c.Faultload)
	})
	if err != nil {
		return nil, err
	}
	n := pl.Len()
	st.points += n

	// interp (compile): the base program, reusing the scan's parses.
	wcfg := c.Workload
	rec.do(root, "interp", "compile_base", camp, func(int) {
		units := make([]interp.SourceUnit, 0, len(wcfg.Files))
		for _, name := range wcfg.Files {
			if pf, perr := cache.Get(name); perr == nil {
				units = append(units, interp.SourceUnit{Name: name, Src: pf.Src, AST: pf.File})
			} else {
				units = append(units, interp.SourceUnit{Name: name, Src: c.Files[name]})
			}
		}
		wcfg.Program, err = interp.CompileProgram(units)
	})
	if err != nil {
		return nil, err
	}

	// coverage: the fault-free instrumented run.
	var covered map[string]bool
	rec.do(root, "coverage", "coverage", camp, func(int) {
		covered, err = coverage.AnalyzeCached(rt, c.Image, c.Files, cache, pl.Points, wcfg)
	})
	if err != nil {
		return nil, err
	}

	img := c.Image
	img.Files = c.Files

	// workload prefix fork: one base-program run, snapshotting per site.
	var prefixes *workload.PrefixSet
	if k.late {
		var sites []string
		seen := map[string]bool{}
		for _, pt := range pl.Points {
			if pt.Func != "" && !seen[pt.Func] {
				seen[pt.Func] = true
				sites = append(sites, pt.Func)
			}
		}
		before := heapInUse()
		rec.do(root, "workload", "prefix_build", camp, func(int) {
			ctr := rt.CreateSeeded(img, c.Seed)
			prefixes, err = workload.BuildPrefixes(ctr, wcfg, sites)
			_ = rt.Destroy(ctr)
		})
		if err != nil {
			return nil, err
		}
		if n := prefixes.Stats().Snapshots; n > 0 {
			st.snapshotKB = float64(heapInUse()-before) / 1024 / float64(n)
		}
	}

	// analysis + resultstore: the sinks records stream into, with a
	// follower attached as in the service (reads beside writes).
	agg, err := analysis.NewAggregator(c.Analysis)
	if err != nil {
		return nil, err
	}
	writer, err := store.StartCampaign(resultstore.Meta{ID: storeID, Project: "bench", Name: k.name})
	if err != nil {
		return nil, err
	}
	var (
		followed  [][]byte
		followErr error
		followWG  sync.WaitGroup
	)
	followWG.Add(1)
	go func() {
		defer followWG.Done()
		followErr = store.Follow(context.Background(), storeID, 0, func(_ int64, line json.RawMessage) error {
			followed = append(followed, append([]byte(nil), line...))
			st.storeBytes += int64(len(line)) + 1
			return nil
		})
	}()

	// executor: the real pool, the benchmark's own experiment function.
	exec := rec.begin(root, "executor", "execute", camp)
	doneAt := make([]time.Time, n)
	var mu sync.Mutex // guards st's per-experiment counters
	experiment := func(i int) analysis.Record {
		e := rec.begin(exec, "executor", "experiment", camp)
		defer func() {
			doneAt[i] = time.Now()
			rec.end(e)
		}()
		pt := pl.Points[i]
		out := analysis.Record{Point: pt, FaultType: pl.TypeOf(pt), Covered: covered[pt.ID()]}
		seed := c.Seed + int64(i) + 1
		w := wcfg
		eimg := img

		// kvclient env: InstallEnv runs inside workload.Run, once per
		// round; wrapping the hook is how it is seen from outside.
		parent := e
		w.Env = func(it *interp.Interp, ctr *sandbox.Container) {
			rec.do(parent, "kvclient", "env_install", camp, func(int) { wcfg.Env(it, ctr) })
		}

		newEngine := func() *runtimefault.Engine {
			fault := *rtFaults[pt.Spec]
			fault.Site = pt.Func
			eng, eerr := runtimefault.NewEngine([]runtimefault.Fault{fault}, seed)
			if eerr != nil {
				return nil
			}
			return eng
		}
		var eng *runtimefault.Engine
		if _, isRuntime := rtFaults[pt.Spec]; isRuntime {
			if eng = newEngine(); eng == nil {
				return out
			}
			w.Injector = eng
		} else {
			pf, perr := cache.Get(pt.File)
			if perr != nil {
				return out
			}
			var mut *mutator.Result
			var merr error
			rec.do(e, "mutator", "mutate", camp, func(int) {
				mut, merr = mutator.ApplyParsed(pf, byName[pt.Spec], pt, mutator.Options{Triggered: true})
			})
			if merr != nil {
				return out
			}
			eimg.Overlay = map[string][]byte{pt.File: mut.Source}
			rec.do(e, "interp", "recompile", camp, func(int) {
				w.Program, merr = wcfg.Program.WithFiles(eimg.Overlay)
			})
			if merr != nil {
				return out
			}
		}

		finish := func(res *workload.Result) analysis.Record {
			out.Result = res
			if eng != nil {
				out.Injections = eng.Report()
			}
			var steps int64
			for _, rr := range res.Rounds {
				steps += rr.Steps
			}
			mu.Lock()
			st.steps += steps
			mu.Unlock()
			return out
		}

		if pre := prefixes.For(pt.Func); pre != nil {
			var ctr *sandbox.Container
			rec.do(e, "sandbox", "container", camp, func(int) { ctr = rt.CreateSeeded(eimg, seed) })
			var res *workload.Result
			var ok bool
			rec.do(e, "workload", "fork_run", camp, func(id int) {
				parent = id
				res, ok, _ = workload.RunForked(ctr, w, workload.ForkSpec{Prefix: pre, BaseFiles: c.Files, Overlay: eimg.Overlay})
			})
			rec.do(e, "sandbox", "container", camp, func(int) { _ = rt.Destroy(ctr) })
			mu.Lock()
			st.forkAttempts++
			if ok {
				st.forkHits++
			}
			mu.Unlock()
			if ok {
				return finish(res)
			}
			if eng != nil {
				// The aborted attempt may have advanced the injector.
				if eng = newEngine(); eng == nil {
					return out
				}
				w.Injector = eng
			}
		}

		var ctr *sandbox.Container
		rec.do(e, "sandbox", "container", camp, func(int) { ctr = rt.CreateSeeded(eimg, seed) })
		var res *workload.Result
		var rerr error
		rec.do(e, "workload", "run", camp, func(id int) {
			parent = id
			res, rerr = workload.Run(ctr, w)
		})
		rec.do(e, "sandbox", "container", camp, func(int) { _ = rt.Destroy(ctr) })
		if rerr != nil {
			return out
		}
		return finish(res)
	}
	sink := executor.SinkFunc(func(idx int, r analysis.Record) {
		st.sinkWaitNS += time.Since(doneAt[idx]).Nanoseconds()
		rec.do(exec, "analysis", "aggregate", camp, func(int) { agg.Add(r) })
		rec.do(exec, "resultstore", "store_append", camp, func(int) { err = writer.Append(r) })
	})
	runErr := executor.Local{Workers: cfg.nproc}.Run(context.Background(), n, experiment, sink)
	rec.end(exec)
	st.experiments += n
	hits, misses := wcfg.Program.CacheStats()
	st.cacheHits += hits
	st.cacheMisses += misses
	if runErr != nil {
		return nil, runErr
	}
	if err != nil {
		return nil, fmt.Errorf("store append: %w", err)
	}

	var report *analysis.Report
	rec.do(root, "analysis", "report", camp, func(int) { report = agg.Report() })
	rec.do(root, "resultstore", "store_finish", camp, func(int) {
		err = writer.Finish(resultstore.StatusDone, nil, report)
	})
	followWG.Wait()
	if err != nil {
		return nil, fmt.Errorf("store finish: %w", err)
	}
	if followErr != nil {
		return nil, fmt.Errorf("store follow: %w", followErr)
	}
	return followed, nil
}

// heapInUse is the live heap after a forced collection: the difference
// across a call is what the call's results retain.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

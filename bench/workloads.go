package main

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"profipy"
	"profipy/internal/faultmodel"
	"profipy/internal/genproject"
	"profipy/internal/pattern"
	"profipy/internal/plan"
	"profipy/internal/scanner"
)

// runConfig is what a workload's set-up needs to know about this run.
type runConfig struct {
	root  string // repository root (testdata/golden, bench/out live under it)
	nproc int
	seed  int64
	// The traced run's span recorder, counters and HTTP middleware; all
	// nil when tracing is off.
	rec   *recorder
	stats *replayStats
	wrap  func(http.Handler) http.Handler
}

// sample is what one closed-loop cycle observed. Timing fields are valid
// only when failed is 0.
type sample struct {
	units        float64 // experiment records, or source kilolines
	turnaroundMS float64
	firstMS      float64
	wallMS       float64 // whole cycle, client-side checks included
	attempted    int     // operations: campaigns, or scans
	failed       int
}

// workloadRun is a set-up workload: cycle runs one closed-loop cycle,
// close releases everything set-up created.
type workloadRun interface {
	cycle() sample
	close()
	// failures lists the first few operation failures, for the log.
	failures() []string
	// finalCheck runs once after the last window: a correctness check
	// that cannot be attributed to one operation.
	finalCheck() error
	// The traced run's hooks: the staged replay through the layers, and
	// what the running service reports about itself.
	replayLayers(cfg runConfig) error
	serviceView() serviceView
}

type workloadDef struct {
	name string
	why  string
	// setups is how many times one invocation repeats the set-up for its
	// setup_s median: more where a set-up is short and so noisier.
	setups int
	setup  func(cfg runConfig) (workloadRun, error)
}

var workloadDefs = []workloadDef{
	{"mix.local", "paper's §V campaigns A,B,C,R on the local executor: short rounds, so per-experiment fixed costs dominate; fork and fleet idle", 7,
		func(cfg runConfig) (workloadRun, error) {
			return setupCampaigns(cfg, []campaignKind{kindA, kindB, kindC, kindR}, false)
		}},
	{"mix.remote2", "same A,B,C,R cycle through a 2-agent worker fleet: the difference to mix.local is the cost of fleet, remote and worker", 7,
		func(cfg runConfig) (workloadRun, error) {
			return setupCampaigns(cfg, []campaignKind{kindA, kindB, kindC, kindR}, true)
		}},
	{"late.fork", "late-site campaign with prefixFork on: few long rounds, snapshot/restore, set-up amortised over 13 experiments, not 185", 7,
		func(cfg runConfig) (workloadRun, error) {
			return setupCampaigns(cfg, []campaignKind{kindLate}, false)
		}},
	{"scan.large", "§V-D scan of a generated 200k-line project with 120 patterns: dsl, pattern, scanner and plan do all the work", 3,
		setupScan},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

type failureLog struct{ msgs []string }

func (f *failureLog) note(err error) {
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, err.Error())
	}
}

func (f *failureLog) failures() []string { return f.msgs }

// campaignWorkload cycles a fixed list of campaigns through the service.
type campaignWorkload struct {
	failureLog
	svc     *service
	dataDir string
	ops     []campaignOp
	// fleetRecords counts the records of successful remote campaigns;
	// finalCheck holds the fleet's ingest counter to it.
	fleetRecords int
	// runs is every successful campaign since set-up, for the traced
	// run's per-campaign figures (queue wait, phase times).
	runs []campaignRun
}

// setupCampaigns is the set-up of the three service workloads: boot the
// server (and fleet), upload the late project if needed, and compute
// every campaign's reference records on the library path.
func setupCampaigns(cfg runConfig, kinds []campaignKind, remote bool) (workloadRun, error) {
	dataDir, err := os.MkdirTemp(filepath.Join(cfg.root, "bench", "out"), "data-")
	if err != nil {
		return nil, err
	}
	svc, err := bootService(dataDir, cfg.nproc, remote, cfg.wrap)
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	w := &campaignWorkload{svc: svc, dataDir: dataDir}
	for _, k := range kinds {
		project := demoProject
		if k.late {
			if project, err = svc.uploadProject("python-etcd-late", lateFiles()); err != nil {
				w.close()
				return nil, err
			}
		}
		op, err := k.prepare(cfg.root, cfg.nproc, project, cfg.seed, remote)
		if err != nil {
			w.close()
			return nil, err
		}
		w.ops = append(w.ops, op)
	}
	return w, nil
}

func (w *campaignWorkload) close() {
	w.svc.close()
	os.RemoveAll(w.dataDir)
}

func (w *campaignWorkload) cycle() sample {
	var sm sample
	for _, op := range w.ops {
		sm.attempted++
		run, err := w.svc.runCampaign(op.body)
		if err == nil {
			err = op.check(run)
		}
		if err != nil {
			sm.failed++
			w.note(fmt.Errorf("%s: %w", op.kind.name, err))
			continue
		}
		w.runs = append(w.runs, campaignRun{id: run.id, job: run.job, first: run.first, turnaround: run.turnaround})
		sm.units += float64(len(run.lines))
		if op.remote {
			w.fleetRecords += len(run.lines)
		}
		sm.turnaroundMS += millis(run.turnaround)
		sm.firstMS += millis(run.first) / float64(len(w.ops))
	}
	return sm
}

// finalCheck fails a remote run in which any record was produced outside
// the fleet: the API does not say where a record ran, but the control
// plane counts the records it first received from workers, and a locally
// executed shard never passes that counter.
func (w *campaignWorkload) finalCheck() error {
	if w.fleetRecords == 0 {
		return nil
	}
	counters, _, err := w.svc.scrapeMetrics()
	if err != nil {
		return err
	}
	if got := int(counters["profipy_fleet_records_ingested_total"]); got < w.fleetRecords {
		return fmt.Errorf("%d of %d records of remote campaigns did not come from fleet workers", w.fleetRecords-got, w.fleetRecords)
	}
	return nil
}

// check holds a finished campaign's streamed records to the reference.
func (op campaignOp) check(run campaignRun) error {
	if len(run.lines) != op.n {
		return fmt.Errorf("stream ended at %d of %d records", len(run.lines), op.n)
	}
	if canonicalDigest(run.lines) != op.digest {
		return fmt.Errorf("records differ from the library reference")
	}
	return nil
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Scan workload sizing (§V-D). scanLines is a variable only so the smoke
// tests can shrink the project.
var scanLines = 200_000

const scanPatterns = 120

// scanWorkload repeats the library scan of one generated project.
type scanWorkload struct {
	failureLog
	rec    *recorder // traced run only
	stats  *replayStats
	files  map[string][]byte
	specs  []faultmodel.Spec
	klines float64
	digest [sha256.Size]byte
}

// setupScan generates the project from the seed and computes the plan a
// single-threaded scanner.ScanProject pass yields; every measured scan
// must save to the same bytes.
func setupScan(cfg runConfig) (workloadRun, error) {
	w := &scanWorkload{
		rec: cfg.rec, stats: cfg.stats,
		files: genproject.Generate(genproject.DefaultConfig(scanLines, cfg.seed)),
		specs: genproject.Patterns(scanPatterns),
	}
	w.klines = float64(genproject.Lines(w.files)) / 1000
	models, err := faultmodel.CompileAll(w.specs)
	if err != nil {
		return nil, err
	}
	points, err := scanner.ScanProjectParallel(w.files, models, 1)
	if err != nil {
		return nil, err
	}
	saved, err := plan.New(w.specs, points).Save()
	if err != nil {
		return nil, err
	}
	w.digest = sha256.Sum256(saved)
	return w, nil
}

func (w *scanWorkload) close() {}

func (w *scanWorkload) finalCheck() error { return nil }

func (w *scanWorkload) cycle() sample {
	sm := sample{attempted: 1}
	t0 := time.Now()
	var pl *plan.Plan
	var err error
	if w.rec != nil && w.rec.on.Load() {
		pl, err = w.stagedScan()
	} else {
		pl, err = profipy.Scan(w.files, w.specs)
	}
	d := time.Since(t0)
	if err == nil {
		var saved []byte
		if saved, err = pl.Save(); err == nil && sha256.Sum256(saved) != w.digest {
			err = fmt.Errorf("plan differs from the single-threaded reference (%d points)", pl.Len())
		}
	}
	if err != nil {
		sm.failed = 1
		w.note(err)
		return sm
	}
	sm.units = w.klines
	sm.turnaroundMS = millis(d)
	// The plan is the scan's first and only result.
	sm.firstMS = sm.turnaroundMS
	return sm
}

// stagedScan is profipy.Scan taken apart one level down, a span around
// each layer's call: the traced window's cycle.
func (w *scanWorkload) stagedScan() (*plan.Plan, error) {
	var (
		models []*pattern.MetaModel
		points []scanner.InjectionPoint
		err    error
	)
	w.rec.do(0, "dsl", "dsl_compile", "", func(int) { models, err = faultmodel.CompileAll(w.specs) })
	if err != nil {
		return nil, err
	}
	w.rec.do(0, "scanner", "scan", "", func(int) {
		points, err = scanner.ScanCache(scanner.NewProjectCache(w.files), models, 0)
	})
	if err != nil {
		return nil, err
	}
	pl := plan.New(w.specs, points)
	w.stats.rounds++
	w.stats.specs += len(w.specs)
	w.stats.klines += w.klines
	w.stats.points += pl.Len()
	return pl, nil
}

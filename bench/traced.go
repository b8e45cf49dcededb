package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"profipy/internal/resultstore"
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// (a test holds the two together).
type metricDef struct{ name, unit string }

// endToEndMetrics is what the untraced run reports, on every workload.
var endToEndMetrics = []metricDef{
	{"work_per_s_p75", "1/s"},
	{"turnaround_ms_p25", "ms"},
	{"first_record_ms_p25", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayerMetrics is what the traced run reports, on every workload; a
// layer a workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"dsl_compile_us", "us"},
	{"scan_us_per_kline", "us"},
	{"points", "count"},
	{"coverage_ms", "ms"},
	{"mutate_us", "us"},
	{"compile_base_ms", "ms"},
	{"recompile_us", "us"},
	{"compile_cache_hit_ratio", "ratio"},
	{"container_us", "us"},
	{"env_install_us", "us"},
	{"run_us", "us"},
	{"steps_per_s", "1/s"},
	{"prefix_build_ms", "ms"},
	{"fork_run_us", "us"},
	{"fork_hit_ratio", "ratio"},
	{"snapshot_kb", "KB"},
	{"pool_busy_share", "ratio"},
	{"sink_wait_us", "us"},
	{"aggregate_us", "us"},
	{"report_us", "us"},
	{"store_append_us", "us"},
	{"store_finish_ms", "ms"},
	{"bytes_per_record", "B"},
	{"queue_wait_ms", "ms"},
	{"http_submit_ms", "ms"},
	{"http_job_poll_ms", "ms"},
	{"http_stream_ms", "ms"},
	{"http_report_ms", "ms"},
	{"http_requests_per_campaign", "count"},
	{"fleet_lease_ms", "ms"},
	{"fleet_spec_ms", "ms"},
	{"fleet_records_ms", "ms"},
	{"fleet_complete_ms", "ms"},
	{"fleet_heartbeat_ms", "ms"},
	{"lease_empty_ratio", "ratio"},
	{"records_per_batch", "count"},
	{"spec_kb", "KB"},
	{"metrics_scrape_ms", "ms"},
	{"metrics_scrape_kb", "KB"},
	{"alloc_kb_per_unit", "KB"},
	{"gc_cpu_share", "ratio"},
	{"gc_cycles", "count"},
	{"heap_live_mb_end", "MB"},
	{"trace_overhead_share", "ratio"},
}

// replayRounds is how many times the staged replay drives each campaign
// of the cycle; per-call figures are means over all of them.
const replayRounds = 5

// traceFile is what the traced run leaves in bench/out/trace-W.json.
type traceFile struct {
	Workload string                `json:"workload"`
	Env      envStamp              `json:"env"`
	Metrics  map[string]metric     `json:"metrics"`
	Info     map[string]any        `json:"info"`
	Layers   map[string]*layerStat `json:"layers"`
	Routes   map[string]*routeStat `json:"routes"`
	Spans    []span                `json:"spans"`
}

// runTraced is the traced run: an untraced half window, a traced half
// window (the difference is the tracing overhead), then the staged
// replay that attributes time to layers.
func runTraced(def workloadDef, cfg runConfig, window time.Duration) (result, error) {
	rec := newRecorder()
	mw := newMiddleware(rec)
	st := &replayStats{}
	cfg.rec, cfg.stats, cfg.wrap = rec, st, mw.wrap
	w, err := def.setup(cfg)
	if err != nil {
		return result{}, fmt.Errorf("set-up %s: %w", def.name, err)
	}
	defer w.close()

	warm := measure(w, warmUp)
	plain := measure(w, window/2)
	rec.on.Store(true)
	p0 := readProc()
	traced := measure(w, window/2)
	p1 := readProc()
	rec.on.Store(false)
	routes := mw.snapshot()
	view := w.serviceView()

	replayErr := w.replayLayers(cfg)

	spans := rec.snapshot()
	self := selfTimes(spans)
	layers := summarize(spans, self)
	m := layerMetrics(layers, st, routes, view, tracedWindow{plain, traced, p0, p1})

	res := result{
		workload:  def.name,
		Attempted: warm.attempted + plain.attempted + traced.attempted,
		Failed:    warm.failed + plain.failed + traced.failed,
		Metrics:   m,
		env:       stamp(cfg, window, len(traced.samples)),
		info: map[string]any{
			"untraced_work_per_s_p75": plain.quietRate(),
			"traced_work_per_s_p75":   traced.quietRate(),
			"replayed_campaigns":      st.campaigns,
			"spans":                   len(spans),
			"service_phase_ms":        view.phaseMS,
			"service_counters":        view.counters,
		},
	}
	// Closure check: the self times in the experiment spans' subtrees must
	// add up to the experiment spans themselves, which is the pool time
	// pool_busy_share claims (workers x execute wall x share).
	if exp := layers["experiment"]; exp != nil {
		under := map[int]bool{}
		sum := int64(0)
		for _, s := range spans { // parents precede children
			if s.Name == "experiment" || under[s.Parent] {
				under[s.ID] = true
				sum += self[s.ID]
			}
		}
		closure := float64(sum) / float64(exp.TotalNS)
		res.info["self_time_closure"] = closure
		if math.Abs(closure-1) > 0.10 && replayErr == nil {
			replayErr = fmt.Errorf("experiment self times sum to %.3f of the experiment spans", closure)
		}
	}
	for key, err := range map[string]error{"replay_error": replayErr, "final_check": w.finalCheck()} {
		if err != nil {
			res.fail(key, err)
		}
	}
	if f := w.failures(); len(f) > 0 {
		res.info["failures"] = f
	}
	res.Correct = res.Failed == 0

	tf := traceFile{Workload: def.name, Env: res.env, Metrics: m, Info: res.info, Layers: layers, Routes: routes, Spans: spans}
	data, err := json.Marshal(tf)
	if err != nil {
		return res, err
	}
	path := filepath.Join(cfg.root, "bench", "out", "trace-"+def.name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return res, err
	}
	res.info["trace_file"] = path
	return res, nil
}

// tracedWindow is the pair of half windows and the process counters
// read around the traced one.
type tracedWindow struct {
	plain, traced measurement
	p0, p1        procCounters
}

// layerMetrics turns the span totals, the replay's counters, the route
// ledger and the process counters into the per-layer metrics. Every name
// of perLayerMetrics is present; what a workload does not exercise is 0.
func layerMetrics(layers map[string]*layerStat, st *replayStats, routes map[string]*routeStat, view serviceView, tw tracedWindow) map[string]metric {
	traced, plain, p0, p1 := tw.traced, tw.plain, tw.p0, tw.p1
	m := make(map[string]metric, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		m[d.name] = metric{0, d.unit}
	}
	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, m[name].Unit}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	totalMS := func(name string) float64 {
		if layers[name] == nil {
			return 0
		}
		return float64(layers[name].TotalNS) / 1e6
	}

	// Staged layers: means per call, per spec, per kiloline or per replay.
	set("dsl_compile_us", ratio(totalMS("dsl_compile")*1e3, float64(st.specs)))
	set("scan_us_per_kline", ratio(totalMS("scan")*1e3, st.klines))
	set("points", ratio(float64(st.points), float64(st.rounds)))
	set("coverage_ms", perCallUS(layers["coverage"])/1e3)
	set("mutate_us", perCallUS(layers["mutate"]))
	set("compile_base_ms", perCallUS(layers["compile_base"])/1e3)
	set("recompile_us", perCallUS(layers["recompile"]))
	set("compile_cache_hit_ratio", ratio(float64(st.cacheHits), float64(st.cacheHits+st.cacheMisses)))
	// One container span per create and one per destroy; the metric is
	// the pair.
	set("container_us", 2*perCallUS(layers["container"]))
	set("env_install_us", perCallUS(layers["env_install"]))
	set("run_us", perCallUS(layers["run"]))
	runNS := 0.0
	for _, name := range []string{"run", "fork_run"} {
		if layers[name] != nil {
			runNS += float64(layers[name].TotalNS)
		}
	}
	set("steps_per_s", ratio(float64(st.steps), runNS/1e9))
	set("prefix_build_ms", perCallUS(layers["prefix_build"])/1e3)
	set("fork_run_us", perCallUS(layers["fork_run"]))
	set("fork_hit_ratio", ratio(float64(st.forkHits), float64(st.forkAttempts)))
	set("snapshot_kb", st.snapshotKB)
	expNS, execNS := 0.0, 0.0
	if layers["experiment"] != nil {
		expNS, execNS = float64(layers["experiment"].TotalNS), float64(layers["execute"].TotalNS)
	}
	set("pool_busy_share", ratio(expNS, float64(st.workers)*execNS))
	set("sink_wait_us", ratio(float64(st.sinkWaitNS)/1e3, float64(st.experiments)))
	set("aggregate_us", perCallUS(layers["aggregate"]))
	set("report_us", perCallUS(layers["report"]))
	set("store_append_us", perCallUS(layers["store_append"]))
	set("store_finish_ms", perCallUS(layers["store_finish"])/1e3)
	set("bytes_per_record", ratio(float64(st.storeBytes), float64(st.experiments)))

	// saas + scheduler + fleet + obs, from the middleware and job views.
	set("queue_wait_ms", view.queueWaitMS)
	clientRequests := 0
	for _, name := range []string{"submit", "job_poll", "stream", "report"} {
		set("http_"+name+"_ms", routes[name].meanMS())
		if routes[name] != nil {
			clientRequests += routes[name].Count
		}
	}
	set("http_requests_per_campaign", ratio(float64(clientRequests), float64(traced.attempted-traced.failed)))
	for _, name := range []string{"lease", "spec", "records", "complete", "heartbeat"} {
		set("fleet_"+name+"_ms", routes[name].meanMS())
	}
	if lease := routes["lease"]; lease != nil {
		set("lease_empty_ratio", ratio(float64(lease.Status[204]), float64(lease.Count)))
	}
	if recs := routes["records"]; recs != nil {
		set("records_per_batch", ratio(traced.units(), float64(recs.Count)))
	}
	if spec := routes["spec"]; spec != nil {
		set("spec_kb", ratio(float64(spec.RespBytes)/1024, float64(spec.Count)))
	}
	set("metrics_scrape_ms", view.scrapeMS)
	set("metrics_scrape_kb", view.scrapeKB)

	// process, over the traced half window.
	set("alloc_kb_per_unit", ratio((p1.allocBytes-p0.allocBytes)/1024, traced.units()))
	set("gc_cpu_share", ratio(p1.gcCPU-p0.gcCPU, p1.busyCPU-p0.busyCPU))
	set("gc_cycles", p1.gcCycles-p0.gcCycles)
	set("heap_live_mb_end", p1.heapLive/(1<<20))
	set("trace_overhead_share", 1-ratio(traced.quietRate(), plain.quietRate()))
	return m
}

// replayLayers runs the staged replay of every campaign of the cycle and
// holds the replayed records to the same reference the service's records
// were held to.
func (w *campaignWorkload) replayLayers(cfg runConfig) error {
	dir, err := os.MkdirTemp(filepath.Join(cfg.root, "bench", "out"), "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	for round := 0; round < replayRounds; round++ {
		cfg.stats.rounds++
		for _, op := range w.ops {
			id := fmt.Sprintf("replay-%s-%d", op.kind.name, round)
			lines, err := replay(cfg, op.kind, store, id)
			if err != nil {
				return fmt.Errorf("replay %s: %w", op.kind.name, err)
			}
			if len(lines) != op.n || canonicalDigest(lines) != op.digest {
				return fmt.Errorf("replay %s: %d records differ from the reference (%d)", op.kind.name, len(lines), op.n)
			}
		}
	}
	return nil
}

// serviceView is what the traced run reads off the running service
// after the traced window.
type serviceView struct {
	queueWaitMS float64            // mean startedMs-enqueuedMs over campaigns
	phaseMS     map[string]float64 // mean job phaseMillis, the service's own view
	scrapeMS    float64            // GET /metrics, median of five
	scrapeKB    float64
	counters    map[string]float64 // fork and compile-cache counters from /metrics
}

func (w *campaignWorkload) serviceView() serviceView {
	v := serviceView{phaseMS: map[string]float64{}, counters: map[string]float64{}}
	for _, r := range w.runs {
		v.queueWaitMS += float64(r.job.StartedMS-r.job.EnqueuedMS) / float64(len(w.runs))
		for phase, ms := range r.job.PhaseMillis {
			v.phaseMS[phase] += float64(ms) / float64(len(w.runs))
		}
	}
	var times []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		counters, size, err := w.svc.scrapeMetrics()
		if err != nil {
			return v
		}
		times = append(times, millis(time.Since(t0)))
		v.scrapeKB = float64(size) / 1024
		for name, val := range counters {
			if strings.HasPrefix(name, "profipy_campaign_fork_events_total") || strings.HasPrefix(name, "profipy_campaign_compile_") {
				v.counters[name] = val
			}
		}
	}
	v.scrapeMS = median(times)
	return v
}

// The scan workload has no service, no store and no experiments: its
// layers are all timed inside the traced window's cycles.
func (w *scanWorkload) replayLayers(runConfig) error { return nil }
func (w *scanWorkload) serviceView() serviceView     { return serviceView{} }

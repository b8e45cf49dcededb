package campaign

import (
	"time"

	"profipy/internal/obs"
	"profipy/internal/workload"
)

// cmetrics instruments campaign runs. A nil *cmetrics is valid and
// inert, so call sites stay unconditional.
type cmetrics struct {
	runs        *obs.CounterVec // status = started | completed | failed | canceled
	experiments *obs.CounterVec // result = ok | error
	phaseDur    *obs.HistogramVec
	compiles    *obs.CounterVec // path = decl | file (by reason)
	forkEvents  *obs.CounterVec // event = snapshot | short_site | hit | miss (by reason) | build_failed
	prepares    *obs.CounterVec // result = hit | miss | too_large
}

// phaseBuckets cover millisecond scan phases through minute-scale
// execution phases.
var phaseBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 5, 15, 60, 300}

// newMetrics builds the campaign instrumentation.
func newMetrics(reg *obs.Registry) *cmetrics {
	if reg == nil {
		return nil
	}
	return &cmetrics{
		runs: reg.CounterVec("profipy_campaign_runs_total",
			"Campaign workflow runs, by lifecycle event.", "status"),
		experiments: reg.CounterVec("profipy_campaign_experiments_total",
			"Completed experiments, by outcome (error = infrastructure abort).", "result"),
		phaseDur: reg.HistogramVec("profipy_campaign_phase_seconds",
			"Wall-clock time per campaign workflow phase.", phaseBuckets, "phase"),
		compiles: reg.CounterVec("profipy_campaign_mutant_compiles_total",
			"Per-experiment program derivations in this process: one declaration compiled (path=decl), or the whole mutated file recompiled (path=file) because no declaration was given (no_decl), it names no single function (rename), the text changed outside one function (cross_decl), it declares a new top-level name (new_name) or the declaration does not parse (parse_error).", "path", "reason"),
		forkEvents: reg.CounterVec("profipy_campaign_fork_events_total",
			"Prefix-fork activity: boundary snapshots captured, sites left to full runs because their prefix is too short to pay (short_site), experiments resumed from a snapshot (hit), fork attempts that fell back to a full run (miss, by reason), prefix builds that failed and left every experiment running in full (build_failed).", "event", "reason"),
		prepares: reg.CounterVec("profipy_campaign_prepared_total",
			"Campaigns by how they came by their parsed and compiled project in this process's prepared set: borrowed (hit), prepared and retained (miss), prepared but over the set's byte bound and not retained (too_large).", "result"),
	}
}

func (m *cmetrics) prepared(result string) {
	if m != nil {
		m.prepares.With(result).Inc()
	}
}

func (m *cmetrics) run(status string) {
	if m != nil {
		m.runs.With(status).Inc()
	}
}

func (m *cmetrics) phase(name string, d time.Duration) {
	if m != nil {
		m.phaseDur.With(name).Observe(d.Seconds())
	}
}

func (m *cmetrics) experiment(infraError bool) {
	if m == nil {
		return
	}
	if infraError {
		m.experiments.With("error").Inc()
	} else {
		m.experiments.With("ok").Inc()
	}
}

func (m *cmetrics) fork(build workload.PrefixStats, hits int, misses map[string]int) {
	if m == nil {
		return
	}
	m.forkEvents.With("snapshot", "").Add(float64(build.Snapshots))
	m.forkEvents.With("short_site", "").Add(float64(build.Short))
	m.forkEvents.With("hit", "").Add(float64(hits))
	for reason, n := range misses {
		m.forkEvents.With("miss", reason).Add(float64(n))
	}
}

func (m *cmetrics) forkBuildFailed() {
	if m != nil {
		m.forkEvents.With("build_failed", "").Inc()
	}
}

func (m *cmetrics) mutantCompiles(decl uint64, file map[string]uint64) {
	if m == nil {
		return
	}
	m.compiles.With("decl", "").Add(float64(decl))
	for reason, n := range file {
		m.compiles.With("file", reason).Add(float64(n))
	}
}

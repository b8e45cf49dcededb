package campaign

import (
	"profipy/internal/obs"
	"profipy/internal/workload"
)

// cmetrics holds the campaign's metric handles; without a registry they
// are nil and inert (see obs), so call sites use them unconditionally.
type cmetrics struct {
	runs        *obs.CounterVec // status = started | completed | failed | canceled
	experiments *obs.CounterVec // result = ok | error
	phaseDur    *obs.HistogramVec
	compiles    *obs.CounterVec   // path = decl | file (by reason)
	forkEvents  *obs.CounterVec   // event = snapshot | short_site | hit | miss (by reason)
	prepares    *obs.CounterVec   // result = hit | miss | too_large
	firstRecord *obs.HistogramVec // executor = local | remote
}

// phaseBuckets cover millisecond scan phases through minute-scale
// execution phases.
var phaseBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 5, 15, 60, 300}

// newMetrics builds the campaign instrumentation.
func newMetrics(reg *obs.Registry) *cmetrics {
	// The rounds' own counter: registered here so it reads 0 until the
	// first kill.
	workload.WatchdogTimeouts(reg)
	return &cmetrics{
		runs: reg.CounterVec("profipy_campaign_runs_total",
			"Campaign workflow runs, by lifecycle event.", "status"),
		experiments: reg.CounterVec("profipy_campaign_experiments_total",
			"Completed experiments, by outcome (error = infrastructure abort).", "result"),
		phaseDur: reg.HistogramVec("profipy_campaign_phase_seconds",
			"Wall-clock time per campaign workflow phase.", phaseBuckets, "phase"),
		compiles: reg.CounterVec("profipy_campaign_mutant_compiles_total",
			"Per-experiment program derivations in this process: one declaration compiled (path=decl), or the whole mutated file recompiled (path=file) because the caller held only text (no_decl), the declaration names no single function (rename) or the file declares a new top-level name (new_name).", "path", "reason"),
		forkEvents: reg.CounterVec("profipy_campaign_fork_events_total",
			"Prefix-fork activity: boundary snapshots captured, sites left to full runs because their prefix is too short to pay (short_site), experiments resumed from a snapshot (hit), fork attempts that fell back to a full run (miss, by reason).", "event", "reason"),
		prepares: reg.CounterVec("profipy_campaign_prepared_total",
			"Campaigns by how they came by their parsed and compiled project in this process's prepared set: borrowed (hit), prepared and retained (miss), prepared but over the set's byte bound and not retained (too_large).", "result"),
		firstRecord: reg.HistogramVec("profipy_campaign_first_record_seconds",
			"Wall-clock time from a campaign workflow's start to its first executed record, by executor (local or remote).", phaseBuckets, "executor"),
	}
}

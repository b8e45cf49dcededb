package executor

import (
	"time"

	"profipy/internal/analysis"
	"profipy/internal/obs"
)

// emetrics holds one engine's metric handles for a Run: completed
// records and experiment latency (both hot-path, resolved to atomic
// children once per Run) and the busy-worker gauge for utilization.
// Without a registry the handles are nil and inert (see obs).
type emetrics struct {
	records   *obs.Counter
	expDur    *obs.Histogram
	busy      *obs.Gauge
	takeovers *obs.CounterVec
}

// expDurBuckets resolve the sub-millisecond experiments the compiled
// interpreter produces up to multi-second stragglers.
var expDurBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5}

// newMetrics resolves the hot-path vec children once per Run; executor
// is the engine, "local" or "remote".
func newMetrics(reg *obs.Registry, executor string) *emetrics {
	return &emetrics{
		records: reg.CounterVec("profipy_executor_records_total",
			"Experiment records delivered to the sink, by executor.", "executor").With(executor),
		expDur: reg.HistogramVec("profipy_executor_experiment_seconds",
			"Wall-clock latency of one experiment, by executor.", expDurBuckets, "executor").With(executor),
		busy: reg.Gauge("profipy_executor_workers_busy",
			"Workers currently inside an experiment (utilization numerator)."),
		takeovers: reg.CounterVec("profipy_executor_takeover_total",
			"In-process drains that took shards over from the fleet, by trigger: no worker live when the job started (no_worker), or every worker fell silent (fleet_lost).", "reason"),
	}
}

// instrument wraps an Experiment with busy-gauge and latency
// accounting; without a registry it returns exp untouched, so the
// uninstrumented pool pays nothing, not even the clock reads.
func (m *emetrics) instrument(exp Experiment) Experiment {
	if m.expDur == nil {
		return exp
	}
	return func(idx int) analysis.Record {
		m.busy.Inc()
		start := time.Now()
		rec := exp(idx)
		m.expDur.ObserveSince(start)
		m.busy.Dec()
		return rec
	}
}

package executor

import (
	"time"

	"profipy/internal/analysis"
	"profipy/internal/obs"
)

// emetrics instruments one engine's Run: completed records and
// experiment latency (both hot-path, resolved to atomic children once
// per Run) and the busy-worker gauge for utilization. A nil *emetrics
// is valid and inert.
type emetrics struct {
	records *obs.Counter
	expDur  *obs.Histogram
	busy    *obs.Gauge
}

// expDurBuckets resolve the sub-millisecond experiments the compiled
// interpreter produces up to multi-second stragglers.
var expDurBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5}

// newMetrics resolves the hot-path vec children once per Run; executor
// is the engine, "local" or "remote".
func newMetrics(reg *obs.Registry, executor string) *emetrics {
	if reg == nil {
		return nil
	}
	return &emetrics{
		records: reg.CounterVec("profipy_executor_records_total",
			"Experiment records delivered to the sink, by executor.", "executor").With(executor),
		expDur: reg.HistogramVec("profipy_executor_experiment_seconds",
			"Wall-clock latency of one experiment, by executor.", expDurBuckets, "executor").With(executor),
		busy: reg.Gauge("profipy_executor_workers_busy",
			"Workers currently inside an experiment (utilization numerator)."),
	}
}

// instrument wraps an Experiment with busy-gauge and latency
// accounting; the no-metrics path returns exp untouched so the hot
// loop pays nothing.
func (m *emetrics) instrument(exp Experiment) Experiment {
	if m == nil {
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

// record counts one delivered record.
func (m *emetrics) record() {
	if m != nil {
		m.records.Inc()
	}
}

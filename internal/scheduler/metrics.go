package scheduler

import "profipy/internal/obs"

// metrics is the scheduler's instrument panel. All fields resolve their
// registry children once at construction, so the per-event cost is one
// atomic add. Without a registry the handles are nil and inert (see
// obs), keeping every call site unconditional.
type metrics struct {
	queueDepth *obs.Gauge
	running    *obs.Gauge
	finished   *obs.CounterVec // state = done | failed | canceled
	jobDur     *obs.Histogram
	phaseDur   *obs.HistogramVec // phase = scan | coverage | execute | analyze | ...
}

// jobDurBuckets spans sub-second demo campaigns to hour-long sweeps.
var jobDurBuckets = []float64{.01, .05, .1, .5, 1, 5, 15, 60, 300, 1800, 3600}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		queueDepth: reg.Gauge("profipy_scheduler_queue_depth",
			"Jobs submitted but not yet started."),
		running: reg.Gauge("profipy_scheduler_jobs_running",
			"Jobs currently executing on the worker pool."),
		finished: reg.CounterVec("profipy_scheduler_jobs_finished_total",
			"Jobs that reached a terminal state, by outcome.", "state"),
		jobDur: reg.Histogram("profipy_scheduler_job_duration_seconds",
			"Wall-clock job execution time (start to terminal state).", jobDurBuckets),
		phaseDur: reg.HistogramVec("profipy_scheduler_job_phase_seconds",
			"Wall-clock time jobs spend in each workflow phase.", jobDurBuckets, "phase"),
	}
}

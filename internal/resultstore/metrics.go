package resultstore

import "profipy/internal/obs"

// storeMetrics holds the persistence layer's metric handles. Until
// Instrument sets them they are nil and inert (see obs), so an
// uninstrumented store pays one nil check per event.
type storeMetrics struct {
	appends     *obs.Counter
	bytes       *obs.Counter
	fsyncs      *obs.Counter
	writeErrors *obs.Counter
	subscribers *obs.Gauge
	startWait   *obs.Histogram
}

// Instrument registers the store's metric families in reg and starts
// counting. Call once, before traffic; a nil reg leaves the store
// uninstrumented.
func (s *Store) Instrument(reg *obs.Registry) {
	s.met = storeMetrics{
		appends: reg.Counter("profipy_resultstore_appends_total",
			"Experiment record lines appended across all campaigns."),
		bytes: reg.Counter("profipy_resultstore_bytes_total",
			"Record bytes written to segment storage (including newlines)."),
		fsyncs: reg.Counter("profipy_resultstore_fsyncs_total",
			"fsync(2) calls: record segments, meta/report/journal files and their directories."),
		writeErrors: reg.Counter("profipy_resultstore_write_errors_total",
			"Segment or journal write failures; each degrades the affected campaign to memory-only records."),
		subscribers: reg.Gauge("profipy_resultstore_follow_subscribers",
			"Live Follow streams currently attached to campaigns."),
		startWait: reg.Histogram("profipy_resultstore_start_wait_seconds",
			"Time a campaign's first Append, Finish or Abort waited for the background start that makes its directory, running meta.json and first segment.",
			[]float64{.0001, .0005, .001, .005, .025, .1}),
	}
}

package fleet

import "profipy/internal/obs"

// fmetrics holds the fleet coordinator's metric handles; without a
// registry they are nil and inert (see obs).
type fmetrics struct {
	expiries  *obs.Counter
	redisp    *obs.Counter
	ingested  *obs.Counter
	duplicate *obs.Counter
	stale     *obs.Counter
	ingestH   *obs.Histogram
	leaseReqs *obs.CounterVec // result = granted | woken | empty
	leaseWait *obs.Histogram
	shardH    *obs.Histogram
	rejected  *obs.CounterVec // reason = too_large | malformed
}

func newMetrics(reg *obs.Registry, c *Coordinator) *fmetrics {
	reg.GaugeFunc("profipy_fleet_workers",
		"Registered workers with a heartbeat within the lease TTL.",
		func() float64 { return float64(c.LiveWorkers()) })
	return &fmetrics{
		expiries: reg.Counter("profipy_fleet_lease_expiries_total",
			"Shard leases expired because the holding worker stopped heartbeating."),
		redisp: reg.Counter("profipy_fleet_shard_redispatch_total",
			"Shards dispatched more than once: after a lease expiry, or because their holder asked for work without completing them."),
		ingested: reg.Counter("profipy_fleet_records_ingested_total",
			"Experiment records accepted from remote workers (first delivery per index)."),
		duplicate: reg.Counter("profipy_fleet_records_duplicate_total",
			"Experiment records dropped as duplicates (index already delivered)."),
		stale: reg.Counter("profipy_fleet_records_stale_total",
			"Experiment records rejected because the shard lease token was stale."),
		ingestH: reg.Histogram("profipy_fleet_ingest_seconds",
			"Latency of ingesting one record batch from a worker.", nil),
		leaseReqs: reg.CounterVec("profipy_fleet_lease_requests_total",
			"Lease requests by outcome: granted at once, granted after parking (woken), or answered 204 at the end of their wait (empty).", "result"),
		leaseWait: reg.Histogram("profipy_fleet_lease_wait_seconds",
			"Time a lease request spent on the control plane, parked included.", nil),
		shardH: reg.Histogram("profipy_fleet_shard_seconds",
			"Time from a shard's lease to its completion.", nil),
		rejected: reg.CounterVec("profipy_fleet_requests_rejected_total",
			"Worker requests refused for their body: over the size bound (too_large, 413) or not decodable (malformed, 400).", "reason"),
	}
}

package executor

import (
	"context"
	"sync"
	"time"

	"profipy/internal/fleet"
	"profipy/internal/obs"
	"profipy/internal/remote"
)

// Remote executes a campaign's experiments on a fleet of remote
// workers coordinated by fleet.Coordinator: the coordinator cuts the
// plan into contiguous shards from the workers it can see, workers pull
// shard leases over HTTP, execute them against their own rebuilt
// campaign Runner and stream records back; Run drains the job's
// deduplicated delivery channel as the single sink goroutine.
//
// Robustness is the point of this engine, not raw parallelism:
//   - a worker that dies mid-shard stops heartbeating, its lease
//     expires and the shard is re-dispatched (or claimed locally);
//   - record ingestion is idempotent per index, so overlapping
//     executions after a re-dispatch cannot duplicate records;
//   - while no worker is live, one in-process drain claims the pending
//     shards one at a time and runs them on LocalWorkers — a fleet of
//     zero is Local over a single shard.
//
// Because experiment seeds derive from plan indices, records are
// byte-identical to Local's at any worker count, through any number of
// mid-shard failures.
type Remote struct {
	// Coord is the fleet coordinator. Required: a campaign without a
	// fleet uses Local.
	Coord *fleet.Coordinator
	// CampaignID keys the job, leases and record streams; the SaaS
	// layer sets it to the campaign's public ID.
	CampaignID string
	// Spec is the serialized campaign the workers rebuild. The campaign
	// workflow completes its plan fields (PlanHash, Indices) once it
	// built its Runner, before Run; Run sets NumExperiments.
	Spec remote.CampaignSpec
	// LocalWorkers bounds parallelism of the in-process drain (<1 runs
	// sequentially).
	LocalWorkers int
	// Reg, when set, instruments the run like Local.
	Reg *obs.Registry

	// mu guards the envelope counters: written by Run's drain loop,
	// read by the campaign (Counts) after Run returns.
	mu     sync.Mutex
	counts RemoteCounts
}

// RemoteCounts is what worker-side experiments reported in their record
// envelopes: the injection path taken and the fork outcome.
type RemoteCounts struct {
	Mutated, Injected    int
	ForkHits, ForkMisses int
}

// Name implements Executor.
func (r *Remote) Name() string { return "remote" }

// Counts reports the remotely executed experiments' path kinds and fork
// outcomes, as accounted from the record envelopes workers shipped.
// Shards the in-process drain ran are excluded — the campaign's own
// Runner counts those itself.
func (r *Remote) Counts() RemoteCounts {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts
}

// Run implements Executor. It opens a fleet job for the campaign,
// lets workers drain it via leases, takes the plan over in-process while
// no worker is live, and forwards every deduplicated delivery to sink.
// On cancellation it waits for a running drain and returns; closing the
// job fences the workers' leases, so their next ship is refused.
func (r *Remote) Run(ctx context.Context, n int, exp Experiment, sink RecordSink) error {
	if n == 0 {
		return nil
	}
	m := newMetrics(r.Reg, r.Name())
	exp = m.instrument(exp)

	campID := r.CampaignID
	if campID == "" {
		campID = r.Spec.Name
	}
	spec := r.Spec
	spec.NumExperiments = n
	job := r.Coord.StartJob(campID, spec, n)
	defer r.Coord.CloseJob(campID)

	// The in-process drain takes over what the fleet cannot do: while no
	// worker is live it claims pending shards one at a time and runs the
	// indices nobody delivered yet. Liveness is checked before every
	// claim, so a worker that comes back gets the rest of the plan. At
	// most one drain runs, so local parallelism stays LocalWorkers; a
	// trigger that arrives while one runs (again) starts the next, under
	// its own reason, when it ends.
	draining, again := false, ""
	drained := make(chan struct{}, 1)
	drain := func(reason string) {
		if draining {
			again = reason
			return
		}
		draining = true
		go func() {
			for ctx.Err() == nil && r.Coord.LiveWorkers() == 0 {
				lo, hi, ok := job.ClaimLocal()
				if !ok {
					break
				}
				if reason != "" { // the first claim: count the takeover once
					m.takeovers.With(reason).Inc()
					reason = ""
				}
				runPool(ctx, lo, hi, r.LocalWorkers, job.IsDelivered, exp, func(rec indexed) {
					job.Deliver(rec.idx, remote.KindLocal, rec.rec)
				})
			}
			drained <- struct{}{}
		}()
	}
	if r.Coord.LiveWorkers() == 0 {
		drain("no_worker")
	}

	sweep := r.Coord.LeaseTTL() / 4
	if sweep < 10*time.Millisecond {
		sweep = 10 * time.Millisecond
	}
	ticker := time.NewTicker(sweep)
	defer ticker.Stop()

	deliveries := job.Deliveries()
	for {
		select {
		case d, ok := <-deliveries:
			if !ok {
				if draining {
					<-drained
				}
				return nil
			}
			m.records.Inc()
			r.account(d)
			sink.Put(d.Idx, d.Rec)
		case <-drained:
			draining = false
			if reason := again; reason != "" {
				again = ""
				drain(reason)
			}
		case <-ctx.Done():
			if draining {
				<-drained
			}
			return ctx.Err()
		case <-ticker.C:
			r.Coord.Sweep()
			if r.Coord.LiveWorkers() == 0 {
				drain("fleet_lost")
			}
		}
	}
}

// account tallies path kinds and fork outcomes from record envelopes.
// In-process deliveries carry KindLocal and no fork outcome; the
// campaign's own Runner counts those.
func (r *Remote) account(d fleet.Delivery) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch d.Kind {
	case remote.KindMutated:
		r.counts.Mutated++
	case remote.KindInjected:
		r.counts.Injected++
	}
	switch d.Fork {
	case remote.ForkHit:
		r.counts.ForkHits++
	case remote.ForkMiss:
		r.counts.ForkMisses++
	}
}

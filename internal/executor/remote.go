package executor

import (
	"context"
	"fmt"
	"sync"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/fleet"
	"profipy/internal/obs"
	"profipy/internal/remote"
	"profipy/internal/scanner"
)

// Remote executes a campaign's experiments on a fleet of remote
// workers coordinated by fleet.Coordinator: the plan is cut into
// deterministic contiguous shards (Shard), workers pull shard leases
// over HTTP, execute them against their own rebuilt
// campaign Runner and stream records back; Run drains the job's
// deduplicated delivery channel as the single sink goroutine.
//
// Robustness is the point of this engine, not raw parallelism:
//   - a worker that dies mid-shard stops heartbeating, its lease
//     expires and the shard is re-dispatched (or claimed locally);
//   - record ingestion is idempotent per plan index, so overlapping
//     executions after a re-dispatch cannot duplicate records;
//   - with no live workers at all, Run degrades to in-process
//     execution of the pending shards — a fleet of zero is just Local
//     with extra bookkeeping.
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
	// Spec is the serialized campaign the workers rebuild. The plan
	// fields (Covered, PlanHash, NumExperiments) are completed by
	// SetPlanContext once the control-plane scan/coverage phases ran.
	Spec remote.CampaignSpec
	// Shards is the number of lease units (default 8). More shards
	// mean finer re-dispatch granularity after a worker failure.
	Shards int
	// LocalWorkers bounds parallelism of locally executed fallback
	// shards (<1 runs sequentially).
	LocalWorkers int
	// WaitForWorkers keeps pending shards reserved for the fleet even
	// while no worker is live (they would otherwise be claimed locally
	// after one sweep interval). Leases still expire and re-dispatch;
	// use it when workers are known to be coming.
	WaitForWorkers bool
	// Skip marks already-recorded plan indices of a resumed campaign:
	// they are pre-marked delivered on the fleet job (so neither workers
	// nor the local fallback produce records for them) and fully-covered
	// shards complete without ever being leased.
	Skip *Mask
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
func (r *Remote) Name() string { return fmt.Sprintf("remote(%d shards)", r.shards()) }

func (r *Remote) shards() int {
	if r.Shards < 1 {
		return 8
	}
	return r.Shards
}

// SetPlanContext completes the campaign spec with the control plane's
// resolved plan: the coverage verdicts and the post-reduction exec
// points (hashed so workers can detect divergence). The campaign
// workflow calls this after its coverage phase, before Run.
func (r *Remote) SetPlanContext(covered map[string]bool, points []scanner.InjectionPoint) {
	r.Spec.Covered = covered
	r.Spec.PlanHash = remote.PlanHash(points)
	r.Spec.NumExperiments = len(points)
}

// Counts reports the remotely executed experiments' path kinds and fork
// outcomes, as accounted from the record envelopes workers shipped.
// Local fallback shards are excluded — the in-process Runner counts
// those itself.
func (r *Remote) Counts() RemoteCounts {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts
}

// Run implements Executor. It opens a fleet job for the campaign,
// lets workers drain it via leases, claims shards back for local
// execution when the fleet is idle, and forwards every deduplicated
// delivery to sink. Run always delivers n records: on cancellation the
// remaining shards are revoked and executed locally, where exp returns
// stub records.
func (r *Remote) Run(ctx context.Context, n int, exp Experiment, sink RecordSink) error {
	if n == 0 {
		return nil
	}
	m := newMetrics(r.Reg, "remote")
	exp = m.instrument(exp)

	shards := r.shards()
	if shards > n {
		shards = n
	}
	ranges := make([][2]int, shards)
	for i := 0; i < shards; i++ {
		lo, hi := Shard(n, shards, i)
		ranges[i] = [2]int{lo, hi}
	}
	campID := r.CampaignID
	if campID == "" {
		campID = r.Spec.Name
	}
	job := r.Coord.StartJob(campID, r.Spec, n, ranges)
	defer r.Coord.CloseJob(campID)
	if r.Skip.Count() > 0 {
		// Resumed campaign: retire the already-recorded indices before
		// anything executes. Shards they fully cover complete without a
		// lease; partially-covered shards still run whole on a worker,
		// whose duplicate records the per-index dedup discards.
		r.Coord.PredeliverJob(campID, r.Skip.Has)
	}

	// Local fallback executor: claims unfinished shards off the fleet
	// and runs them in-process, delivering through the same dedup path
	// as remote ingestion. It runs whenever the fleet cannot make
	// progress — no live workers (unless WaitForWorkers), or the
	// context was canceled and the remaining indices must drain as
	// stubs.
	var wg sync.WaitGroup
	localShard := func(lo, hi int) {
		defer wg.Done()
		runPool(lo, hi, r.LocalWorkers, r.Skip, func(i int) analysis.Record {
			if job.IsDelivered(i) {
				// Another executor already delivered this index (a
				// worker finished it before losing its lease); the
				// duplicate run is skipped and its stub discarded by
				// the dedup below.
				return analysis.Record{}
			}
			return exp(i)
		}, func(rec indexed) {
			job.Deliver(rec.idx, remote.KindLocal, rec.rec)
		})
	}

	sweep := r.Coord.LeaseTTL() / 4
	if sweep < 10*time.Millisecond {
		sweep = 10 * time.Millisecond
	}
	ticker := time.NewTicker(sweep)
	defer ticker.Stop()

	// Graceful degradation, eagerly: with no live worker at Run time
	// (and none expected), the whole plan executes in-process straight
	// away instead of waiting out a sweep interval per shard.
	if !r.WaitForWorkers && r.Coord.LiveWorkers() == 0 {
		for {
			lo, hi, ok := job.ClaimLocal(false)
			if !ok {
				break
			}
			wg.Add(1)
			go localShard(lo, hi)
		}
	}

	canceled := false
	ctxDone := ctx.Done()
	deliveries := job.Deliveries()
	for {
		select {
		case d, ok := <-deliveries:
			if !ok {
				wg.Wait()
				return nil
			}
			m.record()
			r.account(d)
			sink.Put(d.Idx, d.Rec)
		case <-ctxDone:
			// Fires once (then nil-ed out so the select doesn't spin on
			// the closed channel): revoke every unfinished shard (leased
			// or pending) and drain it locally — exp observes the
			// canceled context and returns stub records, so Run still
			// delivers all n.
			ctxDone = nil
			canceled = true
			for {
				lo, hi, ok := job.ClaimLocal(true)
				if !ok {
					break
				}
				wg.Add(1)
				go localShard(lo, hi)
			}
		case <-ticker.C:
			r.Coord.Sweep()
			if canceled {
				continue
			}
			if r.Coord.LiveWorkers() == 0 && !r.WaitForWorkers {
				// Graceful degradation: nobody is pulling leases, so
				// take one pending shard in-process per sweep tick.
				if lo, hi, ok := job.ClaimLocal(false); ok {
					wg.Add(1)
					go localShard(lo, hi)
				}
			}
		}
	}
}

// account tallies path kinds and fork outcomes from record envelopes.
// Local fallback deliveries carry KindLocal and no fork outcome; the
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

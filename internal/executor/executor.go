// Package executor owns the execution phase of a fault injection
// campaign: given a plan of n experiments, an Executor schedules them,
// bounds their parallelism and streams every completed record — exactly
// once, from a single goroutine — into a RecordSink. Splitting this out
// of the campaign workflow turns "collect a slice, then analyze" into a
// streaming pipeline: records flow to online aggregation and durable
// storage as experiments finish, and campaign memory no longer grows
// with the experiment count.
//
// Two engines are provided. Local preserves the paper's single-host
// N−1 parallel pool (§IV-B). Sharded partitions the plan into
// deterministic, seed-stable shards — shard membership depends only on
// the point index, never on timing — and fans them out with per-shard
// workers, per-shard progress and per-shard record streams merged by a
// single collector. Because every experiment derives its seed from its
// plan index, any shard count produces byte-identical records.
package executor

import (
	"context"
	"fmt"
	"sync"
	"time"

	"profipy/internal/analysis"
	"profipy/internal/obs"
)

// Experiment runs the experiment at plan index idx and returns its
// record. Implementations must be safe for concurrent calls and honor
// ctx by returning a stub record (Point and FaultType only) once the
// context is canceled.
type Experiment func(idx int) analysis.Record

// RecordSink receives completed experiment records. Executors call Put
// from a single collector goroutine, so implementations need no
// internal locking; idx is the experiment's plan index, which is not
// necessarily the arrival order.
type RecordSink interface {
	Put(idx int, rec analysis.Record)
}

// SinkFunc adapts a function to the RecordSink interface.
type SinkFunc func(idx int, rec analysis.Record)

// Put calls f.
func (f SinkFunc) Put(idx int, rec analysis.Record) { f(idx, rec) }

// Multi fans one record stream out to several sinks, in order.
func Multi(sinks ...RecordSink) RecordSink {
	return SinkFunc(func(idx int, rec analysis.Record) {
		for _, s := range sinks {
			if s != nil {
				s.Put(idx, rec)
			}
		}
	})
}

// Collect is a RecordSink that reassembles the stream into plan order,
// for callers that still need the full record slice (golden tests, the
// library API's Result.Records).
type Collect struct {
	records []analysis.Record
}

// NewCollect prepares a collector for n experiments.
func NewCollect(n int) *Collect { return &Collect{records: make([]analysis.Record, n)} }

// Put stores the record at its plan index.
func (c *Collect) Put(idx int, rec analysis.Record) { c.records[idx] = rec }

// Records returns the collected records in plan order.
func (c *Collect) Records() []analysis.Record { return c.records }

// Executor runs a plan of experiments and streams the records.
type Executor interface {
	// Name labels the engine in benchmarks and logs.
	Name() string
	// Run executes experiments [0, n), delivering every record exactly
	// once to sink (single-goroutine). Cancellation is cooperative: the
	// Experiment function is expected to observe ctx and return stub
	// records, so Run always delivers n records.
	Run(ctx context.Context, n int, exp Experiment, sink RecordSink) error
}

// indexed pairs a record with its plan index while in flight.
type indexed struct {
	idx int
	rec analysis.Record
}

// Local executes experiments on one host with a bounded worker pool —
// the direct extraction of the campaign's original in-process execution
// loop. The campaign sizes Workers from the sandbox runtime's
// MaxParallel (N−1 cores, reduced by memory/IO caps).
type Local struct {
	// Workers bounds parallel experiments (<1 runs sequentially).
	Workers int
	// Skip, when set, marks plan indices that already have records (a
	// resumed campaign's completion bitmap): they are neither executed
	// nor emitted. Nil runs the full plan.
	Skip *Mask
	// Reg, when set, instruments the run: completed records,
	// per-experiment latency and busy workers (see newMetrics).
	Reg *obs.Registry
	// Order, when set, permutes the execution order of a pool's index
	// range (site-aware scheduling: the campaign groups experiments
	// sharing an injection site so a prefix snapshot is reused while
	// warm). Delivery stays exactly-once regardless of what Order
	// returns — out-of-range and duplicate entries are dropped and
	// missing indices appended in ascending order — and record bytes
	// never depend on execution order, because records key on plan
	// index and seeds derive from it.
	Order func(lo, hi int) []int
}

// Name implements Executor.
func (l Local) Name() string { return "local" }

// Run implements Executor.
func (l Local) Run(ctx context.Context, n int, exp Experiment, sink RecordSink) error {
	if n == 0 {
		return nil
	}
	m := newMetrics(l.Reg, l.Name())
	exp = m.instrument(exp)
	runPool(0, n, l.Workers, l.Skip, l.Order, exp, func(r indexed) {
		m.record()
		sink.Put(r.idx, r.rec)
	})
	return nil
}

// missing counts the indices of [lo, hi) not marked done in skip.
func missing(lo, hi int, skip *Mask) int {
	n := hi - lo
	if skip != nil {
		for i := lo; i < hi; i++ {
			if skip.Has(i) {
				n--
			}
		}
	}
	return n
}

// poolOrder resolves the execution sequence of [lo, hi) minus skip. A
// nil order yields ascending indices. A caller-supplied order is
// validated defensively — entries outside the range, duplicates and
// skipped indices are dropped, and indices the permutation missed are
// appended in ascending order — so a buggy Order hook can reorder work
// but never break the exactly-once delivery contract.
func poolOrder(lo, hi int, skip *Mask, order func(int, int) []int) []int {
	out := make([]int, 0, hi-lo)
	if order == nil {
		for i := lo; i < hi; i++ {
			if !skip.Has(i) {
				out = append(out, i)
			}
		}
		return out
	}
	seen := make(map[int]bool, hi-lo)
	for _, i := range order(lo, hi) {
		if i < lo || i >= hi || seen[i] || skip.Has(i) {
			continue
		}
		seen[i] = true
		out = append(out, i)
	}
	for i := lo; i < hi; i++ {
		if !seen[i] && !skip.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// runPool executes the experiments of [lo, hi) not masked by skip on a
// bounded worker pool, delivering each record to emit from the calling
// goroutine — the one pump shared by Local and Sharded's per-shard
// pools. A non-nil order permutes execution within the range.
func runPool(lo, hi, workers int, skip *Mask, order func(int, int) []int, exp Experiment, emit func(indexed)) {
	seq := poolOrder(lo, hi, skip, order)
	n := len(seq)
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for _, i := range seq {
			emit(indexed{i, exp(i)})
		}
		return
	}
	jobs := make(chan int)
	out := make(chan indexed, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobs {
				out <- indexed{i, exp(i)}
			}
		}()
	}
	go func() {
		for _, i := range seq {
			jobs <- i
		}
		close(jobs)
	}()
	for received := 0; received < n; received++ {
		emit(<-out)
	}
}

// ShardProgress is a live per-shard counter snapshot.
type ShardProgress struct {
	Shard int `json:"shard"`
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Sharded partitions the plan into deterministic contiguous shards and
// executes them concurrently, each with its own worker pool and its own
// record stream; a single collector merges the streams into the sink.
// Shard membership is a pure function of the point index and the shard
// count — never of timing or seeds — and experiment seeds derive from
// the plan index, so records are byte-identical to Local's at any shard
// count.
type Sharded struct {
	// Shards is the number of partitions (default 4).
	Shards int
	// Workers bounds parallel experiments per shard (default 1), so
	// total parallelism is Shards×Workers.
	Workers int
	// OnShard, when set, observes per-shard progress as experiments
	// complete. It is called from the collector goroutine.
	OnShard func(ShardProgress)
	// OnShardSpan, when set, observes each shard's wall-clock execution
	// window as nanosecond offsets from the start of Run — the
	// campaign's phase-timeline recorder hangs off this. Called from
	// the shard's own goroutine when the shard drains; must be safe for
	// concurrent use.
	OnShardSpan func(shard int, startNS, endNS int64)
	// Skip marks already-recorded plan indices of a resumed campaign.
	// Shard geometry is computed over the full plan — it must stay
	// identical to the uninterrupted run's — and the skipped indices are
	// simply not executed inside their shards.
	Skip *Mask
	// Reg, when set, instruments the run: completed records,
	// per-experiment latency, busy workers and shard latency.
	Reg *obs.Registry
	// Order permutes execution order inside each shard's index range
	// (site-aware scheduling); see Local.Order. Shard geometry is
	// unaffected — grouping happens within a shard, never across.
	Order func(lo, hi int) []int
}

// Name implements Executor.
func (s Sharded) Name() string {
	return fmt.Sprintf("sharded(%d×%d)", s.shards(), s.workers())
}

func (s Sharded) shards() int {
	if s.Shards < 1 {
		return 4
	}
	return s.Shards
}

func (s Sharded) workers() int {
	if s.Workers < 1 {
		return 1
	}
	return s.Workers
}

// Shard returns the half-open index range [lo, hi) of one shard of n
// experiments: contiguous ranges differing in size by at most one.
// Exported so stores and progress UIs can label shard boundaries the
// same way the executor cuts them.
func Shard(n, shards, i int) (lo, hi int) {
	lo = i * n / shards
	hi = (i + 1) * n / shards
	return lo, hi
}

// Run implements Executor.
func (s Sharded) Run(ctx context.Context, n int, exp Experiment, sink RecordSink) error {
	if n == 0 {
		return nil
	}
	shards := s.shards()
	if shards > n {
		shards = n
	}
	workers := s.workers()
	m := newMetrics(s.Reg, s.Name())
	exp = m.instrument(exp)
	t0 := time.Now()

	// Each shard streams into its own bounded channel (per-shard
	// backpressure: a stalled collector never lets a shard run more
	// than its buffer ahead); forwarders tag records with their shard
	// and merge the streams, so a slow shard never blocks a fast one.
	// The collector below is the only goroutine touching the sink.
	type shardRec struct {
		shard int
		rec   indexed
	}
	merged := make(chan shardRec, shards)
	var open sync.WaitGroup
	totals := make([]int, shards)
	for si := 0; si < shards; si++ {
		lo, hi := Shard(n, shards, si)
		totals[si] = missing(lo, hi, s.Skip)
		stream := make(chan indexed, workers)
		go s.runShard(si, lo, hi, workers, exp, stream, m, t0)
		open.Add(1)
		go func(si int) {
			defer open.Done()
			for r := range stream {
				merged <- shardRec{si, r}
			}
		}(si)
	}
	go func() {
		open.Wait()
		close(merged)
	}()

	done := make([]int, shards)
	for r := range merged {
		m.record()
		sink.Put(r.rec.idx, r.rec.rec)
		done[r.shard]++
		if s.OnShard != nil {
			s.OnShard(ShardProgress{Shard: r.shard, Done: done[r.shard], Total: totals[r.shard]})
		}
	}
	return nil
}

// runShard executes one shard's index range with its own worker pool,
// writing records to the shard stream, and closes the stream when the
// shard drains. Shard timing (metrics histogram and the OnShardSpan
// offsets) is measured here, in the shard's own goroutine.
func (s Sharded) runShard(si, lo, hi, workers int, exp Experiment, stream chan<- indexed, m *emetrics, t0 time.Time) {
	start := time.Now()
	runPool(lo, hi, workers, s.Skip, s.Order, exp, func(r indexed) { stream <- r })
	end := time.Now()
	m.shard(end.Sub(start))
	if s.OnShardSpan != nil {
		s.OnShardSpan(si, start.Sub(t0).Nanoseconds(), end.Sub(t0).Nanoseconds())
	}
	close(stream)
}

// Package executor owns the execution phase of a fault injection
// campaign: given a plan of n experiments, an Executor schedules them,
// bounds their parallelism and streams every completed record — exactly
// once, from a single goroutine — into a RecordSink. Splitting this out
// of the campaign workflow turns "collect a slice, then analyze" into a
// streaming pipeline: records flow to online aggregation and durable
// storage as experiments finish, and campaign memory no longer grows
// with the experiment count.
//
// Local is the paper's single-host N−1 parallel pool (§IV-B); Remote
// cuts the plan into deterministic contiguous shards (Shard) that a
// worker fleet leases, each worker running its shard on the same pool.
// Because every experiment derives its seed from its plan index, records
// are byte-identical on either engine at any worker or shard count.
package executor

import (
	"context"

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
	runPool(0, n, l.Workers, l.Skip, exp, func(r indexed) {
		m.record()
		sink.Put(r.idx, r.rec)
	})
	return nil
}

// runPool executes the experiments of [lo, hi) not masked by skip, in
// ascending order, on a bounded worker pool, delivering each record to
// emit from the calling goroutine — the one pump shared by Local, the
// fleet worker's shard loop and Remote's in-process fallback.
func runPool(lo, hi, workers int, skip *Mask, exp Experiment, emit func(indexed)) {
	seq := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if !skip.Has(i) {
			seq = append(seq, i)
		}
	}
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

// Shard returns the half-open index range [lo, hi) of one shard of n
// experiments: contiguous ranges differing in size by at most one.
// Exported so stores and progress UIs can label shard boundaries the
// same way Remote cuts them.
func Shard(n, shards, i int) (lo, hi int) {
	lo = i * n / shards
	hi = (i + 1) * n / shards
	return lo, hi
}

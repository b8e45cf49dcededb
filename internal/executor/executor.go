// Package executor owns the execution phase of a fault injection
// campaign: given a plan of n experiments, an Executor schedules them,
// bounds their parallelism and streams every completed record — exactly
// once, never two at a time — into a RecordSink. Splitting this out
// of the campaign workflow turns "collect a slice, then analyze" into a
// streaming pipeline: records flow to online aggregation and durable
// storage as experiments finish, and campaign memory no longer grows
// with the experiment count.
//
// Local is the paper's single-host N−1 parallel pool (§IV-B); Remote
// hands the plan to a worker fleet, whose coordinator cuts it into
// contiguous shards that workers lease and run on the same pool.
// Because every experiment derives its seed from its plan index, records
// are byte-identical on either engine at any worker or shard count.
package executor

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"profipy/internal/analysis"
	"profipy/internal/obs"
)

// Experiment runs experiment idx of [0, n) and returns its record; the
// caller decides which plan index idx stands for. Implementations must
// be safe for concurrent calls.
type Experiment func(idx int) analysis.Record

// RecordSink receives completed experiment records. Executors never
// call Put concurrently and order each call before the next, so
// implementations need no internal locking — but the calls may come
// from different goroutines (the pool's workers deliver their own
// records). idx is the experiment's index in [0, n), which is not
// necessarily the arrival order.
type RecordSink interface {
	Put(idx int, rec analysis.Record)
}

// SinkFunc adapts a function to the RecordSink interface.
type SinkFunc func(idx int, rec analysis.Record)

// Put calls f.
func (f SinkFunc) Put(idx int, rec analysis.Record) { f(idx, rec) }

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
	// once to sink (never concurrently). Once ctx is canceled Run starts
	// no further experiment, lets the running ones deliver and returns
	// ctx.Err(); the sink is never called after Run returns.
	Run(ctx context.Context, n int, exp Experiment, sink RecordSink) error
}

// indexed pairs a record with its index while in flight.
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
	runPool(ctx, 0, n, l.Workers, nil, exp, func(r indexed) {
		m.records.Inc()
		sink.Put(r.idx, r.rec)
	})
	return ctx.Err()
}

// runPool executes the experiments of [lo, hi) that skip does not name
// (nil names none) on a bounded worker pool — the one pump shared by
// Local, the fleet worker's shard loop and Remote's in-process drain.
// Workers (the calling goroutine is one of them) claim ascending indices
// off a shared cursor and deliver their own record to emit under the
// pool's mutex: emit is never entered twice at once, and a slow emit
// stalls the workers instead of queueing records. A worker checks ctx
// before each claim, so once it is canceled runPool returns as soon as
// the running experiments have delivered.
func runPool(ctx context.Context, lo, hi, workers int, skip func(int) bool, exp Experiment, emit func(indexed)) {
	if skip == nil {
		skip = func(int) bool { return false }
	}
	n := 0
	for i := lo; i < hi; i++ {
		if !skip(i) {
			n++
		}
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1 // the caller alone: sequential, ascending
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	next.Store(int64(lo))
	deliver := func(r indexed) {
		mu.Lock()
		defer mu.Unlock()
		emit(r)
	}
	work := func() {
		defer wg.Done()
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= hi {
				return
			}
			if !skip(i) {
				deliver(indexed{i, exp(i)})
				// A delivery usually wakes someone (a stream follower,
				// a progress poller). The pool may own every P and never
				// blocks between experiments, so let them run now rather
				// than at the scheduler's next forced preemption.
				runtime.Gosched()
			}
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()
}

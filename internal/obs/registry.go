// Package obs is the observability substrate of the service: a
// dependency-free, concurrent-safe metrics registry (counters, gauges
// and histograms, optionally labeled) that renders the Prometheus text
// exposition format, plus log/slog context helpers so every layer of
// the pipeline logs with its job/campaign/shard identity attached.
//
// ProFIPy's product is observing failures in other programs; the
// service itself must not be a black box. Every pipeline layer —
// scheduler, executor, campaign, result store, HTTP front end —
// registers its families against one Registry (get-or-create
// semantics, so layers need no registration ceremony) and the daemon
// serves the whole catalog at GET /metrics.
//
// The hot-path cost is one atomic add per event: metric children are
// resolved once (With) and cached by the instrumented layer, so
// per-record instrumentation stays allocation-free.
//
// Every handle is inert when nil: a nil *Registry registers nothing and
// returns nil handles, With on a nil vec returns a nil child, and a nil
// child ignores updates and reads 0. A layer built without a registry
// therefore holds nil handles and calls them unconditionally; no layer
// wraps them to decide whether it is instrumented.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric type names used in TYPE lines and consistency checks.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// DefBuckets are the default histogram buckets, in seconds — the
// conventional Prometheus latency ladder.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Registry holds metric families. All methods are safe for concurrent
// use. The zero value is not usable; call NewRegistry. A nil *Registry
// registers nothing.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one named metric family: a type, a label schema, and a set
// of children keyed by their label values.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histograms only

	mu       sync.RWMutex
	children map[string]metric // key = joined label values
	fn       func() float64    // callback gauge (GaugeFunc), children nil
}

// metric is the render-side view of a child.
type metric interface {
	labelValues() []string
}

// getOrCreate returns the named family, creating it on first use.
// Re-registering with a different type or label schema is a programming
// error and panics — the same family cannot be two things.
func (r *Registry) getOrCreate(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.fams[name]
		if !ok {
			f = &family{
				name: name, help: help, typ: typ,
				labels:   append([]string(nil), labels...),
				buckets:  append([]float64(nil), buckets...),
				children: make(map[string]metric),
			}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.typ, typ))
	}
	if !slices.Equal(f.labels, labels) {
		// Joined, not formatted with %v: a slice passed to fmt escapes,
		// and every registration's variadic labels with it.
		panic(fmt.Sprintf("obs: metric %s registered with labels [%s], requested with [%s]", name, strings.Join(f.labels, " "), strings.Join(labels, " ")))
	}
	return f
}

// child returns the family's child for the given label values, creating
// it on first use via mk.
func (f *family) child(values []string, mk func(values []string) metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	m, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok = f.children[key]; ok {
		return m
	}
	m = mk(append([]string(nil), values...))
	f.children[key] = m
	return m
}

// ---- Counter ----

// Counter is a monotonically increasing value.
type Counter struct {
	bits   atomic.Uint64 // float64 bits
	values []string
}

func (c *Counter) labelValues() []string { return c.values }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v (negative v is ignored — counters
// never go down).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values, func(vals []string) metric { return &Counter{values: vals} }).(*Counter)
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.getOrCreate(name, help, typeCounter, labels, nil)}
}

// ---- Gauge ----

// Gauge is a value that can go up and down.
type Gauge struct {
	bits   atomic.Uint64 // float64 bits
	values []string
}

func (g *Gauge) labelValues() []string { return g.values }

// Add increases (or with negative v decreases) the gauge.
func (g *Gauge) Add(v float64) {
	if g != nil {
		addFloat(&g.bits, v)
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values, func(vals []string) metric { return &Gauge{values: vals} }).(*Gauge)
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.getOrCreate(name, help, typeGauge, labels, nil)}
}

// GaugeFunc registers a callback gauge: fn is evaluated at scrape time.
// Registering the same name again replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.getOrCreate(name, help, typeGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// ---- Histogram ----

// Histogram accumulates observations into fixed buckets.
type Histogram struct {
	counts  []atomic.Uint64 // per-bucket (non-cumulative), one per upper bound
	inf     atomic.Uint64   // observations above the last bound
	sumBits atomic.Uint64   // float64 bits
	buckets []float64
	values  []string
}

func (h *Histogram) labelValues() []string { return h.values }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v) // first bound >= v
	if i < len(h.buckets) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	addFloat(&h.sumBits, v)
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(values, func(vals []string) metric {
		return &Histogram{
			counts:  make([]atomic.Uint64, len(v.f.buckets)),
			buckets: v.f.buckets,
			values:  vals,
		}
	}).(*Histogram)
}

// Histogram registers (or finds) an unlabeled histogram. A nil buckets
// slice selects DefBuckets; bounds must be sorted ascending. The bucket
// schema is fixed by the first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %s buckets not sorted: %v", name, buckets))
	}
	return &HistogramVec{f: r.getOrCreate(name, help, typeHistogram, labels, buckets)}
}

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

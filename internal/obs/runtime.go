package obs

import "runtime/metrics"

// Runtime gauge families and the runtime/metrics samples behind them.
// GC CPU fraction is computed, the rest are read through.
var runtimeGauges = []struct{ name, help, sample string }{
	{"profipy_runtime_gc_cycles", "Completed GC cycles since process start.", "/gc/cycles/total:gc-cycles"},
	{"profipy_runtime_heap_live_bytes", "Heap memory occupied by live objects marked by the previous GC.", "/gc/heap/live:bytes"},
	{"profipy_runtime_heap_goal_bytes", "Heap size target for the end of the current GC cycle.", "/gc/heap/goal:bytes"},
	{"profipy_runtime_alloc_bytes", "Cumulative bytes allocated to the heap since process start.", "/gc/heap/allocs:bytes"},
	{"profipy_runtime_goroutines", "Live goroutines.", "/sched/goroutines:goroutines"},
}

// RegisterRuntimeMetrics exports the Go runtime's memory-management
// ledger as callback gauges evaluated at scrape time: the production
// twin of the benchmark's gc_cpu_share / alloc_kb_per_unit / gc_cycles /
// heap_live_mb_end. A campaign's experiments are allocation-heavy, so
// "was this daemon slow because of GC?" is answered by
// profipy_runtime_gc_cpu_fraction and the allocation rate
// (rate(profipy_runtime_alloc_bytes) over rate(experiments)).
func RegisterRuntimeMetrics(r *Registry) {
	for _, g := range runtimeGauges {
		sample := g.sample
		r.GaugeFunc(g.name, g.help, func() float64 { return readRuntime(sample)[0] })
	}
	r.GaugeFunc("profipy_runtime_gc_cpu_fraction",
		"Share of the process's non-idle CPU time spent in the garbage collector since process start (the runtime refreshes its CPU accounting once per GC cycle).",
		func() float64 {
			v := readRuntime("/cpu/classes/gc/total:cpu-seconds",
				"/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds")
			if busy := v[1] - v[2]; busy > 0 {
				return v[0] / busy
			}
			return 0
		})
}

// readRuntime samples runtime/metrics; a name this runtime does not
// support reads as 0.
func readRuntime(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

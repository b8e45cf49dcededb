package main

import (
	"net/http"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call: the layers themselves are not instrumented.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = no parent
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Campaign string `json:"campaign,omitempty"`
	StartNS  int64  `json:"startNs"`
	EndNS    int64  `json:"endNs"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory until the run ends. Safe for concurrent
// use (parallel experiments, HTTP handlers).
type recorder struct {
	// on gates the tracing the benchmark can switch mid-run: the HTTP
	// middleware and the scan workload's staged cycle.
	on atomic.Bool

	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (IDs start at 1).
func (r *recorder) begin(parent int, layer, name, campaign string) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Layer: layer, Name: name, Campaign: campaign, StartNS: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// do times fn as one span.
func (r *recorder) do(parent int, layer, name, campaign string, fn func(id int)) {
	id := r.begin(parent, layer, name, campaign)
	fn(id)
	r.end(id)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap one
// another (parallel experiments under one execute span), so the covered
// part is the union of the children's intervals, clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerStat sums one span name.
type layerStat struct {
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"totalNs"`
	SelfNS  int64  `json:"selfNs"`
}

// summarize groups spans by name; self is selfTimes(spans).
func summarize(spans []span, self map[int]int64) map[string]*layerStat {
	out := make(map[string]*layerStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{Layer: s.Layer, Name: s.Name}
			out[s.Name] = st
		}
		st.Count++
		st.TotalNS += s.dur()
		st.SelfNS += self[s.ID]
	}
	return out
}

// perCallUS is the mean span duration in microseconds (0 when the span
// never occurred, e.g. fork spans on mix.local).
func perCallUS(st *layerStat) float64 {
	if st == nil || st.Count == 0 {
		return 0
	}
	return float64(st.TotalNS) / float64(st.Count) / 1e3
}

// routeStat is the middleware's per-route ledger.
type routeStat struct {
	Count     int         `json:"count"`
	TotalNS   int64       `json:"totalNs"`
	ReqBytes  int64       `json:"reqBytes"`
	RespBytes int64       `json:"respBytes"`
	Status    map[int]int `json:"status"`
}

func (rs *routeStat) meanMS() float64 {
	if rs == nil || rs.Count == 0 {
		return 0
	}
	return float64(rs.TotalNS) / float64(rs.Count) / 1e6
}

// middleware measures the saas and fleet layers from outside: it wraps
// the server's whole handler and books every request under a route name
// while enabled.
type middleware struct {
	rec *recorder

	mu     sync.Mutex
	routes map[string]*routeStat
}

func newMiddleware(rec *recorder) *middleware {
	return &middleware{rec: rec, routes: make(map[string]*routeStat)}
}

// routeOf names a request's route and its layer. The server's own route
// patterns are not visible out here (its timeout wrapper serves a copy
// of the request), so the table below restates them.
func routeOf(method, path string) (layer, name, campaign string) {
	rest, ok := strings.CutPrefix(path, "/api/v1/")
	if !ok {
		if path == "/metrics" {
			return "obs", "metrics", ""
		}
		return "saas", "other", ""
	}
	parts := strings.Split(rest, "/")
	switch parts[0] {
	case "campaigns":
		switch {
		case len(parts) == 1 && method == http.MethodPost:
			return "saas", "submit", ""
		case len(parts) == 2:
			return "saas", "report", parts[1]
		case len(parts) == 3 && parts[2] == "stream":
			return "saas", "stream", parts[1]
		}
	case "jobs":
		if len(parts) == 2 {
			return "saas", "job_poll", ""
		}
	case "projects":
		return "saas", "upload", ""
	case "workers":
		switch {
		case len(parts) == 1 && method == http.MethodPost:
			return "fleet", "register", ""
		case len(parts) == 1:
			return "fleet", "workers_list", ""
		case len(parts) == 4 && parts[1] == "campaigns":
			return "fleet", "spec", parts[2]
		case len(parts) == 3:
			return "fleet", parts[2], "" // lease, records, complete, heartbeat
		}
	}
	return "saas", "other", ""
}

// countingWriter records status and body size; Flush is forwarded so the
// record stream keeps flushing per line.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (m *middleware) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !m.rec.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		layer, name, campaign := routeOf(r.Method, r.URL.Path)
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		id := m.rec.begin(0, layer, "http_"+name, campaign)
		t0 := time.Now()
		next.ServeHTTP(cw, r)
		d := time.Since(t0)
		m.rec.end(id)

		m.mu.Lock()
		rs := m.routes[name]
		if rs == nil {
			rs = &routeStat{Status: make(map[int]int)}
			m.routes[name] = rs
		}
		rs.Count++
		rs.TotalNS += d.Nanoseconds()
		rs.ReqBytes += max(r.ContentLength, 0)
		rs.RespBytes += cw.bytes
		rs.Status[cw.status]++
		m.mu.Unlock()
	})
}

// snapshot copies the ledger; requests still in flight book into the
// live one.
func (m *middleware) snapshot() map[string]*routeStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]*routeStat, len(m.routes))
	for name, rs := range m.routes {
		cp := *rs
		cp.Status = make(map[int]int, len(rs.Status))
		for code, n := range rs.Status {
			cp.Status[code] = n
		}
		out[name] = &cp
	}
	return out
}

// procCounters is the process-level ledger read from runtime/metrics.
type procCounters struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64
	busyCPU    float64 // total minus idle
	heapLive   float64
}

func readProc() procCounters {
	names := []string{
		"/gc/heap/allocs:bytes",
		"/gc/cycles/total:gc-cycles",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
		"/cpu/classes/idle:cpu-seconds",
		"/gc/heap/live:bytes",
	}
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return procCounters{
		allocBytes: val(0), gcCycles: val(1), gcCPU: val(2),
		busyCPU: val(3) - val(4), heapLive: val(5),
	}
}

package saas

import (
	"net/http"
	"strconv"
	"time"

	"profipy/internal/obs"
)

// httpBuckets span fast JSON endpoints through long ?wait=true campaign
// runs and minutes-long NDJSON follows.
var httpBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 5, 15, 60, 300}

// instrumentHTTP wraps the API mux with request counting and latency
// by route pattern and status code. The route label is the registered
// mux pattern (e.g. "GET /api/v1/campaigns/{id}"), which http.Request
// carries after ServeHTTP returns — path parameters never leak into
// label values, so cardinality stays bounded by the route table.
func instrumentHTTP(reg *obs.Registry, next http.Handler) http.Handler {
	requests := reg.CounterVec("profipy_http_requests_total",
		"API requests served, by mux route pattern and status code.", "route", "status")
	latency := reg.HistogramVec("profipy_http_request_seconds",
		"API request latency, by mux route pattern.", httpBuckets, "route")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		requests.With(route, strconv.Itoa(sw.code())).Inc()
		latency.With(route).ObserveSince(start)
	})
}

// statusWriter records the response status. It forwards Flush so the
// NDJSON stream endpoint keeps its per-record flushing through the
// wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// code returns the recorded status, defaulting to 200 for handlers
// that never write.
func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

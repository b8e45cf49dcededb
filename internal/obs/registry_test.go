package obs

import (
	"context"
	"log/slog"
	"math"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestCounterGaugeRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "Total jobs.").Add(3)
	r.CounterVec("requests_total", "Requests.", "route", "status").With("/api", "200").Inc()
	r.Gauge("queue_depth", "Queued jobs.").Set(7)
	g := r.Gauge("queue_depth", "Queued jobs.") // get-or-create returns the same child
	g.Dec()

	out := render(t, r)
	for _, want := range []string{
		"# HELP jobs_total Total jobs.\n# TYPE jobs_total counter\njobs_total 3\n",
		`requests_total{route="/api",status="200"} 1`,
		"# TYPE queue_depth gauge\nqueue_depth 6\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Families render sorted by name.
	if strings.Index(out, "jobs_total") > strings.Index(out, "queue_depth") {
		t.Errorf("families not sorted:\n%s", out)
	}
}

func TestLabelAndHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("weird_total", "help with \\ and\nnewline", "path").
		With("a\\b\"c\nd").Inc()
	out := render(t, r)
	if !strings.Contains(out, `# HELP weird_total help with \\ and\nnewline`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `weird_total{path="a\\b\"c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	// No raw newlines may survive inside a sample line.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "" {
			t.Errorf("empty line in exposition:\n%q", out)
		}
	}
}

func TestHistogramCumulativeInvariant(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-102.65) > 1e-9 {
		t.Fatalf("Sum = %v, want 102.65", got)
	}

	out := render(t, r)
	// le="0.1" includes values <= 0.1 (0.05 and 0.1 itself).
	wantLines := []string{
		`latency_seconds_bucket{le="0.1"} 2`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		`latency_seconds_count 5`,
	}
	cum := -1.0
	re := regexp.MustCompile(`latency_seconds_bucket\{le="[^"]+"\} (\d+)`)
	for _, m := range re.FindAllStringSubmatch(out, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < cum {
			t.Fatalf("bucket counts not cumulative: %v after %v\n%s", v, cum, out)
		}
		cum = v
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentIncAndObserve(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve children concurrently too: With must be safe.
			c := r.CounterVec("hits_total", "Hits.", "k").With("x")
			g := r.Gauge("busy", "Busy.")
			h := r.Histogram("obs_seconds", "Obs.", []float64{1, 2})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if got := r.CounterVec("hits_total", "Hits.", "k").With("x").Value(); got != workers*perWorker {
		t.Errorf("counter = %v, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("busy", "Busy.").Value(); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
	if got := r.Histogram("obs_seconds", "Obs.", []float64{1, 2}).Count(); got != workers*perWorker {
		t.Errorf("histogram count = %v, want %d", got, workers*perWorker)
	}
	// Scrape concurrently with writes to flush out render races.
	var wg2 sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for i := 0; i < 50; i++ {
				var sb strings.Builder
				_ = r.WritePrometheus(&sb)
				r.CounterVec("hits_total", "Hits.", "k").With("y").Inc()
			}
		}()
	}
	wg2.Wait()
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := 41
	r.GaugeFunc("live_things", "Things.", func() float64 { n++; return float64(n) })
	out := render(t, r)
	if !strings.Contains(out, "live_things 42") {
		t.Errorf("callback gauge not evaluated at scrape:\n%s", out)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "X.")
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "OK.").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "ok_total 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

func TestWithLog(t *testing.T) {
	var sb strings.Builder
	base := slog.New(slog.NewTextHandler(&sb, &slog.HandlerOptions{}))
	old := slog.Default()
	slog.SetDefault(base)
	defer slog.SetDefault(old)

	ctx := WithLog(context.Background(), "job", "job-7")
	ctx = WithLog(ctx, "campaign", "camp-7") // attributes accumulate
	Log(ctx).Info("hello")
	out := sb.String()
	if !strings.Contains(out, "job=job-7") || !strings.Contains(out, "campaign=camp-7") {
		t.Errorf("log line missing accumulated attrs: %q", out)
	}
	// A bare context falls back to the default logger.
	if Log(context.Background()) == nil {
		t.Error("Log(bare ctx) = nil")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.CounterVec("bench_total", "Bench.", "k").With("v")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "Bench.", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.042)
	}
}

// TestRuntimeMetricsExposed checks every runtime family is registered
// and reads a plausible value from the live process.
func TestRuntimeMetricsExposed(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	runtime.GC() // at least one cycle, so the CPU accounting is populated
	out := render(t, r)
	for _, fam := range []string{
		"profipy_runtime_gc_cpu_fraction", "profipy_runtime_gc_cycles",
		"profipy_runtime_heap_live_bytes", "profipy_runtime_heap_goal_bytes",
		"profipy_runtime_alloc_bytes", "profipy_runtime_goroutines",
	} {
		if !strings.Contains(out, "# TYPE "+fam+" gauge") {
			t.Errorf("family %s not exposed", fam)
		}
	}
	for _, positive := range []string{"profipy_runtime_gc_cycles", "profipy_runtime_alloc_bytes", "profipy_runtime_goroutines", "profipy_runtime_heap_goal_bytes"} {
		if strings.Contains(out, "\n"+positive+" 0\n") {
			t.Errorf("%s reads 0 on a live process", positive)
		}
	}
	if v := readRuntime("/cpu/classes/gc/total:cpu-seconds")[0]; v <= 0 {
		t.Errorf("GC CPU seconds = %v after a forced cycle", v)
	}
}

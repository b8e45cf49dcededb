package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	quietLogs()
	os.Exit(m.Run())
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n    int
		pct  float64
		val  float64
		none bool
	}{
		{n: 39, none: true},          // p75 leaves 9 beyond
		{n: 40, pct: 75, val: 30},    // p75 leaves exactly 10
		{n: 100, pct: 90, val: 90},   // p95 would leave 5
		{n: 200, pct: 95, val: 190},  // p99 would leave 2
		{n: 1000, pct: 99, val: 990}, // p99.9 would leave 1
		{n: 10000, pct: 99.9, val: 9990},
	}
	for _, tc := range cases {
		pct, val, ok := tailPercentile(seq(tc.n))
		if ok == tc.none || pct != tc.pct || val != tc.val {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v none=%v", tc.n, pct, val, ok, tc.pct, tc.val, tc.none)
		}
	}
}

// The acceptance driver applies Python's statistics.quantiles(v, n=4);
// the expected values below come from it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 2, 38, 23, 38, 23, 21, 16, 9, 4})
	if q1 != 7.75 || q2 != 18.5 || q3 != 26.75 {
		t.Errorf("quartiles = %v %v %v, want 7.75 18.5 26.75", q1, q2, q3)
	}
	if got := spread([]float64{10, 2, 38, 23, 38, 23, 21, 16, 9, 4}); math.Abs(got-19.0/18.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "execute", StartNS: 0, EndNS: 100},
		// Two overlapping children (parallel experiments) cover [10,70].
		{ID: 2, Parent: 1, Name: "experiment", StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, Name: "experiment", StartNS: 30, EndNS: 70},
		// Sequential grandchildren.
		{ID: 4, Parent: 2, Name: "mutate", StartNS: 10, EndNS: 15},
		{ID: 5, Parent: 2, Name: "run", StartNS: 20, EndNS: 45},
		// A child running past its parent only counts up to the parent's end.
		{ID: 6, Parent: 3, Name: "run", StartNS: 60, EndNS: 90},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 40, 2: 10, 3: 30, 4: 5, 5: 25, 6: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	sum := summarize(spans, self)
	if st := sum["experiment"]; st.Count != 2 || st.TotalNS != 80 || st.SelfNS != 40 {
		t.Errorf("experiment summary = %+v", st)
	}
}

func TestCanonicalDigestIgnoresOrderAndIndentation(t *testing.T) {
	planOrder := [][]byte{[]byte(`{"point":{"file":"a.go"},"n":1}`), []byte(`{"point":{"file":"b.go"},"n":2}`)}
	streamOrder := [][]byte{planOrder[1], planOrder[0]}
	fixture := []byte("[\n  {\n    \"point\": {\n      \"file\": \"a.go\"\n    },\n    \"n\": 1\n  },\n  {\n    \"point\": {\n      \"file\": \"b.go\"\n    },\n    \"n\": 2\n  }\n]\n")
	fromFixture, err := compactArray(fixture)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalDigest(planOrder)
	if canonicalDigest(streamOrder) != want || canonicalDigest(fromFixture) != want {
		t.Error("same records in another order or indentation changed the digest")
	}
	changed := [][]byte{planOrder[0], []byte(`{"point":{"file":"b.go"},"n":3}`)}
	if canonicalDigest(changed) == want {
		t.Error("a changed record kept the digest")
	}
	if canonicalDigest(planOrder[:1]) == want {
		t.Error("a missing record kept the digest")
	}
}

func TestRouteOf(t *testing.T) {
	cases := []struct{ method, path, layer, name, campaign string }{
		{"POST", "/api/v1/campaigns", "saas", "submit", ""},
		{"GET", "/api/v1/jobs/job-3", "saas", "job_poll", ""},
		{"GET", "/api/v1/campaigns/camp-3/stream", "saas", "stream", "camp-3"},
		{"GET", "/api/v1/campaigns/camp-3", "saas", "report", "camp-3"},
		{"POST", "/api/v1/workers/w-1/lease", "fleet", "lease", ""},
		{"GET", "/api/v1/workers/campaigns/camp-3/spec", "fleet", "spec", "camp-3"},
		{"POST", "/api/v1/workers/w-1/records", "fleet", "records", ""},
		{"GET", "/metrics", "obs", "metrics", ""},
	}
	for _, tc := range cases {
		layer, name, campaign := routeOf(tc.method, tc.path)
		if layer != tc.layer || name != tc.name || campaign != tc.campaign {
			t.Errorf("%s %s = %s/%s/%s", tc.method, tc.path, layer, name, campaign)
		}
	}
}

// BENCHMARK.json is the contract; the program's metric and workload
// tables must say the same.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []jm, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, d := range workloadDefs {
		if spec.Workloads[i].Name != d.name || spec.Workloads[i].Why != d.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s: %s", i, spec.Workloads[i], d.name, d.why)
		}
	}
}

func testConfig(t *testing.T, seed int64) runConfig {
	t.Helper()
	if err := os.MkdirAll(filepath.Join("..", "bench", "out"), 0o755); err != nil {
		t.Fatal(err)
	}
	return runConfig{root: "..", nproc: 2, seed: seed}
}

// One cycle of every workload, at the golden seeds where there are
// goldens: no operation may fail, which means every streamed record set
// was byte-identical to the library reference and, through it, to
// testdata/golden.
func TestSmokeEveryWorkloadOneCycle(t *testing.T) {
	scanLines = 20_000
	type smokeCase struct {
		name string
		seed int64
		run  func(cfg runConfig) (workloadRun, error)
		ops  int
	}
	cases := []smokeCase{
		{"campaign-a", 101, func(c runConfig) (workloadRun, error) { return setupCampaigns(c, []campaignKind{kindA}, false) }, 1},
		{"campaign-b", 202, func(c runConfig) (workloadRun, error) { return setupCampaigns(c, []campaignKind{kindB}, false) }, 1},
		{"campaign-c", 303, func(c runConfig) (workloadRun, error) { return setupCampaigns(c, []campaignKind{kindC}, false) }, 1},
		{"campaign-r", 404, func(c runConfig) (workloadRun, error) { return setupCampaigns(c, []campaignKind{kindR}, false) }, 1},
	}
	for _, d := range workloadDefs {
		seed := int64(101)
		if d.name == "late.fork" {
			seed = 707
		}
		ops := 1
		if d.name == "mix.local" || d.name == "mix.remote2" {
			ops = 4
		}
		cases = append(cases, smokeCase{d.name, seed, d.setup, ops})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.run(testConfig(t, tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			sm := w.cycle()
			if sm.attempted != tc.ops || sm.failed != 0 {
				t.Fatalf("attempted %d (want %d), failed %d: %v", sm.attempted, tc.ops, sm.failed, w.failures())
			}
			if sm.units <= 0 || sm.turnaroundMS <= 0 || sm.firstMS <= 0 || sm.firstMS > sm.turnaroundMS {
				t.Errorf("implausible sample %+v", sm)
			}
		})
	}
}

// The traced run must leave spans for every layer the workload
// exercises, replay records equal to the service's, and experiment self
// times that add up to the pool time they claim.
func TestTracedRunCoversEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two windows and the staged replay")
	}
	warmUp = 200 * time.Millisecond
	for _, tc := range []struct {
		workload string
		seed     int64
		layers   []string
		nonzero  []string
	}{
		{"mix.remote2", 101,
			[]string{"dsl_compile", "scan", "compile_base", "coverage", "mutate", "recompile", "container", "env_install", "run",
				"execute", "experiment", "aggregate", "report", "store_append", "store_finish",
				"http_submit", "http_job_poll", "http_stream", "http_report", "http_lease", "http_spec", "http_records", "http_complete"},
			[]string{"run_us", "pool_busy_share", "records_per_batch", "spec_kb", "lease_empty_ratio", "alloc_kb_per_unit", "metrics_scrape_ms"}},
		{"late.fork", 707,
			[]string{"prefix_build", "fork_run", "http_stream"},
			[]string{"prefix_build_ms", "fork_run_us", "fork_hit_ratio", "snapshot_kb"}},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			def, _ := findWorkload(tc.workload)
			res, err := runTraced(def, testConfig(t, tc.seed), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run incorrect: %d failed, info %v", res.Failed, res.info)
			}
			if c, _ := res.info["self_time_closure"].(float64); math.Abs(c-1) > 0.10 {
				t.Errorf("self_time_closure = %v", c)
			}
			for _, d := range perLayerMetrics {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("metric %s missing", d.name)
				}
			}
			for _, name := range tc.nonzero {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			data, err := os.ReadFile(res.info["trace_file"].(string))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			for _, name := range tc.layers {
				if tf.Layers[name] == nil || tf.Layers[name].Count == 0 {
					t.Errorf("no %s span in %s", name, res.info["trace_file"])
				}
			}
		})
	}
}

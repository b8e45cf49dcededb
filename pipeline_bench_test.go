// Streaming-pipeline benchmarks: campaign record throughput through the
// Local executor (bare and instrumented) and into the result store, and
// the online aggregator's per-record cost. TestEmitPipelineBenchJSON (gated by PROFIPY_BENCH_PIPELINE_JSON)
// writes the machine-readable BENCH_pipeline.json consumed by
// `make bench-pipeline` and the CI bench job.
package profipy

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"profipy/internal/analysis"
	"profipy/internal/executor"
	"profipy/internal/kvclient"
	"profipy/internal/obs"
	"profipy/internal/resultstore"
)

// benchPipelineCampaign runs the §V-A campaign on the Local executor
// and reports how many experiment records flowed through the pipeline.
// A non-nil registry instruments the campaign and executor exactly as
// the saas layer does, so the -metrics row measures observability
// overhead against its bare twin.
func benchPipelineCampaign(tb testing.TB, reg *obs.Registry) int {
	tb.Helper()
	rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
	c := kvclient.CampaignA(rt, 101)
	c.Metrics = reg
	c.Executor = executor.Local{Workers: 3, Reg: reg}
	c.DiscardRecords = true // measure the streaming path, not slice growth
	records := 0
	c.Sink = executor.SinkFunc(func(idx int, rec analysis.Record) { records++ })
	if _, err := c.Run(); err != nil {
		tb.Fatalf("campaign: %v", err)
	}
	return records
}

// pipelineEngines are the rows the benchmarks compare. The -metrics
// variant is the same pool with full campaign + executor
// instrumentation attached; comparing it against its bare twin in
// BENCH_pipeline.json is the observability-overhead gate (<2%
// records/s budget).
var pipelineEngines = []struct {
	name string
	reg  *obs.Registry
}{
	{"local", nil},
	{"local-metrics", obs.NewRegistry()},
}

// BenchmarkPipelineExecutors measures end-to-end campaign record
// throughput per row.
func BenchmarkPipelineExecutors(b *testing.B) {
	for _, eng := range pipelineEngines {
		b.Run(eng.name, func(b *testing.B) {
			records := 0
			for i := 0; i < b.N; i++ {
				records = benchPipelineCampaign(b, eng.reg)
			}
			b.ReportMetric(float64(records*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// benchStoreCampaign runs one §V-A campaign streaming its records into
// a disk-backed result store under the given campaign ID, and — when
// journal is set — write-ahead journaling the job lifecycle exactly as
// the saas layer does (queued and running before the run, terminal
// after; the queued and terminal lines fsync'd, the running one not). The journal-on vs journal-off pair in
// BENCH_pipeline.json is the durability-overhead gate: crash
// consistency must stay within a few percent of records/s.
func benchStoreCampaign(tb testing.TB, s *resultstore.Store, id string, journal bool) int {
	tb.Helper()
	rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
	c := kvclient.CampaignA(rt, 101)
	c.DiscardRecords = true
	if journal {
		for _, state := range []string{resultstore.JournalQueued, resultstore.JournalRunning} {
			if err := s.AppendJournal(resultstore.JournalEntry{Job: id, State: state, Campaign: id, TimeMS: 1}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	w, err := s.StartCampaign(resultstore.Meta{ID: id, Project: "bench"})
	if err != nil {
		tb.Fatal(err)
	}
	records := 0
	c.Sink = executor.SinkFunc(func(idx int, rec analysis.Record) {
		records++
		_ = w.Append(rec)
	})
	if _, err := c.Run(); err != nil {
		tb.Fatalf("campaign: %v", err)
	}
	if err := w.Finish(resultstore.StatusDone, nil, nil); err != nil {
		tb.Fatal(err)
	}
	if journal {
		if err := s.AppendJournal(resultstore.JournalEntry{Job: id, State: resultstore.JournalDone, TimeMS: 2}); err != nil {
			tb.Fatal(err)
		}
	}
	return records
}

// BenchmarkPipelineDurability compares persisted-campaign throughput
// with and without the write-ahead job journal.
func BenchmarkPipelineDurability(b *testing.B) {
	for _, journal := range []bool{false, true} {
		name := "store-nojournal"
		if journal {
			name = "store-journal"
		}
		b.Run(name, func(b *testing.B) {
			s, err := resultstore.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			records := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				records = benchStoreCampaign(b, s, fmt.Sprintf("camp-%d", i), journal)
			}
			b.ReportMetric(float64(records*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// loadGoldenRecords reads one golden campaign record fixture.
func loadGoldenRecords(tb testing.TB, name string) []analysis.Record {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
	if err != nil {
		tb.Fatalf("golden fixture: %v", err)
	}
	var recs []analysis.Record
	if err := json.Unmarshal(data, &recs); err != nil {
		tb.Fatal(err)
	}
	return recs
}

// BenchmarkAggregatorAdd measures the online aggregator's per-record
// cost over the mixed runtime campaign's records (the richest shape:
// injections, failures, log classification).
func BenchmarkAggregatorAdd(b *testing.B) {
	recs := loadGoldenRecords(b, "campaign-r")
	cfg := kvclient.AnalysisConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := analysis.NewAggregator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range recs {
			agg.Add(rec)
		}
		if agg.Report().Total != len(recs) {
			b.Fatal("bad aggregate")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}

// pipelineBenchResult is one row of BENCH_pipeline.json.
type pipelineBenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	RecordsPerS float64 `json:"recordsPerSec,omitempty"`
	NsPerRecord float64 `json:"nsPerRecord,omitempty"`
}

// TestEmitPipelineBenchJSON measures record throughput through the
// executor and the store, and the aggregator's per-record cost, writing the results
// to the path in PROFIPY_BENCH_PIPELINE_JSON (skipped otherwise).
// `make bench-pipeline` and the CI bench job run it and archive the
// artifact next to BENCH_exec.json.
func TestEmitPipelineBenchJSON(t *testing.T) {
	path := os.Getenv("PROFIPY_BENCH_PIPELINE_JSON")
	if path == "" {
		t.Skip("set PROFIPY_BENCH_PIPELINE_JSON=<path> to emit the pipeline benchmark artifact")
	}

	var rows []pipelineBenchResult
	for _, eng := range pipelineEngines {
		records := 0
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				records = benchPipelineCampaign(b, eng.reg)
			}
		})
		row := pipelineBenchResult{
			Name:        "campaign-records/" + eng.name,
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		}
		if br.NsPerOp() > 0 {
			row.RecordsPerS = float64(records) * 1e9 / float64(br.NsPerOp())
		}
		rows = append(rows, row)
	}

	// Durability A/B: the same persisted campaign with and without the
	// write-ahead job journal, so the bench artifact carries the cost of
	// crash consistency as its own comparable pair of rows.
	campSeq := 0
	for _, journal := range []bool{false, true} {
		name := "store-nojournal"
		if journal {
			name = "store-journal"
		}
		s, err := resultstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		records := 0
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				records = benchStoreCampaign(b, s, fmt.Sprintf("camp-%d", campSeq), journal)
				campSeq++
			}
		})
		_ = s.Close()
		row := pipelineBenchResult{
			Name:        "campaign-records/" + name,
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		}
		if br.NsPerOp() > 0 {
			row.RecordsPerS = float64(records) * 1e9 / float64(br.NsPerOp())
		}
		rows = append(rows, row)
	}

	recs := loadGoldenRecords(t, "campaign-r")
	cfg := kvclient.AnalysisConfig()
	br := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			agg, err := analysis.NewAggregator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, rec := range recs {
				agg.Add(rec)
			}
			if agg.Report().Total != len(recs) {
				b.Fatal("bad aggregate")
			}
		}
	})
	aggRow := pipelineBenchResult{
		Name:        "aggregator-add",
		NsPerOp:     float64(br.NsPerOp()),
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
	}
	if len(recs) > 0 {
		aggRow.NsPerRecord = float64(br.NsPerOp()) / float64(len(recs))
	}
	rows = append(rows, aggRow)

	out := struct {
		Benchmarks []pipelineBenchResult `json:"benchmarks"`
	}{Benchmarks: rows}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %s", path, data)
}

// TestCampaignMemoryFootprintNote is documentation-in-code for the
// O(workers) claim: with DiscardRecords the campaign result carries no
// record slice however many experiments ran.
func TestCampaignMemoryFootprintNote(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
	c := kvclient.CampaignA(rt, 101)
	c.DiscardRecords = true
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != nil {
		t.Fatalf("DiscardRecords kept %d records", len(res.Records))
	}
	if res.Report == nil || res.Report.Total == 0 {
		t.Fatal("report must still aggregate online")
	}
	_ = fmt.Sprintf("%d", res.Report.Total)
}

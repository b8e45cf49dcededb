package analysis

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// goldenRecordSets loads the §V campaign record fixtures (A, B, C and
// the mixed runtime campaign R) recorded under testdata/golden/ at the
// repository root — real crash/timeout/log-pattern outcomes, runtime
// injector activations, uncovered stubs, the works.
func goldenRecordSets(t *testing.T) map[string][]Record {
	t.Helper()
	sets := map[string][]Record{}
	for _, name := range []string{"campaign-a", "campaign-b", "campaign-c", "campaign-r"} {
		path := filepath.Join("..", "..", "testdata", "golden", name+".json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("golden fixture %s: %v", path, err)
		}
		var recs []Record
		if err := json.Unmarshal(data, &recs); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
		if len(recs) == 0 {
			t.Fatalf("fixture %s is empty", path)
		}
		sets[name] = recs
	}
	return sets
}

// aggregatorConfigs covers the config space the equivalence must hold
// over: no classes, log-pattern classes, custom error patterns, and
// component maps driving the propagation metric and drill-downs.
func aggregatorConfigs() map[string]Config {
	return map[string]Config{
		"empty": {},
		"classes": {Classes: []FailureClass{
			{Name: "value-error", Pattern: "ValueError"},
			{Name: "conn", Pattern: "Connect.*Error"},
			{Name: "etcd-log", Pattern: "ERROR", Logs: []string{"etcd"}},
		}},
		"error-pattern": {ErrorPattern: "WARN|ERROR"},
		"components": {Components: map[string][]string{
			"client": {"client.py"},
			"lock":   {"lock.py", "auth.py"},
			"etcd":   {"workload.py"},
		}},
	}
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAggregatorMatchesBatchReport is the satellite property test:
// every golden record set, under every config, must produce the same
// report bytes through (a) the batch BuildReport, (b) a single
// aggregator fed sequentially, (c) one fed in shuffled orders: analysis
// is order-free by design.
func TestAggregatorMatchesBatchReport(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for setName, recs := range goldenRecordSets(t) {
		for cfgName, cfg := range aggregatorConfigs() {
			t.Run(setName+"/"+cfgName, func(t *testing.T) {
				want, err := BuildReport(recs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				wantJSON := reportJSON(t, want)

				// (b) sequential online aggregation.
				agg, err := NewAggregator(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range recs {
					agg.Add(rec)
				}
				if got := reportJSON(t, agg.Report()); string(got) != string(wantJSON) {
					t.Errorf("sequential aggregator drifted from batch report:\n got %s\nwant %s", got, wantJSON)
				}
				if agg.Count() != len(recs) {
					t.Errorf("Count = %d, want %d", agg.Count(), len(recs))
				}

				// (c) any feed order: records reach the sink in completion
				// order, which no two runs share.
				for round := 0; round < 4; round++ {
					shuffled := append([]Record(nil), recs...)
					rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
					agg, err := NewAggregator(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, rec := range shuffled {
						agg.Add(rec)
					}
					if got := reportJSON(t, agg.Report()); string(got) != string(wantJSON) {
						t.Errorf("shuffled feed %d drifted:\n got %s\nwant %s", round, got, wantJSON)
					}
				}
			})
		}
	}
}

// TestAggregatorReportSnapshotIsolation asserts Report returns a deep
// copy: mutating a snapshot or adding more records must not corrupt
// earlier snapshots.
func TestAggregatorReportSnapshotIsolation(t *testing.T) {
	recs := goldenRecordSets(t)["campaign-a"]
	agg, err := NewAggregator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:len(recs)/2] {
		agg.Add(rec)
	}
	mid := agg.Report()
	midJSON := reportJSON(t, mid)
	for _, rec := range recs[len(recs)/2:] {
		agg.Add(rec)
	}
	if got := reportJSON(t, mid); string(got) != string(midJSON) {
		t.Error("later Adds mutated an earlier snapshot")
	}
	for _, st := range mid.ByType {
		st.Total += 1000
	}
	full := agg.Report()
	want, err := BuildReport(recs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, full); string(got) != string(reportJSON(t, want)) {
		t.Error("snapshot mutation leaked back into the aggregator")
	}
}

// TestAggregatorRejectsBadConfig preserves BuildReport's error surface.
func TestAggregatorRejectsBadConfig(t *testing.T) {
	if _, err := NewAggregator(Config{Classes: []FailureClass{{Name: "bad", Pattern: "("}}}); err == nil {
		t.Error("bad class regex accepted")
	}
	if _, err := NewAggregator(Config{ErrorPattern: "("}); err == nil {
		t.Error("bad error pattern accepted")
	}
}

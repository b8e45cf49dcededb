package remote

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"profipy/internal/faultmodel"
	"profipy/internal/scanner"
)

func sampleSpec() CampaignSpec {
	pts := samplePoints()
	return CampaignSpec{
		Name:           "sample",
		Files:          map[string][]byte{"a.go": []byte("package main\n"), "w.go": {0xff, 0x00}},
		ScanFiles:      []string{"a.go"},
		Faultload:      []faultmodel.Spec{{Name: "omit", Type: "MFC", DSL: "change { $CALL{name=f}(...) } into { }"}},
		Entry:          "Workload",
		WorkloadFiles:  []string{"a.go", "w.go"},
		TimeoutNS:      240_000_000_000,
		MaxSteps:       20_000_000,
		WallBudgetNS:   5_000_000,
		Rounds:         3,
		EnvName:        "kvclient",
		ImageName:      "img",
		ImageMemMB:     256,
		ImageIOMBps:    10,
		Seed:           101,
		SampleN:        6,
		ReducePlan:     true,
		Covered:        map[string]bool{pts[0].ID(): true, pts[1].ID(): false},
		PlanHash:       PlanHash(pts),
		NumExperiments: len(pts),
	}
}

func samplePoints() []scanner.InjectionPoint {
	return []scanner.InjectionPoint{
		{Spec: "omit", File: "a.go", Func: "F", ListIndex: 0, Start: 1, N: 1, Line: 4, Snippet: "f()"},
		{Spec: "omit", File: "a.go", Func: "G", ListIndex: 2, Start: 0, N: 1, Line: 9, Snippet: "f()"},
	}
}

// TestCampaignSpecRoundTrip: what the control plane serializes is what
// the worker rebuilds its Runner from, field for field (file bytes
// included — JSON carries them as base64).
func TestCampaignSpecRoundTrip(t *testing.T) {
	want := sampleSpec()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got CampaignSpec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spec changed across the wire:\n got %+v\nwant %+v", got, want)
	}
}

// TestCampaignSpecIgnoresLegacyEngineKeys: a control plane from before
// the engine knobs were removed still ships "engine" and "treeWalk";
// a worker must decode such a spec to the same campaign.
func TestCampaignSpecIgnoresLegacyEngineKeys(t *testing.T) {
	want := sampleSpec()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["engine"] = json.RawMessage(`"closure"`)
	raw["treeWalk"] = json.RawMessage(`true`)
	legacy, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	var got CampaignSpec
	if err := json.Unmarshal(legacy, &got); err != nil {
		t.Fatalf("legacy spec does not decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("legacy keys leaked into the decoded spec:\n got %+v\nwant %+v", got, want)
	}
}

// TestPlanHashDependsOnPointOrder: shard leases name experiments by plan
// index, so two plans holding the same points in a different order must
// not share a hash.
func TestPlanHashDependsOnPointOrder(t *testing.T) {
	pts := samplePoints()
	swapped := []scanner.InjectionPoint{pts[1], pts[0]}
	if PlanHash(pts) == PlanHash(swapped) {
		t.Error("PlanHash ignores point order")
	}
	if PlanHash(pts) != PlanHash(samplePoints()) {
		t.Error("PlanHash is not a function of the points alone")
	}
	if PlanHash(pts) == PlanHash(pts[:1]) {
		t.Error("PlanHash ignores a dropped point")
	}
}

// TestRecordLineForkOutcome: the envelope carries the fork outcome
// beside the kind; a worker from before the field existed omits it and
// reads as ForkNone, and ForkNone is not written at all.
func TestRecordLineForkOutcome(t *testing.T) {
	line := RecordLine{Idx: 3, Kind: KindMutated, Fork: ForkHit}
	data, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var got RecordLine
	if err := json.Unmarshal(data, &got); err != nil || got.Fork != ForkHit || got.Kind != KindMutated || got.Idx != 3 {
		t.Errorf("round trip = %+v (%v), want idx 3, %s, %s", got, err, KindMutated, ForkHit)
	}
	var old RecordLine
	if err := json.Unmarshal([]byte(`{"idx":1,"kind":"injected","rec":{}}`), &old); err != nil || old.Fork != ForkNone {
		t.Errorf("envelope without a fork field = %+v (%v), want ForkNone", old, err)
	}
	if data, _ := json.Marshal(RecordLine{Idx: 1}); bytes.Contains(data, []byte("fork")) {
		t.Errorf("ForkNone written to the wire: %s", data)
	}
}

package plan

import (
	"bytes"
	"reflect"
	"testing"

	"profipy/internal/faultmodel"
	"profipy/internal/scanner"
)

const target = `package p

func A() {
	pre()
	DeleteX()
	post()
}

func B() {
	pre()
	DeleteY()
	post()
}
`

func buildTestPlan(t *testing.T) *Plan {
	t.Helper()
	specs := []faultmodel.Spec{
		{Name: "mfc", Type: "MFC", DSL: `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`},
		{Name: "calls", Type: "AllCalls", DSL: `
change {
	$CALL{name=p*}(...)
} into {
}`},
	}
	p, err := Build(map[string][]byte{"a.go": []byte(target)}, specs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// buildMixedPlan builds a plan over one compile-time and one runtime
// spec sharing the same target.
func buildMixedPlan(t *testing.T) *Plan {
	t.Helper()
	specs := []faultmodel.Spec{
		{Name: "mfc", Type: "MFC", DSL: `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`},
		{Name: "rt-flaky", Type: "RuntimeFlaky", DSL: `
change {
	$CALL{name=Delete*}(...)
} trigger {
	prob(0.5)
} action {
	raise(E, "m")
}`},
	}
	p, err := Build(map[string][]byte{"a.go": []byte(target)}, specs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// TestRuntimeSpecsEnumerated asserts that runtime trigger/action specs
// produce injection points through the same scan as compile-time ones,
// and that RuntimeFaults identifies them.
func TestRuntimeSpecsEnumerated(t *testing.T) {
	p := buildMixedPlan(t)
	byType := p.CountByType()
	if byType["MFC"] != 2 || byType["RuntimeFlaky"] != 2 {
		t.Fatalf("byType = %v, want 2 MFC + 2 RuntimeFlaky", byType)
	}
	rt, err := p.RuntimeFaults()
	if err != nil {
		t.Fatalf("RuntimeFaults: %v", err)
	}
	if len(rt) != 1 || rt["rt-flaky"] == nil {
		t.Fatalf("RuntimeFaults = %v, want rt-flaky only", rt)
	}
	if rt["rt-flaky"].Do.ExcType != "E" {
		t.Fatalf("runtime fault action = %+v", rt["rt-flaky"].Do)
	}
	runtimePoints := 0
	for _, pt := range p.Points {
		if _, ok := rt[pt.Spec]; ok {
			runtimePoints++
		}
	}
	if runtimePoints != 2 {
		t.Fatalf("runtime points = %d, want 2", runtimePoints)
	}
}

// TestRuntimePlanSurvivesSaveLoad asserts the new spec fields round-trip
// through the plan's JSON form.
func TestRuntimePlanSurvivesSaveLoad(t *testing.T) {
	p := buildMixedPlan(t)
	data, err := p.Save()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := p2.RuntimeFaults()
	if err != nil {
		t.Fatalf("RuntimeFaults after round-trip: %v", err)
	}
	if len(rt) != 1 {
		t.Fatalf("runtime specs lost in round-trip: %v", rt)
	}
}

func TestBuildAndCounts(t *testing.T) {
	p := buildTestPlan(t)
	// 2 MFC matches + 4 pre/post call matches.
	if p.Len() != 6 {
		t.Fatalf("points = %d, want 6", p.Len())
	}
	byType := p.CountByType()
	if byType["MFC"] != 2 || byType["AllCalls"] != 4 {
		t.Fatalf("byType = %v", byType)
	}
	if p.CountByFile()["a.go"] != 6 {
		t.Fatalf("byFile = %v", p.CountByFile())
	}
}

func TestFilters(t *testing.T) {
	p := buildTestPlan(t)
	if got := p.FilterType("MFC").Len(); got != 2 {
		t.Errorf("FilterType = %d, want 2", got)
	}
	if got := p.FilterFile("*.go").Len(); got != 6 {
		t.Errorf("FilterFile(*.go) = %d, want 6", got)
	}
	if got := p.FilterFile("b.*").Len(); got != 0 {
		t.Errorf("FilterFile(b.*) = %d, want 0", got)
	}
}

func TestSampleDeterministic(t *testing.T) {
	p := buildTestPlan(t)
	s1 := p.Sample(3, 42)
	s2 := p.Sample(3, 42)
	if s1.Len() != 3 || s2.Len() != 3 {
		t.Fatalf("sample sizes = %d, %d", s1.Len(), s2.Len())
	}
	for i := range s1.Points {
		if s1.Points[i].ID() != s2.Points[i].ID() {
			t.Fatal("sampling is not deterministic")
		}
	}
	// Sampling more than available returns everything.
	if got := p.Sample(100, 1).Len(); got != p.Len() {
		t.Errorf("oversample = %d, want %d", got, p.Len())
	}
}

func TestKeep(t *testing.T) {
	p := buildTestPlan(t)
	ids := map[string]bool{p.Points[0].ID(): true, p.Points[3].ID(): true}
	kept := p.Keep(ids)
	if kept.Len() != 2 {
		t.Fatalf("kept = %d, want 2", kept.Len())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	p := buildTestPlan(t)
	data, err := p.Save()
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	p2, err := Load(data)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if p2.Len() != p.Len() || len(p2.Specs) != len(p.Specs) {
		t.Fatal("round trip mismatch")
	}
	if _, err := Load([]byte("{bad")); err == nil {
		t.Error("Load of bad JSON should fail")
	}
}

func TestTypeOfFallsBackToSpecName(t *testing.T) {
	p := New(nil, []scanner.InjectionPoint{{Spec: "unknown-spec"}})
	if got := p.TypeOf(p.Points[0]); got != "unknown-spec" {
		t.Errorf("TypeOf = %q", got)
	}
}

// TestSpecLookupByName: the name index answers what the walk over Specs
// answered — first spec wins a repeated name, an unknown name is not
// found — for plans from New, from Load and assembled by hand, and it
// never reaches the saved bytes.
func TestSpecLookupByName(t *testing.T) {
	specs := []faultmodel.Spec{
		{Name: "a", Type: "First"},
		{Name: "b", Type: "B"},
		{Name: "a", Type: "Second"},
		{Name: "untyped"},
	}
	points := []scanner.InjectionPoint{{Spec: "a"}, {Spec: "b"}, {Spec: "untyped"}, {Spec: "gone"}}
	built := New(specs, points)
	data, err := built.Save()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := loaded.Save(); err != nil || string(again) != string(data) {
		t.Errorf("Load(Save(p)) saves to different bytes (err %v)", err)
	}
	if bytes.Contains(data, []byte("byName")) {
		t.Error("the name index leaked into the saved plan")
	}
	byHand := &Plan{Specs: specs, Points: points}
	for name, p := range map[string]*Plan{"New": built, "Load": loaded, "literal": byHand, "filtered": built.FilterType("*")} {
		if s, ok := p.Spec("a"); !ok || s.Type != "First" {
			t.Errorf("%s: Spec(a) = %+v, %v; want the first of the two", name, s, ok)
		}
		if _, ok := p.Spec("gone"); ok {
			t.Errorf("%s: Spec(gone) found", name)
		}
		want := map[string]int{"First": 1, "B": 1, "untyped": 1, "gone": 1}
		if got := p.CountByType(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: CountByType = %v, want %v", name, got, want)
		}
	}
}

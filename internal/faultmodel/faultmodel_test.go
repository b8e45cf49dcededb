package faultmodel

import (
	"strings"
	"testing"
)

func TestPredefinedModelsCompile(t *testing.T) {
	for _, m := range []*Model{GSWFIT(), Extras(), Runtime()} {
		if err := m.Validate(); err != nil {
			t.Errorf("model %s does not compile: %v", m.Name, err)
		}
	}
}

// TestRuntimeModelIsRuntime asserts every spec of the predefined
// runtime model compiles to a trigger/action fault.
func TestRuntimeModelIsRuntime(t *testing.T) {
	m := Runtime()
	_, faults, err := CompileSplit(m.Specs)
	if err != nil {
		t.Fatalf("CompileSplit: %v", err)
	}
	if len(faults) != len(m.Specs) {
		t.Fatalf("runtime model compiled to %d faults, want %d", len(faults), len(m.Specs))
	}
	for _, s := range m.Specs {
		if faults[s.Name] == nil {
			t.Fatalf("spec %s compiled to no runtime fault", s.Name)
		}
		if faults[s.Name].Name != s.Name {
			t.Errorf("fault name %q does not match spec %q", faults[s.Name].Name, s.Name)
		}
	}
}

// TestSpecTriggerActionFields covers the non-DSL spelling of runtime
// specs: Trigger/Action fields over a site-only change block.
func TestSpecTriggerActionFields(t *testing.T) {
	s := Spec{Name: "f", DSL: "change { $CALL{name=*}(...) }", Trigger: "every(2)", Action: "delay(5s)"}
	cs, err := s.CompileFull()
	if err != nil {
		t.Fatalf("CompileFull: %v", err)
	}
	if cs.Runtime == nil || cs.Runtime.When.K != 2 || cs.Runtime.Do.DelayNS != 5_000_000_000 {
		t.Fatalf("compiled fault = %+v", cs.Runtime)
	}
	// Action without trigger defaults to always.
	s2 := Spec{Name: "g", DSL: "change { f() }", Action: "corrupt(null)"}
	cs2, err := s2.CompileFull()
	if err != nil {
		t.Fatalf("CompileFull: %v", err)
	}
	if cs2.Runtime == nil || cs2.Runtime.When.Mode != "always" {
		t.Fatalf("default trigger = %+v", cs2.Runtime)
	}
	// Invalid combinations.
	for name, bad := range map[string]Spec{
		"fields and clauses": {Name: "b1", DSL: "change { f() } trigger { always } action { raise(E) }", Action: "corrupt(null)"},
		"trigger only":       {Name: "b2", DSL: "change { f() }", Trigger: "always"},
		"site-only bare":     {Name: "b3", DSL: "change { f() }"},
		"bad trigger field":  {Name: "b4", DSL: "change { f() }", Trigger: "sometimes", Action: "corrupt(null)"},
		"bad action field":   {Name: "b5", DSL: "change { f() }", Action: "explode"},
		// Fields over a change{}into{} spec would silently discard the
		// written mutation, so they are rejected.
		"fields with into": {Name: "b6", DSL: "change { f() } into { g() }", Action: "delay(5s)"},
	} {
		if _, err := bad.CompileFull(); err == nil {
			t.Errorf("%s: CompileFull should fail", name)
		}
	}
	// Compile (the compile-time entry point) rejects runtime specs.
	if _, err := s.Compile(); err == nil {
		t.Error("Compile should reject a runtime spec")
	}
}

func TestGSWFITHasCoreFaultTypes(t *testing.T) {
	m := GSWFIT()
	want := []string{"MFC", "MIFS", "MIA", "MIEB", "MLAC", "MLOC", "WVAV", "MVIV", "WPFV", "WAEP"}
	have := map[string]bool{}
	for _, s := range m.Specs {
		have[s.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("G-SWFIT model missing fault type %s", name)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := GSWFIT()
	data, err := m.Save()
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	m2, err := Load(data)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if m2.Name != m.Name || len(m2.Specs) != len(m.Specs) {
		t.Fatalf("round trip mismatch: %s/%d vs %s/%d", m2.Name, len(m2.Specs), m.Name, len(m.Specs))
	}
}

func TestLoadRejectsBadModels(t *testing.T) {
	tests := []struct {
		name string
		data string
	}{
		{"bad json", `{not json`},
		{"no name", `{"specs":[]}`},
		{"bad spec", `{"name":"x","specs":[{"name":"s","dsl":"change { $BOGUS } into { }"}]}`},
	}
	for _, tc := range tests {
		if _, err := Load([]byte(tc.data)); err == nil {
			t.Errorf("%s: Load should fail", tc.name)
		}
	}
}

func TestCompileAllRejectsDuplicatesAndEmpty(t *testing.T) {
	specs := []Spec{
		{Name: "a", DSL: "change { f() } into { }"},
		{Name: "a", DSL: "change { g() } into { }"},
	}
	if _, err := CompileAll(specs); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("err = %v, want duplicate error", err)
	}
	if _, err := CompileAll([]Spec{{Name: "", DSL: "change { f() } into { }"}}); err == nil {
		t.Error("empty name should fail")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	names := r.Names()
	if len(names) < 2 {
		t.Fatalf("registry names = %v, want gswfit and extras", names)
	}
	if _, ok := r.Get("gswfit"); !ok {
		t.Error("gswfit not registered")
	}
	if _, ok := r.Get("nope"); ok {
		t.Error("unexpected model")
	}
	r.Register(&Model{Name: "custom", Specs: nil})
	if _, ok := r.Get("custom"); !ok {
		t.Error("custom model not registered")
	}
}

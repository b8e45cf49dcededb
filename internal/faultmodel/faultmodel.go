// Package faultmodel manages bug specifications and fault models: named
// collections of DSL specs that can be saved and imported as JSON (§IV-A),
// plus the predefined fault models derived from previous fault injection
// studies (G-SWFIT [14] and the exception/resource fault types of §III).
package faultmodel

import (
	"encoding/json"
	"fmt"
	"sort"

	"profipy/internal/dsl"
	"profipy/internal/pattern"
	"profipy/internal/runtimefault"
)

// Spec is one bug specification: a named DSL text with a fault-type
// label used to group experiments in reports. A compile-time spec is
// the paper's `change{}into{}` mutation; a runtime spec pairs the
// `change{}` site pattern with a trigger/action clause and injects
// while the program runs instead of mutating source. The trigger and
// action can be written either as DSL clauses (`change{} trigger{}
// action{}`) or through the Trigger/Action fields — the faultload
// fields the SaaS API and CLI expose — but not both.
type Spec struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Doc  string `json:"doc,omitempty"`
	DSL  string `json:"dsl"`
	// Trigger and Action turn the spec into a runtime fault without DSL
	// clauses: Trigger is e.g. "always", "prob(0.25)", "every(3)",
	// "after(5)" or "round(2)" (empty with a non-empty Action defaults
	// to "always"); Action is e.g. "raise(IOError, \"msg\")",
	// "corrupt(bitflip|offbyone|null)" or "delay(500ms)".
	Trigger string `json:"trigger,omitempty"`
	Action  string `json:"action,omitempty"`
}

// Compile compiles the spec's DSL into a meta-model.
func (s Spec) Compile() (*pattern.MetaModel, error) {
	if s.Trigger != "" || s.Action != "" {
		return nil, fmt.Errorf("faultmodel: spec %q: runtime trigger/action spec where a compile-time spec is required", s.Name)
	}
	return dsl.Compile(s.Name, s.DSL)
}

// CompileFull compiles the spec into its full form, resolving the
// trigger/action fields against any DSL clauses (the two sources are
// mutually exclusive).
func (s Spec) CompileFull() (*dsl.CompiledSpec, error) {
	cs, err := dsl.CompileFull(s.Name, s.DSL)
	if err != nil {
		return nil, err
	}
	if s.Trigger == "" && s.Action == "" {
		if cs.SiteOnly {
			return nil, fmt.Errorf("faultmodel: spec %q: site-only change block needs trigger/action fields or DSL blocks", s.Name)
		}
		return cs, nil
	}
	if cs.Runtime != nil {
		return nil, fmt.Errorf("faultmodel: spec %q: trigger/action given both as DSL clauses and as spec fields", s.Name)
	}
	if !cs.SiteOnly {
		// The spec wrote an into{} replacement AND trigger/action
		// fields; honoring the fields would silently discard the
		// mutation the user wrote.
		return nil, fmt.Errorf("faultmodel: spec %q: trigger/action fields require a site-only change block, not change{}into{}", s.Name)
	}
	if s.Action == "" {
		return nil, fmt.Errorf("faultmodel: spec %q: trigger field without an action field", s.Name)
	}
	rf, err := runtimefault.NewFault(s.Name, s.Trigger, s.Action)
	if err != nil {
		return nil, fmt.Errorf("faultmodel: spec %q: %w", s.Name, err)
	}
	cs.Runtime = rf
	return cs, nil
}

// CompileSplit compiles a faultload in one pass, failing on the first
// bad spec, and splits it into its execution forms: the site
// meta-models of every spec in faultload order (what the scanner
// matches — compile-time specs carry their replacement, runtime specs
// scan-only) and the runtime injector faults keyed by spec name (site
// selectors empty: campaigns bind them per injection point).
func CompileSplit(specs []Spec) ([]*pattern.MetaModel, map[string]*runtimefault.Fault, error) {
	models := make([]*pattern.MetaModel, 0, len(specs))
	runtime := make(map[string]*runtimefault.Fault)
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if s.Name == "" {
			return nil, nil, fmt.Errorf("faultmodel: spec with empty name")
		}
		if seen[s.Name] {
			return nil, nil, fmt.Errorf("faultmodel: duplicate spec name %q", s.Name)
		}
		seen[s.Name] = true
		cs, err := s.CompileFull()
		if err != nil {
			return nil, nil, err
		}
		models = append(models, cs.Model)
		if cs.Runtime != nil {
			runtime[s.Name] = cs.Runtime
		}
	}
	return models, runtime, nil
}

// CompileAll compiles a faultload, returning the scanner-facing site
// meta-models (see CompileSplit).
func CompileAll(specs []Spec) ([]*pattern.MetaModel, error) {
	models, _, err := CompileSplit(specs)
	return models, err
}

// Model is a named fault model: a set of specs with documentation.
type Model struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Specs       []Spec `json:"specs"`
}

// Validate compiles every spec in the model.
func (m *Model) Validate() error {
	_, err := CompileAll(m.Specs)
	return err
}

// Load parses a model from JSON and validates it.
func Load(data []byte) (*Model, error) {
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("faultmodel: parse model: %w", err)
	}
	if m.Name == "" {
		return nil, fmt.Errorf("faultmodel: model has no name")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Registry holds named fault models.
type Registry struct {
	models map[string]*Model
}

// NewRegistry creates a registry preloaded with the predefined models.
func NewRegistry() *Registry {
	r := &Registry{models: make(map[string]*Model)}
	r.Register(GSWFIT())
	r.Register(Extras())
	r.Register(Runtime())
	return r
}

// Register adds or replaces a model.
func (r *Registry) Register(m *Model) { r.models[m.Name] = m }

// Get looks a model up by name.
func (r *Registry) Get(name string) (*Model, bool) {
	m, ok := r.models[name]
	return m, ok
}

// Names lists registered model names, sorted.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.models))
	for n := range r.models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

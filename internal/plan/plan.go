// Package plan implements the fault injection plan of §IV-A: the set of
// experiments selected from the scanned injection points, with the
// filtering and sampling operations the Scan phase offers (per-component
// selection, random sampling with a bound on experiments, or everything).
package plan

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"profipy/internal/faultmodel"
	"profipy/internal/pattern"
	"profipy/internal/runtimefault"
	"profipy/internal/scanner"
)

// Plan is a fault injection plan: each injection point is one experiment.
type Plan struct {
	Specs  []faultmodel.Spec        `json:"specs"`
	Points []scanner.InjectionPoint `json:"points"`

	// byName maps a spec name to its index in Specs (the first, when a
	// name repeats). TypeOf sits on per-record paths, so New and Load
	// build it once; it is not part of the saved plan.
	byName map[string]int
}

// New builds a plan from a faultload and the points its scan produced.
func New(specs []faultmodel.Spec, points []scanner.InjectionPoint) *Plan {
	p := &Plan{
		Specs:  append([]faultmodel.Spec(nil), specs...),
		Points: append([]scanner.InjectionPoint(nil), points...),
	}
	p.indexSpecs()
	return p
}

func (p *Plan) indexSpecs() {
	p.byName = make(map[string]int, len(p.Specs))
	for i, s := range p.Specs {
		if _, dup := p.byName[s.Name]; !dup {
			p.byName[s.Name] = i
		}
	}
}

// Len returns the number of experiments.
func (p *Plan) Len() int { return len(p.Points) }

// Spec returns the spec for a point, by name.
func (p *Plan) Spec(name string) (faultmodel.Spec, bool) {
	if p.byName != nil {
		i, ok := p.byName[name]
		if !ok {
			return faultmodel.Spec{}, false
		}
		return p.Specs[i], true
	}
	// A Plan assembled field by field has no index.
	for _, s := range p.Specs {
		if s.Name == name {
			return s, true
		}
	}
	return faultmodel.Spec{}, false
}

// TypeOf returns the fault-type label of a point.
func (p *Plan) TypeOf(pt scanner.InjectionPoint) string {
	if s, ok := p.Spec(pt.Spec); ok && s.Type != "" {
		return s.Type
	}
	return pt.Spec
}

// FilterFile keeps only points in files matching the glob (per-component
// selection).
func (p *Plan) FilterFile(glob string) *Plan {
	out := New(p.Specs, nil)
	for _, pt := range p.Points {
		if pattern.GlobAny(glob, pt.File) {
			out.Points = append(out.Points, pt)
		}
	}
	return out
}

// FilterType keeps only points whose fault type matches the glob.
func (p *Plan) FilterType(glob string) *Plan {
	out := New(p.Specs, nil)
	for _, pt := range p.Points {
		if pattern.GlobAny(glob, p.TypeOf(pt)) {
			out.Points = append(out.Points, pt)
		}
	}
	return out
}

// Keep retains only points whose ID is in the given set (the reduced
// plan produced by coverage analysis).
func (p *Plan) Keep(ids map[string]bool) *Plan {
	out := New(p.Specs, nil)
	for _, pt := range p.Points {
		if ids[pt.ID()] {
			out.Points = append(out.Points, pt)
		}
	}
	return out
}

// Sample selects up to n random points (deterministic for a fixed seed),
// enforcing a bound on the number of experiments.
func (p *Plan) Sample(n int, seed int64) *Plan {
	out := New(p.Specs, nil)
	if n >= len(p.Points) {
		out.Points = append(out.Points, p.Points...)
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(p.Points))[:n]
	// Keep plan order stable: sort selected indices.
	sort.Ints(perm)
	for _, idx := range perm {
		out.Points = append(out.Points, p.Points[idx])
	}
	return out
}

// RuntimeFaults compiles the plan's runtime trigger/action specs into
// injector faults keyed by spec name; compile-time specs are skipped.
// An empty map means the plan is purely compile-time mutation. (The
// campaign engine partitions its faultload directly via
// faultmodel.CompileSplit; this is the introspection form for plan
// consumers.)
func (p *Plan) RuntimeFaults() (map[string]*runtimefault.Fault, error) {
	return faultmodel.CompileRuntime(p.Specs)
}

// CountByType returns experiments per fault type.
func (p *Plan) CountByType() map[string]int {
	out := make(map[string]int)
	for _, pt := range p.Points {
		out[p.TypeOf(pt)]++
	}
	return out
}

// CountByFile returns experiments per target file.
func (p *Plan) CountByFile() map[string]int {
	out := make(map[string]int)
	for _, pt := range p.Points {
		out[pt.File]++
	}
	return out
}

// Save serializes the plan to JSON.
func (p *Plan) Save() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// Load parses a plan from JSON.
func Load(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("plan: parse: %w", err)
	}
	p.indexSpecs()
	return &p, nil
}

// Build scans a project with a faultload and returns the full plan.
func Build(files map[string][]byte, specs []faultmodel.Spec) (*Plan, error) {
	return BuildFromCache(scanner.NewProjectCache(files), specs)
}

// BuildFromCache builds a plan against a per-campaign parse cache, so the
// parses produced by the scan survive for the coverage and mutation
// phases. The scan runs with one worker per available CPU; the plan is
// deterministic regardless.
func BuildFromCache(cache *scanner.ProjectCache, specs []faultmodel.Spec) (*Plan, error) {
	models, err := faultmodel.CompileAll(specs)
	if err != nil {
		return nil, err
	}
	points, err := scanner.ScanCache(cache, models, 0)
	if err != nil {
		return nil, err
	}
	return New(specs, points), nil
}

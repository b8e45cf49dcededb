// Package plan implements the fault injection plan of §IV-A: the set of
// experiments selected from the scanned injection points, with the
// filtering and sampling operations the Scan phase offers (per-component
// selection, random sampling with a bound on experiments, or everything).
package plan

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strconv"

	"profipy/internal/faultmodel"
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

// CountByType returns experiments per fault type.
func (p *Plan) CountByType() map[string]int {
	out := make(map[string]int)
	for _, pt := range p.Points {
		out[p.TypeOf(pt)]++
	}
	return out
}

// Save serializes the plan to JSON: the bytes of json.MarshalIndent(p, "",
// "  "), written in one pass into one buffer. A plan is mostly points, and
// a point's layout is fixed, so points are encoded here; the specs (few,
// with omitempty fields) go through encoding/json.
func (p *Plan) Save() ([]byte, error) {
	specs, err := json.MarshalIndent(p.Specs, "  ", "  ")
	if err != nil {
		return nil, err
	}
	size := len(specs) + 32
	for i := range p.Points {
		pt := &p.Points[i]
		// 192 covers a point's keys, indentation and four integers; a
		// string that needs escapes may still grow the buffer.
		size += 192 + len(pt.Spec) + len(pt.File) + len(pt.Func) + len(pt.Snippet)
	}
	b := append(make([]byte, 0, size), "{\n  \"specs\": "...)
	b = append(append(b, specs...), ",\n  \"points\": "...)
	switch {
	case p.Points == nil:
		b = append(b, "null"...)
	case len(p.Points) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range p.Points {
			pt := &p.Points[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(append(b, "\n    {\n      \"spec\": "...), pt.Spec)
			b = appendString(append(b, ",\n      \"file\": "...), pt.File)
			b = appendString(append(b, ",\n      \"func\": "...), pt.Func)
			b = strconv.AppendInt(append(b, ",\n      \"listIndex\": "...), int64(pt.ListIndex), 10)
			b = strconv.AppendInt(append(b, ",\n      \"start\": "...), int64(pt.Start), 10)
			b = strconv.AppendInt(append(b, ",\n      \"n\": "...), int64(pt.N), 10)
			b = strconv.AppendInt(append(b, ",\n      \"line\": "...), int64(pt.Line), 10)
			b = appendString(append(b, ",\n      \"snippet\": "...), pt.Snippet)
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}"...), nil
}

// appendString appends s as a JSON string. Printable ASCII other than the
// quote, the backslash and the HTML characters needs no escape; anything
// else goes to encoding/json, which owns the escaping rules (HTML,
// U+2028/U+2029, invalid UTF-8).
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// Build scans a project with a faultload and returns the full plan. The
// scan keeps no parse (scanner.ScanProject): a one-shot plan needs none.
func Build(files map[string][]byte, specs []faultmodel.Spec) (*Plan, error) {
	models, err := faultmodel.CompileAll(specs)
	if err != nil {
		return nil, err
	}
	points, err := scanner.ScanProject(files, models)
	if err != nil {
		return nil, err
	}
	return New(specs, points), nil
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

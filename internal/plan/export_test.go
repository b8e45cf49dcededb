package plan

import (
	"encoding/json"
	"fmt"

	"profipy/internal/pattern"
)

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

// CountByFile returns experiments per target file.
func (p *Plan) CountByFile() map[string]int {
	out := make(map[string]int)
	for _, pt := range p.Points {
		out[pt.File]++
	}
	return out
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

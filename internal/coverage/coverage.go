// Package coverage implements the coverage analysis of §IV-D: before
// running experiments, a single fault-free execution of the workload runs
// against an instrumented copy of the target (a logging hook at every
// injection point). Points the workload never reaches are pruned from the
// plan, since injecting there cannot have any effect.
package coverage

import (
	"fmt"

	"profipy/internal/mutator"
	"profipy/internal/sandbox"
	"profipy/internal/scanner"
	"profipy/internal/workload"
)

// AnalyzeCached performs the fault-free instrumented run and returns the
// set of covered injection-point IDs. It works against the campaign's
// parse cache and compiled base program (cfg.Program): files with
// injection points are instrumented from their cached parse, the
// container image layers the instrumented copies over the untouched base
// file set, and the instrumented units are recompiled into a derived
// program whose unchanged units stay shared with the base.
func AnalyzeCached(rt *sandbox.Runtime, img sandbox.Image, files map[string][]byte,
	cache *scanner.ProjectCache, points []scanner.InjectionPoint, cfg workload.Config) (map[string]bool, error) {

	// Group points per file and instrument each file once.
	byFile := map[string][]scanner.InjectionPoint{}
	for _, p := range points {
		byFile[p.File] = append(byFile[p.File], p)
	}
	instrumented := make(map[string][]byte, len(byFile))
	for name, pts := range byFile {
		pf, err := cache.Get(name)
		if err != nil {
			return nil, fmt.Errorf("coverage: instrument %s: %w", name, err)
		}
		out, err := mutator.InstrumentParsed(pf, pts)
		if err != nil {
			return nil, fmt.Errorf("coverage: instrument %s: %w", name, err)
		}
		instrumented[name] = out
	}

	covImg := img
	covImg.Name = img.Name + "-coverage"
	covImg.Files = files
	covImg.Overlay = instrumented
	c := rt.CreateSeeded(covImg, 0)
	defer func() { _ = rt.Destroy(c) }()

	// One fault-free round: the trigger stays off.
	covCfg := cfg
	covCfg.Rounds = 1
	covCfg.FaultFree = true
	var err error
	if covCfg.Program, err = cfg.Program.WithFiles(instrumented); err != nil {
		return nil, fmt.Errorf("coverage: compile instrumented: %w", err)
	}
	res, err := workload.Run(c, covCfg)
	if err != nil {
		return nil, fmt.Errorf("coverage: fault-free run: %w", err)
	}
	if !res.Round1().OK {
		return nil, fmt.Errorf("coverage: fault-free run failed: %s", res.Round1().Message)
	}

	covered := make(map[string]bool)
	for _, id := range c.Covered() {
		covered[id] = true
	}
	return covered, nil
}

// Reduce filters points down to the covered ones (the reduced fault
// injection plan).
func Reduce(points []scanner.InjectionPoint, covered map[string]bool) []scanner.InjectionPoint {
	out := make([]scanner.InjectionPoint, 0, len(points))
	for _, p := range points {
		if covered[p.ID()] {
			out = append(out, p)
		}
	}
	return out
}

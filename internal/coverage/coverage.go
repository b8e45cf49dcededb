// Package coverage implements the coverage analysis of §IV-D: a point is
// covered when one fault-free run of the base program (the campaign's
// prefix build; statements report their own reach) ran its first
// statement. Uncovered points can be pruned: injecting there does nothing.
package coverage

import (
	"fmt"

	"profipy/internal/sandbox"
	"profipy/internal/scanner"
	"profipy/internal/workload"
)

// Run is a campaign's one fault-free pass in c, a base-image container
// the caller destroys: workload.BuildPrefixes for sites. It returns the
// covered point IDs and the prefix set, and fails unless the round is OK.
func Run(c *sandbox.Container, cache *scanner.ProjectCache, points []scanner.InjectionPoint,
	sites []string, cfg workload.Config) (map[string]bool, *workload.PrefixSet, error) {

	ps, err := workload.BuildPrefixes(c, cfg, sites)
	if err != nil {
		return nil, nil, fmt.Errorf("coverage: fault-free run: %w", err)
	}
	if rr, err := ps.Round(); err != nil {
		return nil, nil, fmt.Errorf("coverage: fault-free run: %w", err)
	} else if !rr.OK {
		return nil, nil, fmt.Errorf("coverage: fault-free run failed: %s", rr.Message)
	}
	covered := make(map[string]bool)
	for _, p := range points {
		pf, err := cache.Get(p.File)
		if err != nil {
			return nil, nil, fmt.Errorf("coverage: %s: %w", p.ID(), err)
		}
		if p.ListIndex < 0 || p.ListIndex >= len(pf.Lists) || p.Start < 0 || p.Start >= len(*pf.Lists[p.ListIndex].Ptr) {
			return nil, nil, fmt.Errorf("coverage: stale injection point %s", p.ID())
		}
		stmt := (*pf.Lists[p.ListIndex].Ptr)[p.Start]
		if ps.Reached(p.File, pf.Offset(stmt.Pos())) {
			covered[p.ID()] = true
		}
	}
	return covered, ps, nil
}

// AnalyzeCached is Run without snapshots in a fresh base-image container
// seeded 0; cfg.Program must be the compiled base program.
func AnalyzeCached(rt *sandbox.Runtime, img sandbox.Image, files map[string][]byte,
	cache *scanner.ProjectCache, points []scanner.InjectionPoint, cfg workload.Config) (map[string]bool, error) {

	img.Files, img.Overlay = files, nil
	c := rt.CreateSeeded(img, 0)
	defer func() { _ = rt.Destroy(c) }()
	covered, _, err := Run(c, cache, points, nil, cfg)
	return covered, err
}

// Sites lists the distinct site functions of points, in plan order.
func Sites(points []scanner.InjectionPoint) []string {
	seen := make(map[string]bool)
	var sites []string
	for _, pt := range points {
		if pt.Func != "" && !seen[pt.Func] {
			seen[pt.Func] = true
			sites = append(sites, pt.Func)
		}
	}
	return sites
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

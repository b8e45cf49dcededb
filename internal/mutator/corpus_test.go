package mutator

import (
	"testing"

	"profipy/internal/faultmodel"
	"profipy/internal/genproject"
	"profipy/internal/pattern"
	"profipy/internal/scanner"
)

// TestScanPointsRematchInMutate: the scan unifies without a binding
// trail, the mutator with one, through the same routine — so every point
// the scan of the §V-D corpus reports must re-match in Mutate with the
// same window and hand the expander a binding for each tag the
// replacement uses (Mutate fails on an unbound one).
func TestScanPointsRematchInMutate(t *testing.T) {
	files := genproject.Generate(genproject.DefaultConfig(40_000, 1))
	specs := genproject.Patterns(120)
	models, err := faultmodel.CompileAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*pattern.MetaModel{}
	for _, mm := range models {
		byName[mm.Name] = mm
	}
	cache := scanner.NewProjectCache(files)
	points, err := scanner.ScanCache(cache, models, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	for _, pt := range points {
		pf, err := cache.Get(pt.File)
		if err != nil {
			t.Fatal(err)
		}
		mm := byName[pt.Spec]
		m, err := Mutate(pf, mm, pt, Options{Triggered: true})
		if err != nil {
			t.Fatalf("%s: %v", pt.ID(), err)
		}
		if m.n != pt.N {
			t.Fatalf("%s: mutate matched %d statements, scan %d", pt.ID(), m.n, pt.N)
		}
		_, bindings, _ := mm.MatchPrefix(*pf.Lists[pt.ListIndex].Ptr, pt.Start)
		for _, d := range mm.Holes {
			if _, bound := bindings[d.Tag]; d.Tag != "" && !bound {
				t.Fatalf("%s: tag %q unbound in %v", pt.ID(), d.Tag, bindings)
			}
		}
	}
}

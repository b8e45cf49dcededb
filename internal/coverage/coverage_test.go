package coverage

import (
	"testing"

	"profipy/internal/faultmodel"
	"profipy/internal/interp"
	"profipy/internal/plan"
	"profipy/internal/sandbox"
	"profipy/internal/scanner"
	"profipy/internal/workload"
)

// Target with one covered and one uncovered function.
const target = `package main

func used() any {
	a()
	b()
	return nil
}

func unused() any {
	a()
	b()
	return nil
}

func Workload() any {
	used()
	return "ok"
}`

func nop(*interp.Interp, []interp.Value) (interp.Value, error) { return nil, nil }

var testHost = interp.NewHostEnv().Func("a", nop).Func("b", nop)

func testEnv(it *interp.Interp, c *sandbox.Container) {
	sandbox.InstallHooks(it, c)
	it.Install(testHost)
}

// analyze compiles the base program the way a campaign does and runs
// the coverage pass over it.
func analyze(t *testing.T, rt *sandbox.Runtime, files map[string][]byte,
	points []scanner.InjectionPoint, cfg workload.Config) (map[string]bool, error) {
	t.Helper()
	units := make([]interp.SourceUnit, 0, len(cfg.Files))
	for _, name := range cfg.Files {
		units = append(units, interp.SourceUnit{Name: name, Src: files[name]})
	}
	prog, err := interp.CompileProgram(units)
	if err != nil {
		t.Fatalf("CompileProgram: %v", err)
	}
	cfg.Program = prog
	return AnalyzeCached(rt, sandbox.Image{Name: "t"}, files, scanner.NewProjectCache(files), points, cfg)
}

func TestAnalyzeFindsCoveredPoints(t *testing.T) {
	files := map[string][]byte{"t.go": []byte(target)}
	specs := []faultmodel.Spec{{Name: "calls", Type: "C", DSL: `
change {
	$CALL{name=a,b}(...)
} into {
}`}}
	pl, err := plan.Build(files, specs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if pl.Len() != 4 {
		t.Fatalf("points = %d, want 4", pl.Len())
	}

	rt := sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 2})
	cfg := workload.Config{Entry: "Workload", Files: []string{"t.go"}, Env: testEnv}
	covered, err := analyze(t, rt, files, pl.Points, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	reduced := Reduce(pl.Points, covered)
	if len(reduced) != 2 {
		t.Fatalf("reduced = %d points, want 2 (only the used() body)", len(reduced))
	}
	for _, p := range reduced {
		if p.Func != "used" {
			t.Errorf("covered point in %s, want used", p.Func)
		}
	}
	// The coverage container must be torn down.
	if rt.Stats().Active != 0 {
		t.Error("coverage container leaked")
	}
}

func TestAnalyzeFailsWhenWorkloadBroken(t *testing.T) {
	files := map[string][]byte{"t.go": []byte(`package main

func Workload() any {
	panic(__exc("Boom", "broken workload"))
}`)}
	rt := sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 2})
	cfg := workload.Config{Entry: "Workload", Files: []string{"t.go"},
		Env: func(it *interp.Interp, c *sandbox.Container) { sandbox.InstallHooks(it, c) }}
	if _, err := analyze(t, rt, files, nil, cfg); err == nil {
		t.Error("Analyze should fail when the fault-free run fails")
	}
}

package workload_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"profipy/internal/interp"
	"profipy/internal/sandbox"
	"profipy/internal/workload"
)

func plainEnv(it *interp.Interp, c *sandbox.Container) { sandbox.InstallHooks(it, c) }

// paddedEntry generates an entry function whose fault site is first
// reached from the boundary that follows pad top-level statements: the
// knob the boundary test turns to put that boundary one statement
// before or after the fork threshold.
func paddedEntry(pad int) []byte {
	var sb strings.Builder
	sb.WriteString("package main\n\nfunc site(x any) any { println(\"site\", x); return x }\n\nfunc Workload() any {\n\tx := 0\n")
	for i := 0; i < pad; i++ {
		sb.WriteString("\tx = x + 1\n")
	}
	sb.WriteString("\tx = site(x)\n\tprintln(\"done\", x)\n\treturn x\n}\n")
	return []byte(sb.String())
}

// compiled deploys one generated source and returns the runtime, the
// image and a config holding its compiled program.
func compiled(t *testing.T, src []byte) (*sandbox.Runtime, sandbox.Image, workload.Config) {
	t.Helper()
	prog, err := interp.CompileProgram([]interp.SourceUnit{{Name: "w.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	rt := sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 2, Seed: 3})
	img := sandbox.Image{Name: "t", Files: map[string][]byte{"w.go": src}}
	return rt, img, workload.Config{Entry: "Workload", Files: []string{"w.go"}, Env: plainEnv, Program: prog}
}

// stepsBeforeSite measures, independently of BuildPrefixes, how many
// interpreter steps precede the boundary the site statement follows
// (statement index pad+1: after `x := 0` and pad paddings).
func stepsBeforeSite(t *testing.T, pad int) int64 {
	t.Helper()
	_, _, cfg := compiled(t, paddedEntry(pad))
	it := interp.NewRun(cfg.Program, interp.Config{})
	if err := it.Boot(); err != nil {
		t.Fatal(err)
	}
	steps := int64(-1)
	if _, err := it.CallPrefix("Workload", func(stmt int) bool {
		if stmt == pad+1 {
			steps = it.Steps()
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if steps < 0 {
		t.Fatalf("pad=%d: boundary %d never reached", pad, pad+1)
	}
	return steps
}

// TestForkPolicyBoundary pins the one fork policy: a site first reached
// from the last boundary below minForkSteps gets no prefix and is
// counted short; one statement later it gets a prefix. Either way the
// experiment — forked when there is a prefix, straight when not, as the
// Runner does — equals the straight run in result, steps, clock and
// stdout.
func TestForkPolicyBoundary(t *testing.T) {
	min := workload.MinForkSteps()
	perStmt := stepsBeforeSite(t, 2) - stepsBeforeSite(t, 1)
	if perStmt <= 0 {
		t.Fatalf("padding statements cost %d steps", perStmt)
	}
	// The smallest pad whose site boundary has min steps behind it.
	at := int((min - stepsBeforeSite(t, 0) + perStmt - 1) / perStmt)
	if below, reached := stepsBeforeSite(t, at-1), stepsBeforeSite(t, at); below >= min || reached < min {
		t.Fatalf("generator misplaced the boundary: %d and %d steps around threshold %d", below, reached, min)
	}

	for _, tc := range []struct {
		pad    int
		forked bool
	}{{at - 1, false}, {at, true}} {
		t.Run(fmt.Sprintf("pad=%d", tc.pad), func(t *testing.T) {
			rt, img, cfg := compiled(t, paddedEntry(tc.pad))
			ps, err := workload.BuildPrefixes(rt.CreateSeeded(img, 1), cfg, []string{"site"})
			if err != nil {
				t.Fatal(err)
			}
			pre, st := ps.For("site"), ps.Stats()
			if (pre != nil) != tc.forked {
				t.Fatalf("prefix = %v, want forked=%v (stats %+v)", pre != nil, tc.forked, st)
			}
			if tc.forked && (st.Snapshots != 1 || st.Covered != 1 || st.Short != 0) {
				t.Errorf("stats = %+v, want exactly one snapshot covering the site", st)
			}
			if !tc.forked && (st.Snapshots != 0 || st.Covered != 0 || st.Short != 1) {
				t.Errorf("stats = %+v, want no snapshot and the site counted short", st)
			}

			straight := rt.CreateSeeded(img, 2)
			want, err := workload.Run(straight, cfg)
			if err != nil {
				t.Fatal(err)
			}
			exp := rt.CreateSeeded(img, 2)
			got, ok, miss := workload.RunForked(exp, cfg, workload.ForkSpec{Prefix: pre, BaseFiles: img.Files})
			if ok != tc.forked {
				t.Fatalf("RunForked ok=%v (%v), want %v", ok, miss, tc.forked)
			}
			if !ok {
				if !errors.Is(miss, workload.MissConfig) {
					t.Errorf("miss = %v, want %v", miss, workload.MissConfig)
				}
				exp = rt.CreateSeeded(img, 2)
				if got, err = workload.Run(exp, cfg); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(got.Rounds, want.Rounds) {
				t.Errorf("rounds differ from the straight run:\n got %+v\nwant %+v", got.Rounds, want.Rounds)
			}
			if g, w := exp.LogContents("stdout"), straight.LogContents("stdout"); g != w || !strings.Contains(w, "site") {
				t.Errorf("stdout differs from the straight run:\n got %q\nwant %q", g, w)
			}
		})
	}
}

// TestRunForkedNamesItsMisses walks RunForked into the refusals a test
// can stage and checks each returns its own reason: a fork that did not
// happen is answerable, not a bare ok=false.
func TestRunForkedNamesItsMisses(t *testing.T) {
	workload.SetMinForkSteps(t, 0)
	src := []byte("package main\n\nfunc site() any { return 1 }\n\nfunc Workload() any {\n\tx := 0\n\tx = x + 1\n\treturn site()\n}\n")
	rt, img, cfg := compiled(t, src)
	// The environment keeps one value in the env bag; capture/restore
	// copy it, and the staged failures below break them one at a time.
	cfg.Env = func(it *interp.Interp, c *sandbox.Container) {
		sandbox.InstallHooks(it, c)
		c.PutEnv("state", 1)
	}
	cfg.CaptureEnv = func(c *sandbox.Container) (any, bool) { v, ok := c.GetEnv("state"); return v, ok }
	cfg.RestoreEnv = func(c *sandbox.Container, state any) bool { c.PutEnv("state", state); return true }
	ps, err := workload.BuildPrefixes(rt.CreateSeeded(img, 1), cfg, []string{"site"})
	if err != nil {
		t.Fatal(err)
	}
	pre := ps.For("site")
	if pre == nil {
		t.Fatalf("no prefix at threshold 0 (stats %+v)", ps.Stats())
	}
	spec := workload.ForkSpec{Prefix: pre, BaseFiles: img.Files}

	if _, ok, miss := workload.RunForked(rt.CreateSeeded(img, 2), cfg, spec); !ok {
		t.Fatalf("control fork missed: %v", miss)
	}
	started := rt.CreateSeeded(img, 2)
	if err := started.Start(); err != nil {
		t.Fatal(err)
	}
	noRestore, refuses, faultFree := cfg, cfg, cfg
	noRestore.RestoreEnv = nil
	refuses.RestoreEnv = func(*sandbox.Container, any) bool { return false }
	faultFree.FaultFree = true
	foreign := spec
	foreign.Overlay = map[string][]byte{"not-in-base.go": src}
	for _, tc := range []struct {
		want workload.ForkMiss
		ctr  *sandbox.Container
		cfg  workload.Config
		spec workload.ForkSpec
	}{
		{workload.MissConfig, rt.CreateSeeded(img, 2), faultFree, spec},
		{workload.MissOverlay, rt.CreateSeeded(img, 2), cfg, foreign},
		{workload.MissNoRestore, rt.CreateSeeded(img, 2), noRestore, spec},
		{workload.MissEnv, rt.CreateSeeded(img, 2), refuses, spec},
		{workload.MissStart, started, cfg, spec},
	} {
		res, ok, miss := workload.RunForked(tc.ctr, tc.cfg, tc.spec)
		if ok || res != nil || !errors.Is(miss, tc.want) {
			t.Errorf("want miss %q, got ok=%v res=%v miss=%v", tc.want, ok, res != nil, miss)
		}
	}
}

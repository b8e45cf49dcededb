package coverage_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"profipy/internal/campaign"
	"profipy/internal/coverage"
	"profipy/internal/dsl"
	"profipy/internal/interp"
	"profipy/internal/kvclient"
	"profipy/internal/pattern"
	"profipy/internal/plan"
	"profipy/internal/sandbox"
	"profipy/internal/scanner"
	"profipy/internal/workload"
)

// instrumentParsed is the text reference for coverage: a call
// __cover("id"); spliced in front of the first statement of every
// injection point, on that statement's own line.
func instrumentParsed(pf *scanner.ParsedFile, points []scanner.InjectionPoint) ([]byte, error) {
	offsets := make([]int, 0, len(points))
	hooks := make([]string, 0, len(points))
	for _, p := range points {
		if p.File != pf.Name {
			return nil, fmt.Errorf("point %s does not belong to file %s", p.ID(), pf.Name)
		}
		if p.ListIndex < 0 || p.ListIndex >= len(pf.Lists) {
			return nil, fmt.Errorf("stale injection point %s", p.ID())
		}
		stmts := *pf.Lists[p.ListIndex].Ptr
		if p.Start < 0 || p.Start >= len(stmts) {
			return nil, fmt.Errorf("stale injection point %s", p.ID())
		}
		offsets = append(offsets, pf.Offset(stmts[p.Start].Pos()))
		hooks = append(hooks, "__cover("+strconv.Quote(p.ID())+"); ")
	}
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return offsets[order[a]] < offsets[order[b]] })
	var buf bytes.Buffer
	prev := 0
	for _, i := range order {
		buf.Write(pf.Src[prev:offsets[i]])
		buf.WriteString(hooks[i])
		prev = offsets[i]
	}
	buf.Write(pf.Src[prev:])
	return buf.Bytes(), nil
}

// coverEnv binds __cover to a set the test reads back.
func coverEnv(covered map[string]bool) *interp.HostEnv {
	return interp.NewHostEnv().Func("__cover", func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
		if len(args) == 1 {
			if id, ok := args[0].(string); ok {
				covered[id] = true
			}
		}
		return nil, nil
	})
}

// referenceCovered runs one round of the instrumented program, __cover
// bound to a set: the text reference the pass is held to.
func referenceCovered(t *testing.T, c *campaign.Campaign, cache *scanner.ProjectCache,
	points []scanner.InjectionPoint, base *interp.Program) map[string]bool {
	t.Helper()
	byFile := map[string][]scanner.InjectionPoint{}
	for _, p := range points {
		byFile[p.File] = append(byFile[p.File], p)
	}
	overlay := map[string][]byte{}
	for name, pts := range byFile {
		pf, err := cache.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if overlay[name], err = instrumentParsed(pf, pts); err != nil {
			t.Fatal(err)
		}
	}
	covered := map[string]bool{}
	cfg := c.Workload
	cfg.Rounds = 1
	env := cfg.Env
	cfg.Env = func(it *interp.Interp, ctr *sandbox.Container) {
		env(it, ctr)
		it.Install(coverEnv(covered))
	}
	var err error
	if cfg.Program, err = base.WithFiles(overlay); err != nil {
		t.Fatal(err)
	}
	img := c.Image
	img.Files, img.Overlay = c.Files, overlay
	ctr := c.Runtime.CreateSeeded(img, 0)
	defer func() { _ = c.Runtime.Destroy(ctr) }()
	res, err := workload.Run(ctr, cfg)
	if err != nil || !res.Round1().OK {
		t.Fatalf("instrumented run: %v %+v", err, res)
	}
	return covered
}

// TestCoveredMatchesTextReference: on all five §V projects, over every
// plan point, the pass's covered set equals what the text instrumenter's
// hooks report — though the pass runs the uninstrumented program, with
// the campaign seed, snapshotting as the campaign does.
func TestCoveredMatchesTextReference(t *testing.T) {
	uncovered := 0
	for _, build := range []func(*sandbox.Runtime, int64) *campaign.Campaign{
		kvclient.CampaignA, kvclient.CampaignB, kvclient.CampaignC, kvclient.CampaignR, kvclient.CampaignLate,
	} {
		c := build(sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 2, Seed: 20}), 101)
		t.Run(strings.SplitN(c.Name, ":", 2)[0], func(t *testing.T) {
			scan := map[string][]byte{}
			for _, name := range c.ScanFiles {
				scan[name] = c.Files[name]
			}
			cache := scanner.NewProjectCache(scan)
			pl, err := plan.BuildFromCache(cache, c.Faultload)
			if err != nil {
				t.Fatal(err)
			}
			var units []interp.SourceUnit
			for _, name := range c.Workload.Files {
				units = append(units, interp.SourceUnit{Name: name, Src: c.Files[name]})
			}
			base, err := interp.CompileProgram(units)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceCovered(t, c, cache, pl.Points, base)

			cfg := c.Workload
			cfg.Program = base
			img := c.Image
			img.Files = c.Files
			ctr := c.Runtime.CreateSeeded(img, c.Seed)
			got, _, err := coverage.Run(ctr, cache, pl.Points, coverage.Sites(pl.Points), cfg)
			_ = c.Runtime.Destroy(ctr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("covered sets differ over %d points:\n pass:      %v\n reference: %v", pl.Len(), got, want)
			}
			if len(want) == 0 {
				t.Errorf("none of %d points covered: the comparison decides nothing", pl.Len())
			}
			uncovered += pl.Len() - len(want)
			t.Logf("%d of %d points covered", len(got), pl.Len())
		})
	}
	if uncovered == 0 {
		t.Error("every point of every project covered: the comparison decides nothing")
	}
}

// callSource has call statements in a loop, a branch and a closure.
const callSource = `package main

func F(xs any) any {
	for _, x := range xs {
		if x > 1 {
			a(x)
		} else {
			b(); a(x)
		}
	}
	defer func() { b() }()
	return nil
}
`

// calls scans a source for every call statement.
func calls(t *testing.T, name string, src []byte) []scanner.InjectionPoint {
	t.Helper()
	mm, err := dsl.Compile("calls", `
change {
	$CALL{name=*}(...)
} into {
}`)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := scanner.ScanSource(name, src, []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestInstrumentInsertsCoverageHooks: the reference writes one hook per
// point, naming that point, on the point's own line, and the output
// parses.
func TestInstrumentInsertsCoverageHooks(t *testing.T) {
	src := []byte(callSource)
	pts := calls(t, "t.go", src)
	if len(pts) == 0 {
		t.Fatal("no call statements scanned")
	}
	pf, err := scanner.ParseFileOnce("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := instrumentParsed(pf, pts)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(out), "\n")
	for _, p := range pts {
		hook := "__cover(" + strconv.Quote(p.ID()) + ")"
		if got := strings.Count(string(out), hook); got != 1 {
			t.Errorf("hook for %s written %d times, want 1", p.ID(), got)
		}
		if p.Line < 1 || p.Line > len(lines) || !strings.Contains(lines[p.Line-1], hook) {
			t.Errorf("hook for %s not on line %d", p.ID(), p.Line)
		}
	}
	if _, err := scanner.ScanSource("t.go", out, nil); err != nil {
		t.Errorf("instrumented source does not parse: %v", err)
	}
}

// TestInstrumentParsedKeepsLineNumbers: the reference's hooks sit on
// their statement's own line and parse, one per point.
func TestInstrumentParsedKeepsLineNumbers(t *testing.T) {
	src := []byte(callSource)
	pts := calls(t, "t.go", src)
	pf, err := scanner.ParseFileOnce("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := instrumentParsed(pf, pts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bytes.Count(out, []byte("\n")), bytes.Count(src, []byte("\n")); got != want {
		t.Errorf("instrumented line count = %d, want %d (hooks must not add lines)", got, want)
	}
	if got := bytes.Count(out, []byte("__cover(")); got != len(pts) || got == 0 {
		t.Errorf("hooks = %d, want %d", got, len(pts))
	}
	if _, err := scanner.ParseFileOnce("t.go", out); err != nil {
		t.Errorf("instrumented source does not parse: %v", err)
	}
}

// TestInstrumentParsedRejectsForeignPoint: the reference refuses points
// of another file and stale ones.
func TestInstrumentParsedRejectsForeignPoint(t *testing.T) {
	pf, err := scanner.ParseFileOnce("t.go", []byte(callSource))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []scanner.InjectionPoint{
		{Spec: "x", File: "other.go"},
		{Spec: "x", File: "t.go", ListIndex: 99},
	} {
		if _, err := instrumentParsed(pf, []scanner.InjectionPoint{bad}); err == nil {
			t.Errorf("point %+v accepted", bad)
		}
	}
}

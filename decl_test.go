// The two front ends are one compiler: a campaign hands the compiler
// each mutant as the declaration the mutator built (Program.WithDecl),
// while the container — and any caller holding only text — sees the
// mutated file (Program.WithFiles). Every compile-time mutant of the
// §V-A/B/C/R/late plans runs here three ways — decl-derived, text-derived
// and on the tree-walk oracle loading the deployed text — and all three
// must agree on both rounds' results, step counts, virtual clocks and on
// stdout.
package profipy

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"profipy/internal/interp"
	"profipy/internal/mutator"
	"profipy/internal/sandbox"
	"profipy/internal/scanner"
	"profipy/internal/workload"
)

func TestDeclAndTextFrontEndsAgree(t *testing.T) {
	total := 0
	for _, gc := range goldenCampaigns {
		t.Run(gc.name, func(t *testing.T) {
			rt := NewRuntime(RuntimeConfig{Cores: 2, Seed: 20})
			c := gc.build(rt, gc.seed)
			cache := scanner.NewProjectCache(c.Files)
			units := make([]interp.SourceUnit, 0, len(c.Workload.Files))
			for _, name := range c.Workload.Files {
				pf, err := cache.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				units = append(units, interp.SourceUnit{Name: name, Src: pf.Src, AST: pf.File})
			}
			base, err := interp.CompileProgram(units)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := Scan(c.Files, c.Faultload)
			if err != nil {
				t.Fatal(err)
			}

			mutants := 0
			eachExperiment(t, c, func(pt InjectionPoint, img sandbox.Image, seed int64, fault *RuntimeFault) {
				if fault != nil {
					return // runs the base program: nothing is derived
				}
				mutants++
				label := fmt.Sprintf("%s (mutant %d)", pt.ID(), mutants)
				spec, _ := pl.Spec(pt.Spec)
				mm, err := spec.Compile()
				if err != nil {
					t.Fatal(err)
				}
				pf, err := cache.Get(pt.File)
				if err != nil {
					t.Fatal(err)
				}
				mut, err := mutator.Mutate(pf, mm, pt, mutator.Options{Triggered: true})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				text := img.Overlay[pt.File]
				if rendered, err := mut.Render(); err != nil || !bytes.Equal(rendered, text) {
					t.Fatalf("%s: Render differs from the deployed text (err %v)", label, err)
				}
				fromDecl, err := base.WithDecl(pt.File, mut.Decl(), text)
				if err != nil {
					t.Fatalf("%s: WithDecl: %v", label, err)
				}
				fromText, err := base.WithFiles(img.Overlay)
				if err != nil {
					t.Fatalf("%s: WithFiles: %v", label, err)
				}

				run := func(p *interp.Program) (*workload.Result, string) {
					ctr := rt.CreateSeeded(img, seed)
					defer func() { _ = rt.Destroy(ctr) }()
					cfg := c.Workload
					cfg.Rounds, cfg.Program = 2, p
					res, err := workload.Run(ctr, cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return res, ctr.LogContents("stdout")
				}
				dres, dout := run(fromDecl)
				tres, tout := run(fromText)
				if !reflect.DeepEqual(dres.Rounds, tres.Rounds) || dout != tout {
					t.Errorf("%s: decl-derived and text-derived programs differ:\n decl: %+v %q\n text: %+v %q",
						label, dres.Rounds, dout, tres.Rounds, tout)
				}
				octr := rt.CreateSeeded(img, seed)
				want, err := treeWalkRounds(octr, c.Workload, 2)
				oout := octr.LogContents("stdout")
				_ = rt.Destroy(octr)
				if err != nil {
					t.Fatalf("%s: tree-walk: %v", label, err)
				}
				if !reflect.DeepEqual(dres.Rounds, want) || dout != oout {
					t.Errorf("%s: decl-derived program differs from the tree-walk:\n decl:      %+v %q\n tree-walk: %+v %q",
						label, dres.Rounds, dout, want, oout)
				}
			})
			// Both front ends compiled one declaration per mutant, and
			// neither ever recompiled a file.
			if decl, file := base.MutantCompiles(); decl != uint64(2*mutants) || len(file) != 0 {
				t.Errorf("%d mutants compiled %d declarations and whole files for %v; want %d and none",
					mutants, decl, file, 2*mutants)
			}
			total += mutants
		})
	}
	t.Logf("%d mutants agree across WithDecl, WithFiles and the tree-walk", total)
}

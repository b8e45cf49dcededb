package mutator_test

import (
	"testing"

	"profipy/internal/dsl"
	"profipy/internal/genproject"
	"profipy/internal/mutator"
	"profipy/internal/pattern"
	"profipy/internal/scanner"
)

// benchTarget builds a realistic single-file mutation workload: one
// generated ~500-line file, an MFC-style spec, and its first injection
// point.
func benchTarget(b *testing.B) (string, []byte, *pattern.MetaModel, scanner.InjectionPoint) {
	b.Helper()
	files := genproject.Generate(genproject.Config{Files: 1, FuncsPerFile: 20, StmtsPerFunc: 10, Seed: 7})
	var name string
	var src []byte
	for n, s := range files {
		name, src = n, s
	}
	mm, err := dsl.Compile("mfc", `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=compute_*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`)
	if err != nil {
		b.Fatal(err)
	}
	pts, err := scanner.ScanSource(name, src, []*pattern.MetaModel{mm})
	if err != nil {
		b.Fatal(err)
	}
	if len(pts) == 0 {
		b.Fatal("no injection points in generated corpus")
	}
	return name, src, mm, pts[0]
}

// BenchmarkMutateCached measures one experiment's mutation cost when the
// campaign parse cache is warm: ApplyParsed re-establishes the match and
// splices the rendered replacement into the source bytes, with no parse
// and no whole-file re-print. Compare against BenchmarkMutateFresh (the
// per-experiment cost before the cache; the committed baseline ran
// ~682µs/op and 3230 allocs/op on the kvclient target).
func BenchmarkMutateCached(b *testing.B) {
	name, src, mm, pt := benchTarget(b)
	pf, err := scanner.ParseFileOnce(name, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mutator.ApplyParsed(pf, mm, pt, mutator.Options{Triggered: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMutateFresh is the uncached path: every experiment re-parses
// its target file from scratch, as the engine did before the campaign
// parse cache.
func BenchmarkMutateFresh(b *testing.B) {
	name, src, mm, pt := benchTarget(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mutator.Apply(name, src, mm, pt, mutator.Options{Triggered: true}); err != nil {
			b.Fatal(err)
		}
	}
}

package scanner_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"profipy/internal/faultmodel"
	"profipy/internal/genproject"
	"profipy/internal/pattern"
	"profipy/internal/plan"
	"profipy/internal/scanner"
)

// corpusDigests are SHA-256 of plan.Save() for the §V-D corpus
// (genproject.DefaultConfig(40_000, seed) × Patterns(120)), recorded at
// commit 10d7489 — the last one that scanned by trying every model at
// every start of every list. The index may only skip work, never change
// an answer: every later scanner must reproduce these bytes.
var corpusDigests = map[int64]string{
	1: "96105897fba859641e22cf74b888292c961cdb803ad3dbb098e7ac84053a3d87",
	2: "a6b01b12981bd63426de2df4e2e9ac14137b850c7a902b6d9deba7d104aa5102",
	3: "d57a44938fbb7703a23bcafffc7bef9b15e38fc1ece8a4c4a8a7284d4ba9068e",
}

func TestScanReproducesCorpusDigests(t *testing.T) {
	specs := genproject.Patterns(120)
	models, err := faultmodel.CompileAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for seed, want := range corpusDigests {
		files := genproject.Generate(genproject.DefaultConfig(40_000, seed))
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				points, err := scanner.ScanProjectParallel(files, models, workers)
				if err != nil {
					t.Fatal(err)
				}
				saved, err := plan.New(specs, points).Save()
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(saved)
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("plan digest %s, want %s (%d points)", got, want, len(points))
				}
			})
		}
	}
}

// TestScanAllocationBudget pins what a warm scan may allocate: the points
// themselves (the growing result slices), a constant per file, and per
// distinct start-statement text its memo entry and whatever go/printer
// allocates inside to render it once — measured here, since the scanner
// does not control it. Anything a trial allocates shows up beyond that:
// the models are tried at many times more statements than they match.
func TestScanAllocationBudget(t *testing.T) {
	files := genproject.Generate(genproject.DefaultConfig(5_000, 1))
	models, err := faultmodel.CompileAll(genproject.Patterns(120))
	if err != nil {
		t.Fatal(err)
	}
	cache := scanner.NewProjectCache(files)
	points, err := scanner.ScanCache(cache, models, 1)
	if err != nil {
		t.Fatal(err)
	}
	scan := testing.AllocsPerRun(5, func() {
		if _, err := scanner.ScanCache(cache, models, 1); err != nil {
			t.Fatal(err)
		}
	})

	seen := map[string]bool{}
	var render float64
	var buf bytes.Buffer
	for _, pt := range points {
		pf, err := cache.Get(pt.File)
		if err != nil {
			t.Fatal(err)
		}
		if stmt, text := startText(pf, pt); !seen[string(text)] {
			seen[string(text)] = true
			render += 1 + testing.AllocsPerRun(1, func() {
				buf.Reset()
				pattern.PrintNode(&buf, pf.Fset, stmt)
			})
		}
	}
	budget := render + 1.2*float64(len(points)) + 32*float64(len(files))
	t.Logf("%d points at %d start texts in %d files: %.0f allocs per scan (renders %.0f, budget %.0f)",
		len(points), len(seen), len(files), scan, render, budget)
	if scan > budget {
		t.Errorf("a warm scan allocates %.0f objects, budget %.0f: something allocates per trial again", scan, budget)
	}
}

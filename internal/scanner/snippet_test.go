package scanner_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"profipy/internal/faultmodel"
	"profipy/internal/genproject"
	"profipy/internal/kvclient"
	"profipy/internal/plan"
	"profipy/internal/scanner"
)

// realCodeSpecs is the predefined G-SWFIT + Extras faultload, the one a
// user points at code nobody wrote for ProFIPy.
func realCodeSpecs() []faultmodel.Spec {
	return append(faultmodel.GSWFIT().Specs, faultmodel.Extras().Specs...)
}

// gorootFiles returns the non-test Go files under $GOROOT/src/<dir>,
// testdata excluded, keyed by their path below src; nil when the Go
// source tree is not installed.
func gorootFiles(dir string) map[string][]byte {
	src := filepath.Join(build.Default.GOROOT, "src")
	files := map[string][]byte{}
	err := filepath.WalkDir(filepath.Join(src, dir), func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(src, path)
		files[filepath.ToSlash(rel)] = b
		return err
	})
	if err != nil || len(files) == 0 {
		return nil
	}
	return files
}

// startText is the source text of the statement a point starts at: what
// the scan's snippet memo is keyed by.
func startText(pf *scanner.ParsedFile, pt scanner.InjectionPoint) (ast.Stmt, []byte) {
	stmt := (*pf.Lists[pt.ListIndex].Ptr)[pt.Start]
	return stmt, pf.Src[pf.Offset(stmt.Pos()):pf.Offset(stmt.End())]
}

// checkFresh fails for every point whose snippet differs from a fresh
// render of its start statement, and returns how many distinct starts
// the points have and how many distinct texts those starts have.
func checkFresh(tb testing.TB, cache *scanner.ProjectCache, points []scanner.InjectionPoint) (starts, texts int) {
	tb.Helper()
	type at struct {
		file        string
		list, start int
	}
	seen, distinct := map[at]bool{}, map[string]bool{}
	bad := 0
	for _, pt := range points {
		if seen[at{pt.File, pt.ListIndex, pt.Start}] {
			continue
		}
		seen[at{pt.File, pt.ListIndex, pt.Start}] = true
		pf, err := cache.Get(pt.File)
		if err != nil {
			tb.Fatal(err)
		}
		stmt, text := startText(pf, pt)
		distinct[string(text)] = true
		if want := scanner.FreshSnippet(pf, stmt); pt.Snippet != want && bad < 5 {
			bad++
			tb.Errorf("%s line %d: snippet %q, fresh render %q", pt.File, pt.Line, pt.Snippet, want)
		}
	}
	return len(seen), len(distinct)
}

// TestSnippetDependsOnlyOnText holds the scan's snippet memo to what
// makes it sound: a statement's snippet is a function of its source
// text. Every point's snippet equals a fresh render of its start
// statement on the generated, demo and Go-standard-library corpora;
// one statement text renders the same in every context that changes
// its position but not its tokens; and the saved plan is the same bytes
// at 1, 2 and 4 workers.
func TestSnippetDependsOnlyOnText(t *testing.T) {
	type corpus struct {
		name  string
		files map[string][]byte
		specs []faultmodel.Spec
	}
	var corpora []corpus
	for seed := int64(1); seed <= 3; seed++ {
		corpora = append(corpora, corpus{fmt.Sprintf("genproject-%d", seed),
			genproject.Generate(genproject.DefaultConfig(40_000, seed)), genproject.Patterns(120)})
	}
	for name, fl := range map[string][]faultmodel.Spec{
		"A": kvclient.CampaignAFaultload(), "B": kvclient.CampaignBFaultload(),
		"C": kvclient.CampaignCFaultload(), "R": kvclient.CampaignRFaultload(),
	} {
		corpora = append(corpora, corpus{"kvclient-" + name, kvclient.Sources(), fl})
	}
	if files := gorootFiles("go"); files != nil {
		corpora = append(corpora, corpus{"goroot-go", files, realCodeSpecs()})
	} else {
		t.Log("no $GOROOT/src/go: standard-library corpus skipped")
	}
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			models, err := faultmodel.CompileAll(c.specs)
			if err != nil {
				t.Fatal(err)
			}
			cache := scanner.NewProjectCache(c.files)
			points, err := scanner.ScanCache(cache, models, 1)
			if err != nil {
				t.Fatal(err)
			}
			starts, texts := checkFresh(t, cache, points)
			t.Logf("%d points, %d start statements, %d distinct texts", len(points), starts, texts)

			want, err := plan.New(c.specs, points).Save()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				pts, err := scanner.ScanProjectParallel(c.files, models, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got, _ := plan.New(c.specs, pts).Save(); !bytes.Equal(got, want) {
					t.Errorf("workers=%d: saved plan differs from the one-worker campaign scan", workers)
				}
			}
		})
	}

	t.Run("contexts", func(t *testing.T) {
		stmts := []string{
			"v := store.Get(key, map[string]any{\n\t\"a\":    1,\n\t\"bbbb\": []int{1,\n\t\t2},\n})",
			"if v == nil {\n\tlog(\"missing\", key)\n\n\treturn\n}",
			"c.Do(ctx, \"k\",\n\t\"long\")",
			"defer func() {\n\tcleanup(v)\n}()",
		}
		files := snippetContexts(strings.Join(stmts, "\n"))
		models, err := faultmodel.CompileAll(realCodeSpecs())
		if err != nil {
			t.Fatal(err)
		}
		cache := scanner.NewProjectCache(files)
		points, err := scanner.ScanCache(cache, models, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkFresh(t, cache, points)

		// Each statement sits in every context once; all its copies
		// render alike, and the scan reports its snippet wherever a
		// point starts there.
		flat := func(s string) string {
			lines := strings.Split(s, "\n")
			for i := range lines {
				lines[i] = strings.TrimLeft(lines[i], "\t")
			}
			return strings.Join(lines, "\n")
		}
		renders := map[string][]string{}
		for _, name := range cache.Names() {
			pf, _ := cache.Get(name)
			for _, sl := range pf.Lists {
				for _, stmt := range *sl.Ptr {
					text := flat(string(pf.Src[pf.Offset(stmt.Pos()):pf.Offset(stmt.End())]))
					renders[text] = append(renders[text], scanner.FreshSnippet(pf, stmt))
				}
			}
		}
		for _, s := range stmts {
			got := renders[flat(s)]
			if len(got) != snippetContextCount {
				t.Fatalf("%q found in %d contexts, want %d", s, len(got), snippetContextCount)
			}
			for _, r := range got[1:] {
				if r != got[0] {
					t.Errorf("%q renders as %q in one context and %q in another", s, got[0], r)
				}
			}
		}
		if len(points) < 2*snippetContextCount {
			t.Errorf("%d points: the faultload no longer matches the statements in every context", len(points))
		}
	})
}

// snippetContextCount is how many places snippetContexts puts a body.
const snippetContextCount = 6

// snippetContexts places one statement sequence in six contexts across
// two files: at two indentations, after a stretch of other lines, inside
// a function literal, after a //line directive, and in a second file.
func snippetContexts(body string) map[string][]byte {
	indent := func(depth int) string {
		tabs := strings.Repeat("\t", depth)
		return tabs + strings.ReplaceAll(body, "\n", "\n"+tabs)
	}
	return map[string][]byte{
		"a.go": []byte("package p\n\nfunc a() {\n" + indent(1) + "\n}\n\nfunc b() {\n\tfor {\n" + indent(2) + "\n\t}\n}\n" +
			strings.Repeat("\nvar _ = 0\n", 40) +
			"\nfunc c() {\n" + indent(1) + "\n}\n\nfunc d() {\n\tgo func() {\n" + indent(2) + "\n\t}()\n}\n" +
			"\n//line other.go:1000\nfunc e() {\n" + indent(1) + "\n}\n"),
		"b.go": []byte("package p\n\nfunc f() {\n" + indent(1) + "\n}\n"),
	}
}

// FuzzScanSnippets: for any body, placed in every snippetContexts
// context, a one-worker scan (one memo over both files) reports exactly
// the points it would if it rendered every start statement afresh.
func FuzzScanSnippets(f *testing.F) {
	f.Add("x := f(1)\ng(x)\nreturn")
	f.Add("if v := m[k]; v != nil {\n\tuse(v)\n}\nh(`a\nb`)")
	models, err := faultmodel.CompileAll(realCodeSpecs())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body string) {
		cache := scanner.NewProjectCache(snippetContexts(body))
		points, err := scanner.ScanCache(cache, models, 1)
		if err != nil {
			return
		}
		want := slices.Clone(points)
		for i, pt := range want {
			pf, _ := cache.Get(pt.File)
			stmt, _ := startText(pf, pt)
			want[i].Snippet = scanner.FreshSnippet(pf, stmt)
		}
		if !reflect.DeepEqual(points, want) {
			t.Fatalf("memoized points differ from fresh renders\nbody:\n%s", body)
		}
	})
}

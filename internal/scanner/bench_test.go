package scanner_test

import (
	"fmt"
	"strings"
	"testing"

	"profipy/internal/faultmodel"
	"profipy/internal/genproject"
	"profipy/internal/scanner"
)

// BenchmarkScanProjectParallel measures full-project scan throughput on
// the §V-D synthetic corpus (40K lines, 120 DSL patterns) as the worker
// pool grows: each iteration parses, indexes and scans the project.
// workers=1 is the serial engine; larger worker counts add multi-core
// scaling on top (README § Performance has the measured rows). Run with:
//
//	go test -bench ScanProjectParallel -benchmem ./internal/scanner/
func BenchmarkScanProjectParallel(b *testing.B) {
	files := genproject.Generate(genproject.DefaultConfig(40_000, 1))
	total := genproject.Lines(files)
	models, err := faultmodel.CompileAll(genproject.Patterns(120))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			points := 0
			for i := 0; i < b.N; i++ {
				pts, err := scanner.ScanProjectParallel(files, models, workers)
				if err != nil {
					b.Fatal(err)
				}
				points = len(pts)
			}
			b.ReportMetric(float64(points), "points")
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
		})
	}
}

// BenchmarkScanCacheWarm isolates the match engine from the parse front
// end: the project is parsed once outside the loop, so each iteration
// measures pure pattern matching over cached parses — the steady state of
// a campaign re-scanning with additional specs.
func BenchmarkScanCacheWarm(b *testing.B) {
	files := genproject.Generate(genproject.DefaultConfig(40_000, 1))
	total := genproject.Lines(files)
	models, err := faultmodel.CompileAll(genproject.Patterns(120))
	if err != nil {
		b.Fatal(err)
	}
	cache := scanner.NewProjectCache(files)
	if _, err := scanner.ScanCache(cache, models, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scanner.ScanCache(cache, models, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkScanShapes splits the warm-cache scan of the 200k-line §V-D
// corpus by pattern shape, 20 models each: what one more family of specs
// costs a campaign whose project is already parsed. Every shape is
// anchored, so none may cost a multiple of the others per point; the
// block-led mfc shape did (≈ 11× the time of any other) while it tried
// every block extent at every start. mfc-long is the same 20 models on
// one 20 000-statement list whose only matching call is its last but
// one: linear through the index, quadratic (minutes) without it — CI
// runs this at -benchtime=1x under a timeout, so a shape that goes
// quadratic again fails there rather than by drift.
func BenchmarkScanShapes(b *testing.B) {
	files := genproject.Generate(genproject.DefaultConfig(200_000, 1))
	var long strings.Builder
	long.WriteString("package long\n\nfunc long(state any) {\n")
	for i := 0; i < 20_000; i++ {
		fmt.Fprintf(&long, "\tstep(state, %d)\n", i)
	}
	long.WriteString("\tcompute_create(state)\n\tfinish(state)\n}\n")
	corpus := scanner.NewProjectCache(files)
	longList := scanner.NewProjectCache(map[string][]byte{"long.go": []byte(long.String())})
	shapes := []struct {
		name, typ string
		cache     *scanner.ProjectCache
	}{
		{"mfc", "MFC", corpus}, {"throw", "ThrowException", corpus}, {"wpf", "WPF", corpus},
		{"mifs", "MIFS", corpus}, {"wvav", "WVAV", corpus}, {"nilret", "NilReturn", corpus},
		{"mfc-long", "MFC", longList},
	}
	for _, shape := range shapes {
		var specs []faultmodel.Spec
		for _, s := range genproject.Patterns(120) {
			if s.Type == shape.typ {
				specs = append(specs, s)
			}
		}
		models, err := faultmodel.CompileAll(specs)
		if err != nil {
			b.Fatal(err)
		}
		cache := shape.cache
		b.Run(shape.name, func(b *testing.B) {
			if _, err := scanner.ScanCache(cache, nil, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			points := 0
			for i := 0; i < b.N; i++ {
				pts, err := scanner.ScanCache(cache, models, 0)
				if err != nil {
					b.Fatal(err)
				}
				points = len(pts)
			}
			b.ReportMetric(float64(points), "points")
		})
	}
}

// BenchmarkScanRealCode is the one-worker scan of code nobody generated:
// the non-test files of the Go distribution's net/http and go/... under
// the G-SWFIT + Extras faultload, each iteration parsing, indexing and
// scanning. renders is how many distinct statement texts the points
// start at (what the snippet memo prints), repeat_share the share of
// start statements whose text an earlier one already had. It skips
// where the Go source tree is not installed.
func BenchmarkScanRealCode(b *testing.B) {
	models, err := faultmodel.CompileAll(realCodeSpecs())
	if err != nil {
		b.Fatal(err)
	}
	for _, dir := range []string{"net/http", "go"} {
		files := gorootFiles(dir)
		b.Run(strings.ReplaceAll(dir, "/", "-"), func(b *testing.B) {
			if files == nil {
				b.Skipf("no $GOROOT/src/%s", dir)
			}
			for i := 0; i < b.N; i++ {
				if _, err := scanner.ScanProjectParallel(files, models, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(genproject.Lines(files))*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
			b.StopTimer()
			cache := scanner.NewProjectCache(files)
			points, err := scanner.ScanCache(cache, models, 1)
			if err != nil {
				b.Fatal(err)
			}
			starts, texts := checkFresh(b, cache, points)
			b.ReportMetric(float64(texts), "renders")
			b.ReportMetric(1-float64(texts)/float64(starts), "repeat_share")
		})
	}
}

package scanner

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"

	"profipy/internal/faultmodel"
	"profipy/internal/genproject"
	"profipy/internal/pattern"
)

// corpus builds a deterministic multi-file project exercising several
// statement kinds, large enough that parallel workers interleave.
func corpus(t *testing.T) (map[string][]byte, []*pattern.MetaModel) {
	t.Helper()
	files := make(map[string][]byte, 12)
	for i := 0; i < 12; i++ {
		var sb strings.Builder
		sb.WriteString("package p\n\n")
		for f := 0; f < 8; f++ {
			sb.WriteString("func fn")
			sb.WriteByte(byte('a' + i))
			sb.WriteByte(byte('0' + f))
			sb.WriteString(`(node string) {
	prepare(node)
	DeletePort(node)
	if node != "" {
		audit(node)
		continueWork(node)
	}
	utils.Execute("run", "-x-flag", node)
	finish(node)
}
`)
		}
		name := "dir/" + string(rune('a'+i)) + ".go"
		files[name] = []byte(sb.String())
	}
	specs := []*pattern.MetaModel{
		compile(t, "MFC", `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`),
		compile(t, "WPF", `
change {
	$CALL#c{name=utils.Execute}(..., $STRING#s{val=*-*}, ...)
} into {
	$CALL#c(..., $CORRUPT($STRING#s), ...)
}`),
		compile(t, "MIFS", `
change {
	if $EXPR{var=node} {
		audit(node)
		$BLOCK{stmts=1,2}
	}
} into {
}`),
	}
	return files, specs
}

// TestScanParallelDeterminism: the same project scanned with 1 and N
// workers yields byte-identical injection point lists. Run under -race in
// CI, this also proves the shared parse cache and meta-models are
// race-free across scan workers.
func TestScanParallelDeterminism(t *testing.T) {
	files, specs := corpus(t)
	serial, err := ScanProjectParallel(files, specs, 1)
	if err != nil {
		t.Fatalf("serial scan: %v", err)
	}
	if len(serial) == 0 {
		t.Fatal("corpus produced no injection points")
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 32} {
		got, err := ScanProjectParallel(files, specs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(want) {
			t.Errorf("workers=%d: point list differs from serial scan", workers)
		}
	}
}

// TestScanParallelDeterministicError: with several unparseable files, the
// reported error is that of the first bad file in sorted-name order,
// regardless of worker count.
func TestScanParallelDeterministicError(t *testing.T) {
	files := map[string][]byte{
		"z.go": []byte("not go at all"),
		"m.go": []byte("also broken {"),
		"a.go": []byte("package p\nfunc A() { x() }\n"),
	}
	for _, workers := range []int{1, 4} {
		_, err := ScanProjectParallel(files, nil, workers)
		if err == nil {
			t.Fatalf("workers=%d: scan of broken project should fail", workers)
		}
		if !strings.Contains(err.Error(), "m.go") {
			t.Errorf("workers=%d: error = %v, want the first broken file (m.go)", workers, err)
		}
	}
}

func TestScanCacheReusesParses(t *testing.T) {
	files, specs := corpus(t)
	cache := NewProjectCache(files)
	if _, err := ScanCache(cache, specs, 4); err != nil {
		t.Fatal(err)
	}
	pf1, err := cache.Get("dir/a.go")
	if err != nil {
		t.Fatal(err)
	}
	pf2, err := cache.Get("dir/a.go")
	if err != nil {
		t.Fatal(err)
	}
	if pf1 != pf2 {
		t.Error("cache.Get must return the same parse on every call")
	}
	if _, err := cache.Get("dir/missing.go"); err == nil {
		t.Error("cache.Get of a missing file must fail")
	}
}

// TestOneShotScanRetainsNoParse: a one-shot scan drops each parse before
// it takes the next file — with one worker, at most one ParsedFile may be
// reachable when a parse starts — while ScanCache leaves every parse in
// its cache, and both scans give the same points at any worker count.
func TestOneShotScanRetainsNoParse(t *testing.T) {
	files := genproject.Generate(genproject.DefaultConfig(10_000, 1))
	if len(files) < 8 {
		t.Fatalf("corpus has %d files, want at least 8", len(files))
	}
	models, err := faultmodel.CompileAll(genproject.Patterns(120))
	if err != nil {
		t.Fatal(err)
	}

	var live atomic.Int64
	maxLive := int64(0)
	parse := func(name string) (*ParsedFile, error) {
		// Finalizers run on their own goroutine after the collection
		// that found the parse unreachable: wait for them, not longer.
		runtime.GC()
		for deadline := time.Now().Add(time.Second); live.Load() > 1 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			runtime.GC()
		}
		maxLive = max(maxLive, live.Load())
		pf, err := ParseFileOnce(name, files[name])
		if err == nil {
			live.Add(1)
			runtime.SetFinalizer(pf, func(*ParsedFile) { live.Add(-1) })
		}
		return pf, err
	}
	if _, err := scanFiles(SortedNames(files), models, 1, parse); err != nil {
		t.Fatal(err)
	}
	if maxLive > 1 {
		t.Errorf("%d parses were reachable when a parse started, want at most 1", maxLive)
	}

	cache := NewProjectCache(files)
	for _, workers := range []int{1, 2, 8} {
		cached, err := ScanCache(cache, models, workers)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := ScanProjectParallel(files, models, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(streamed) == 0 || !reflect.DeepEqual(streamed, cached) {
			t.Errorf("workers=%d: ScanProjectParallel gave %d points, ScanCache %d, or they differ", workers, len(streamed), len(cached))
		}
	}
	if len(cache.entries) != len(files) {
		t.Fatalf("ScanCache left %d parses in its cache, want %d", len(cache.entries), len(files))
	}
	for name, e := range cache.entries {
		if pf, err := cache.Get(name); err != nil || pf == nil || pf != e.pf {
			t.Errorf("%s: cache.Get = %p, %v; want the parse the scan left", name, pf, err)
		}
	}
}

func TestTruncateSnippetRuneSafe(t *testing.T) {
	// 2-byte runes positioned so a naive 120-byte cut lands mid-rune.
	long := strings.Repeat("é", 100) // 200 bytes
	got := truncateSnippet(long, 121)
	if !utf8.ValidString(got) {
		t.Fatalf("truncated snippet is not valid UTF-8: %q", got)
	}
	if !strings.HasSuffix(got, "...") {
		t.Fatalf("truncated snippet missing ellipsis: %q", got)
	}
	if want := strings.Repeat("é", 60) + "..."; got != want {
		t.Fatalf("cut at %d bytes = %q, want backed up to rune boundary", 121, got)
	}
	if s := truncateSnippet("short", 120); s != "short" {
		t.Fatalf("short snippet must pass through, got %q", s)
	}
}

// TestScanSnippetUTF8 exercises the truncation through a real scan: a call
// statement whose rendering exceeds the snippet bound in the middle of a
// multi-byte rune must still yield valid UTF-8.
func TestScanSnippetUTF8(t *testing.T) {
	src := "package p\n\nfunc F() {\n\tDeleteAll(\"" + strings.Repeat("日", 80) + "\")\n}\n"
	mm := compile(t, "calls", `
change {
	$CALL{name=Delete*}(...)
} into {
}`)
	pts, err := ScanSource("u.go", []byte(src), []*pattern.MetaModel{mm})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("points = %d, want 1", len(pts))
	}
	if !utf8.ValidString(pts[0].Snippet) {
		t.Fatalf("snippet is not valid UTF-8: %q", pts[0].Snippet)
	}
	if !strings.HasSuffix(pts[0].Snippet, "...") {
		t.Fatalf("long snippet should be truncated: %q", pts[0].Snippet)
	}
}

func TestSortedNames(t *testing.T) {
	names := SortedNames(map[string][]byte{"c": nil, "a": nil, "b": nil})
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("SortedNames = %v", names)
	}
}

package profipy

import (
	"strings"
	"testing"
)

const sampleTarget = `package svc

func Teardown(c *Conn, node string) {
	flush(c)
	DeletePort(c, node)
	notify(c)
}
`

const sampleSpec = `
change {
	$BLOCK{tag=b1; stmts=1,*}
	$CALL{name=Delete*}(...)
	$BLOCK{tag=b2; stmts=1,*}
} into {
	$BLOCK{tag=b1}
	$BLOCK{tag=b2}
}`

func TestFacadeCompileScanMutate(t *testing.T) {
	if _, err := Compile("MFC", sampleSpec); err != nil {
		t.Fatalf("Compile: %v", err)
	}
	specs := []Spec{{Name: "MFC", Type: "MFC", DSL: sampleSpec}}
	files := map[string][]byte{"svc.go": []byte(sampleTarget)}
	pl, err := Scan(files, specs)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if pl.Len() != 1 {
		t.Fatalf("points = %d, want 1", pl.Len())
	}
	mut, err := Mutate(files["svc.go"], specs[0], pl.Points[0], MutateOptions{Triggered: true})
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if !strings.Contains(string(mut.Source), "__fault_enabled()") {
		t.Error("triggered mutation missing trigger branch")
	}
	if !strings.Contains(mut.Original, "DeletePort") {
		t.Errorf("original snippet = %q", mut.Original)
	}
}

func TestFacadePredefinedModels(t *testing.T) {
	reg := PredefinedModels()
	m, ok := reg.Get("gswfit")
	if !ok {
		t.Fatal("gswfit model missing")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("gswfit validate: %v", err)
	}
}

func TestFacadeTimeline(t *testing.T) {
	out := Timeline([]Span{{Name: "get", Component: "c", StartNS: 0, EndNS: 10}}, 30)
	if !strings.Contains(out, "c/get") {
		t.Errorf("timeline = %q", out)
	}
}

func TestFacadeRuntime(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{Cores: 4})
	if got := rt.MaxParallel(Image{}); got != 3 {
		t.Errorf("MaxParallel = %d, want 3 (N-1)", got)
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"profipy"
)

const cliTarget = `package svc

func Teardown(c *Conn, node string) {
	flush(c)
	DeletePort(c, node)
	notify(c)
}
`

func writeTarget(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "svc.go"), []byte(cliTarget), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunRequiresSubcommand(t *testing.T) {
	if err := run(nil); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("err = %v", err)
	}
	if err := run([]string{"bogus"}); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunModels(t *testing.T) {
	if err := run([]string{"models"}); err != nil {
		t.Fatalf("models: %v", err)
	}
}

func TestRunScanWithPredefinedModel(t *testing.T) {
	dir := writeTarget(t)
	planPath := filepath.Join(dir, "plan.json")
	if err := run([]string{"scan", "-dir", dir, "-model", "gswfit", "-plan", planPath}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	data, err := os.ReadFile(planPath)
	if err != nil {
		t.Fatalf("plan not written: %v", err)
	}
	if !strings.Contains(string(data), "MFC") {
		t.Error("plan JSON missing MFC points")
	}
}

// TestRunScanIsStable: the per-type counts print in type order, so two
// scans of one tree print the same stdout, and the -plan file holds the
// bytes the library's plan saves to.
func TestRunScanIsStable(t *testing.T) {
	dir := t.TempDir()
	src := cliTarget + `
func Sync(c *Conn, node string, n int) {
	label := "sync-node"
	if node != "" && c != nil {
		audit(c, label)
	} else {
		notify(c)
	}
	send(c, n+1)
}
`
	if err := os.WriteFile(filepath.Join(dir, "svc.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	planPath := filepath.Join(t.TempDir(), "plan.json")
	scan := func() string {
		t.Helper()
		out, err := os.CreateTemp(t.TempDir(), "stdout")
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		stdout := os.Stdout
		os.Stdout = out
		err = run([]string{"scan", "-dir", dir, "-model", "gswfit", "-plan", planPath})
		os.Stdout = stdout
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		data, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	first := scan()
	if types := strings.Count(first, "\n  "); types < 4 {
		t.Fatalf("the target should give at least 4 fault types, got %d:\n%s", types, first)
	}
	for i := 0; i < 5; i++ {
		if again := scan(); again != first {
			t.Fatalf("two scans printed different output:\n%s\n---\n%s", first, again)
		}
	}

	files, err := loadTargetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := loadModelSpecs("gswfit")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := profipy.Scan(files, specs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pl.Save()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(planPath); err != nil || !bytes.Equal(got, want) {
		t.Errorf("the -plan file differs from profipy.Scan(files, specs).Save() (read error %v)", err)
	}
}

func TestRunScanWithModelFile(t *testing.T) {
	dir := writeTarget(t)
	model := `{
  "name": "custom",
  "specs": [
    {"name": "omit", "type": "MFC", "dsl": "change {\n\t$BLOCK{tag=b1; stmts=1,*}\n\t$CALL{name=Delete*}(...)\n\t$BLOCK{tag=b2; stmts=1,*}\n} into {\n\t$BLOCK{tag=b1}\n\t$BLOCK{tag=b2}\n}"}
  ]
}`
	modelPath := filepath.Join(dir, "model.json")
	if err := os.WriteFile(modelPath, []byte(model), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"scan", "-dir", dir, "-model", modelPath}); err != nil {
		t.Fatalf("scan with model file: %v", err)
	}
}

func TestRunMutateWritesOutput(t *testing.T) {
	dir := writeTarget(t)
	out := filepath.Join(dir, "mutant.txt")
	if err := run([]string{"mutate", "-dir", dir, "-model", "gswfit", "-index", "0", "-o", out}); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("mutant not written: %v", err)
	}
	if !strings.Contains(string(data), "__fault_enabled()") {
		t.Error("mutant missing trigger branch")
	}
}

func TestRunMutateIndexOutOfRange(t *testing.T) {
	dir := writeTarget(t)
	if err := run([]string{"mutate", "-dir", dir, "-model", "gswfit", "-index", "9999"}); err == nil {
		t.Fatal("out-of-range index should fail")
	}
}

func TestRunScanErrors(t *testing.T) {
	if err := run([]string{"scan", "-dir", t.TempDir()}); err == nil {
		t.Fatal("scan of empty dir should fail")
	}
	dir := writeTarget(t)
	if err := run([]string{"scan", "-dir", dir, "-model", "no-such-model"}); err == nil {
		t.Fatal("unknown model should fail")
	}
}

func TestRunDemoSampledCampaign(t *testing.T) {
	// The demo subcommand runs a full campaign; keep it snappy.
	if err := run([]string{"demo", "-campaign", "C", "-seed", "5", "-cores", "4"}); err != nil {
		t.Fatalf("demo: %v", err)
	}
	if err := run([]string{"demo", "-campaign", "Z"}); err == nil {
		t.Fatal("unknown campaign should fail")
	}
}

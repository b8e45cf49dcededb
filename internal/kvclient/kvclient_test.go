package kvclient

import (
	"strings"
	"testing"

	"profipy/internal/interp"
	"profipy/internal/plan"
	"profipy/internal/sandbox"
)

// newEnv boots the client sources, plus the driver source when one is
// given, in a fresh container.
func newEnv(t *testing.T, driver ...string) (*sandbox.Container, *interp.Interp) {
	t.Helper()
	rt := sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 2, Seed: 7})
	c := rt.Create(sandbox.Image{Name: "kv", Files: Sources()})
	return c, boot(t, c, driver...)
}

// boot compiles the container's client sources and the driver source
// into one program and runs its declarations with the environment
// installed.
func boot(t *testing.T, c *sandbox.Container, driver ...string) *interp.Interp {
	t.Helper()
	var units []interp.SourceUnit
	for _, f := range []string{FileClient, FileLock, FileAuth, FileWorkload} {
		src, err := c.FS.Read(f)
		if err != nil {
			t.Fatalf("read %s: %v", f, err)
		}
		units = append(units, interp.SourceUnit{Name: f, Src: src})
	}
	for _, src := range driver {
		units = append(units, interp.SourceUnit{Name: "driver.go", Src: []byte(src)})
	}
	prog, err := interp.CompileProgram(units)
	if err != nil {
		t.Fatal(err)
	}
	it := interp.NewRun(prog, interp.Config{DeadlineNS: WorkloadTimeoutNS})
	InstallEnv(it, c)
	if err := it.Boot(); err != nil {
		t.Fatal(err)
	}
	return it
}

func TestFaultFreeWorkloadSucceeds(t *testing.T) {
	_, it := newEnv(t)
	v, err := it.Call("Workload")
	if err != nil {
		t.Fatalf("Workload: %v", err)
	}
	if v != "ok" {
		t.Fatalf("Workload = %v, want ok", v)
	}
}

func TestClientBasicOperations(t *testing.T) {
	// Exercise the client through interpreted method dispatch.
	c, it := newEnv(t, `package driver

func Drive(c any) any {
	c.Set("/x", "1")
	r := c.Get("/x")
	if r.Node.Value != "1" {
		throw("TestFailed", "read-back mismatch")
	}
	c.Delete("/x")
	return "done"
}`)
	srv := mustServer(t, c)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	cl, err := it.Call("NewClient", "http://127.0.0.1:2379", int64(3))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	obj, ok := cl.(*interp.Object)
	if !ok {
		t.Fatalf("NewClient returned %T", cl)
	}
	if v, _ := obj.Get("connected"); v != true {
		t.Fatal("client did not connect")
	}

	out, err := it.Call("Drive", cl)
	if err != nil {
		t.Fatalf("Drive: %v", err)
	}
	if out != "done" {
		t.Fatalf("Drive = %v", out)
	}
}

func mustServer(t *testing.T, c *sandbox.Container) serverIface {
	t.Helper()
	v, ok := c.GetEnv(envKeyState)
	if !ok {
		t.Fatal("server not installed")
	}
	return v.(*envRun).srv
}

type serverIface interface {
	Start() error
	Stop(clean bool)
	Running() bool
}

func TestCampaignPointCounts(t *testing.T) {
	// The scan-phase counts of the three §V campaigns. B and C match the
	// paper exactly (66 and 37); A is within one point of the paper's 26.
	tests := []struct {
		name  string
		files map[string][]byte
		specs int
		want  int
	}{
		{"A", ClientFiles(), len(CampaignAFaultload()), 27},
		{"B", WorkloadFiles(), len(CampaignBFaultload()), 66},
		{"C", WorkloadFiles(), len(CampaignCFaultload()), 37},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var p *plan.Plan
			var err error
			switch tc.name {
			case "A":
				p, err = plan.Build(tc.files, CampaignAFaultload())
			case "B":
				p, err = plan.Build(tc.files, CampaignBFaultload())
			case "C":
				p, err = plan.Build(tc.files, CampaignCFaultload())
			}
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if p.Len() != tc.want {
				t.Fatalf("points = %d, want %d", p.Len(), tc.want)
			}
		})
	}
}

func TestNilKeyRaisesAttributeError(t *testing.T) {
	c, it := newEnv(t, `package driver

func DriveNil(c any) any {
	return c.Get(nil)
}`)
	srv := mustServer(t, c)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	cl, err := it.Call("NewClient", "http://127.0.0.1:2379", int64(3))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	_, err = it.Call("DriveNil", cl)
	if err == nil || !strings.Contains(err.Error(), "AttributeError") {
		t.Fatalf("err = %v, want AttributeError (the §V-B nil-input failure)", err)
	}
}

func TestTracingRecordsSpans(t *testing.T) {
	rt := sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 2, Seed: 9})
	c := rt.Create(sandbox.Image{Name: "kv", Files: Sources()})
	rec := EnableTracing(c)
	it := boot(t, c)
	if _, err := it.Call("Workload"); err != nil {
		t.Fatalf("Workload: %v", err)
	}
	if len(rec.Spans()) == 0 {
		t.Fatal("no spans recorded")
	}
	spans := rec.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].StartNS < spans[i-1].StartNS {
			t.Fatal("spans not ordered by start time")
		}
	}
}

func TestCorruptedValueRejectedByServer(t *testing.T) {
	c, it := newEnv(t, `package driver

func DriveBad(c any) any {
	return c.Set("/k\xff", "v")
}`)
	srv := mustServer(t, c)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	cl, err := it.Call("NewClient", "http://127.0.0.1:2379", int64(3))
	if err != nil {
		t.Fatal(err)
	}
	_, err = it.Call("DriveBad", cl)
	if err == nil || !strings.Contains(err.Error(), "400 Bad Request") {
		t.Fatalf("err = %v, want 400 Bad Request (the §V-B non-ASCII failure)", err)
	}
}

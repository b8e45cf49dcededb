package sandbox

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"profipy/internal/interp"
)

func TestFSBasics(t *testing.T) {
	fs := NewFS()
	fs.Write("a.go", []byte("hello"))
	data, err := fs.Read("a.go")
	if err != nil || string(data) != "hello" {
		t.Fatalf("Read = %q, %v", data, err)
	}
	if _, err := fs.Read("missing"); err == nil {
		t.Fatal("Read of missing file should fail")
	}
	if err := fs.Remove("a.go"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := fs.Remove("a.go"); err == nil {
		t.Fatal("double Remove should fail")
	}
}

func TestFSCloneIsDeep(t *testing.T) {
	fs := NewFS()
	fs.Write("f", []byte("one"))
	clone := fs.Clone()
	fs.Write("f", []byte("two"))
	data, _ := clone.Read("f")
	if string(data) != "one" {
		t.Fatalf("clone sees %q, want one", data)
	}
}

func TestContainerLifecycle(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{Cores: 4})
	img := Image{Name: "kv", Files: map[string][]byte{"client.go": []byte("package x")}}
	c := rt.Create(img)
	if c.State() != StateCreated {
		t.Fatalf("state = %v", c.State())
	}
	if data, err := c.FS.Read("client.go"); err != nil || string(data) != "package x" {
		t.Fatalf("image files not copied: %q %v", data, err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("double Start should fail")
	}
	c.Exit()
	if c.State() != StateExited {
		t.Fatalf("state = %v", c.State())
	}
	if err := rt.Destroy(c); err != nil {
		t.Fatalf("Destroy: %v", err)
	}
	if err := rt.Destroy(c); err == nil {
		t.Fatal("double Destroy should fail")
	}
	st := rt.Stats()
	if st.Created != 1 || st.Destroyed != 1 || st.Active != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDestroyReclaimsLeaks(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{Cores: 2})
	c := rt.Create(Image{Name: "kv"})
	c.FS.Write("/tmp/stale.lock", []byte("leak"))
	if err := rt.Destroy(c); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().LeakedReclaims != 1 {
		t.Fatalf("leaks = %d, want 1", rt.Stats().LeakedReclaims)
	}
	if c.FS.Len() != 0 {
		t.Fatal("filesystem not cleared on destroy")
	}
}

func TestMaxParallelFollowsPAINRule(t *testing.T) {
	// N−1 cores by default.
	rt := NewRuntime(RuntimeConfig{Cores: 8})
	if got := rt.MaxParallel(Image{}); got != 7 {
		t.Fatalf("MaxParallel = %d, want 7", got)
	}
	// Memory pressure reduces parallelism below N−1.
	rt = NewRuntime(RuntimeConfig{Cores: 8, MemCapMB: 1600})
	if got := rt.MaxParallel(Image{MemMB: 512}); got != 3 {
		t.Fatalf("MaxParallel under mem pressure = %d, want 3", got)
	}
	// I/O pressure too.
	rt = NewRuntime(RuntimeConfig{Cores: 8, IOCapMBps: 100})
	if got := rt.MaxParallel(Image{IOMBps: 60}); got != 1 {
		t.Fatalf("MaxParallel under io pressure = %d, want 1", got)
	}
	// Never below 1.
	rt = NewRuntime(RuntimeConfig{Cores: 1})
	if got := rt.MaxParallel(Image{}); got != 1 {
		t.Fatalf("MaxParallel = %d, want 1", got)
	}
}

func TestRunBatchBoundsParallelism(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{Cores: 3}) // 2 workers
	var cur, peak atomic.Int32
	results := RunBatch(rt, Image{}, 16, func(i int) int {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		for j := 0; j < 1000; j++ {
			_ = j * j
		}
		cur.Add(-1)
		return i * 2
	})
	if len(results) != 16 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r != i*2 {
			t.Fatalf("results[%d] = %d (order not preserved)", i, r)
		}
	}
	if peak.Load() > 2 {
		t.Fatalf("peak parallelism = %d, want <= 2", peak.Load())
	}
}

func TestTriggerSharedMemory(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{Cores: 2})
	c := rt.Create(Image{Name: "kv"})
	src := `package main
func F() any {
	if __fault_enabled() {
		return "faulty"
	}
	return "clean"
}`
	it := bootHooked(t, c, src)
	c.SetTrigger(true)
	if got, _ := it.Call("F"); got != "faulty" {
		t.Fatalf("round 1 = %v, want faulty", got)
	}
	c.SetTrigger(false)
	if got, _ := it.Call("F"); got != "clean" {
		t.Fatalf("round 2 = %v, want clean", got)
	}
}

func TestHogAdvancesClockAndContention(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{Cores: 2})
	c := rt.Create(Image{Name: "kv"})
	src := `package main
func F() any {
	__hog("cpu", 2)
	return nil
}`
	it := bootHooked(t, c, src)
	before := it.Clock()
	if _, err := it.Call("F"); err != nil {
		t.Fatal(err)
	}
	if it.Clock()-before < 2*HogVirtualNS {
		t.Fatalf("clock advanced %d, want >= %d", it.Clock()-before, 2*HogVirtualNS)
	}
	if c.Contention() != 2 {
		t.Fatalf("contention = %d, want 2", c.Contention())
	}
}

func TestComponentLogs(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{Cores: 2})
	c := rt.Create(Image{Name: "kv"})
	src := `package main
func F() any {
	__log("client", "ERROR something broke")
	return nil
}`
	it := bootHooked(t, c, src)
	if _, err := it.Call("F"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.LogContents("client"), "ERROR something broke") {
		t.Fatalf("client log = %q", c.LogContents("client"))
	}
}

func TestCorruptDeterministicAndTyped(t *testing.T) {
	a := Corrupt(rand.New(rand.NewSource(7)), "hello-world")
	b := Corrupt(rand.New(rand.NewSource(7)), "hello-world")
	if a != b {
		t.Fatalf("corruption not deterministic: %q vs %q", a, b)
	}
	if s, ok := a.(string); !ok || s == "hello-world" {
		t.Fatalf("corrupt string = %v, want changed string", a)
	}
	if n, ok := Corrupt(rand.New(rand.NewSource(1)), int64(5)).(int64); !ok || n >= 0 {
		t.Fatalf("corrupt int = %v, want negative", n)
	}
	if v := Corrupt(rand.New(rand.NewSource(1)), nil); v != nil {
		t.Fatalf("corrupt nil = %v, want nil", v)
	}
	if v, ok := Corrupt(rand.New(rand.NewSource(1)), true).(bool); !ok || v {
		t.Fatalf("corrupt bool = %v, want false", v)
	}
}

func TestCorruptStringProperties(t *testing.T) {
	// Property: corruption of a non-empty string never yields an empty
	// string and is deterministic for a fixed seed.
	prop := func(seed int64, s string) bool {
		if s == "" {
			return true
		}
		a := corruptString(rand.New(rand.NewSource(seed)), s)
		b := corruptString(rand.New(rand.NewSource(seed)), s)
		return a == b && len(a) > 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestContainerSeedsDiffer(t *testing.T) {
	rt := NewRuntime(RuntimeConfig{Cores: 2, Seed: 100})
	c1 := rt.Create(Image{Name: "kv"})
	c2 := rt.Create(Image{Name: "kv"})
	if c1.Seed() == c2.Seed() {
		t.Fatal("containers must have distinct seeds")
	}
	if c1.ID == c2.ID {
		t.Fatal("containers must have distinct IDs")
	}
}

// bootHooked compiles src into a fresh interpreter with c's hooks
// installed and its declarations run.
func bootHooked(t *testing.T, c *Container, src string) *interp.Interp {
	t.Helper()
	prog, err := interp.CompileProgram([]interp.SourceUnit{{Name: "t.go", Src: []byte(src)}})
	if err != nil {
		t.Fatal(err)
	}
	it := interp.NewRun(prog, interp.Config{})
	InstallHooks(it, c)
	if err := it.Boot(); err != nil {
		t.Fatal(err)
	}
	return it
}

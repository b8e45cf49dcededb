package workload

import (
	"strings"
	"testing"

	"profipy/internal/interp"
	"profipy/internal/runtimefault"
	"profipy/internal/sandbox"
)

func newContainer(files map[string][]byte) (*sandbox.Runtime, *sandbox.Container) {
	rt := sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: 2, Seed: 3})
	return rt, rt.Create(sandbox.Image{Name: "t", Files: files})
}

func env(it *interp.Interp, c *sandbox.Container) { sandbox.InstallHooks(it, c) }

func TestTwoRoundProtocol(t *testing.T) {
	// A target that fails while the fault trigger is on and recovers
	// when it is off.
	src := []byte(`package main

func Workload() any {
	if __fault_enabled() {
		panic(__exc("Boom", "fault active"))
	}
	return "ok"
}`)
	_, c := newContainer(map[string][]byte{"w.go": src})
	res, err := Run(c, Config{Entry: "Workload", Files: []string{"w.go"}, Env: env})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(res.Rounds))
	}
	r1, r2 := res.Round1(), res.Round2()
	if r1.OK || !r1.Crash || r1.Exception != "Boom" {
		t.Errorf("round 1 = %+v, want Boom crash", r1)
	}
	if !r2.OK {
		t.Errorf("round 2 = %+v, want recovery once fault disabled", r2)
	}
	if c.State() != sandbox.StateExited {
		t.Errorf("container state = %v", c.State())
	}
}

// TestInjectorTwoRoundProtocol runs the runtime-injector analog of the
// two-round protocol through the real Run loop: an always fault fires
// in round 1 and stays silent in the disarmed round 2, while a
// round(2)-scoped fault does the inverse.
func TestInjectorTwoRoundProtocol(t *testing.T) {
	src := []byte(`package main

func hooked() any { return 1 }

func Workload() any { return hooked() }`)
	mkEngine := func(when runtimefault.Trigger) *runtimefault.Engine {
		eng, err := runtimefault.NewEngine([]runtimefault.Fault{{
			Name: "rt", Site: "hooked", When: when,
			Do: runtimefault.Action{Kind: runtimefault.ActionRaise, ExcType: "Injected", Message: "m"},
		}}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	_, c := newContainer(map[string][]byte{"w.go": src})
	res, err := Run(c, Config{Entry: "Workload", Files: []string{"w.go"}, Env: env,
		Injector: mkEngine(runtimefault.Trigger{Mode: runtimefault.TriggerAlways})})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r1 := res.Round1(); r1.OK || r1.Exception != "Injected" {
		t.Errorf("always fault round 1 = %+v, want injected crash", r1)
	}
	if r2 := res.Round2(); !r2.OK {
		t.Errorf("always fault round 2 = %+v, want recovery once disarmed", r2)
	}

	_, c2 := newContainer(map[string][]byte{"w.go": src})
	res, err = Run(c2, Config{Entry: "Workload", Files: []string{"w.go"}, Env: env,
		Injector: mkEngine(runtimefault.Trigger{Mode: runtimefault.TriggerRound, Round: 2})})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r1 := res.Round1(); !r1.OK {
		t.Errorf("round(2) fault round 1 = %+v, want clean run", r1)
	}
	if r2 := res.Round2(); r2.OK || r2.Exception != "Injected" {
		t.Errorf("round(2) fault round 2 = %+v, want injected crash", r2)
	}
}

func TestPersistentErrorStateAcrossRounds(t *testing.T) {
	// Error states from round 1 persist into round 2 via the container
	// env/filesystem (here: a leaked file), the unavailability scenario.
	src := []byte(`package main

import "state"

func Workload() any {
	if __fault_enabled() {
		state.Corrupt()
		panic(__exc("Boom", "corrupting"))
	}
	if state.IsCorrupt() {
		panic(__exc("StillBroken", "state persisted"))
	}
	return "ok"
}`)
	_, c := newContainer(map[string][]byte{"w.go": src})
	cfg := Config{Entry: "Workload", Files: []string{"w.go"}, Env: func(it *interp.Interp, ctr *sandbox.Container) {
		sandbox.InstallHooks(it, ctr)
		mod := interp.NewModule("state")
		mod.Func("Corrupt", func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
			ctr.PutEnv("corrupt", true)
			return nil, nil
		})
		mod.Func("IsCorrupt", func(it *interp.Interp, args []interp.Value) (interp.Value, error) {
			_, ok := ctr.GetEnv("corrupt")
			return ok, nil
		})
		it.Install(interp.NewHostEnv().Module(mod))
	}}
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Round2().OK {
		t.Error("round 2 should observe the persisted error state")
	}
	if res.Round2().Exception != "StillBroken" {
		t.Errorf("round 2 exception = %q", res.Round2().Exception)
	}
}

func TestTimeoutDetection(t *testing.T) {
	src := []byte(`package main

func Workload() any {
	if __fault_enabled() {
		for {
		}
	}
	return "ok"
}`)
	_, c := newContainer(map[string][]byte{"w.go": src})
	res, err := Run(c, Config{
		Entry: "Workload", Files: []string{"w.go"}, Env: env,
		TimeoutNS: 50_000_000, // 50ms virtual
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Round1().Timeout {
		t.Errorf("round 1 = %+v, want timeout", res.Round1())
	}
	if !res.Round2().OK {
		t.Errorf("round 2 = %+v, want ok", res.Round2())
	}
}

func TestLogsCollected(t *testing.T) {
	src := []byte(`package main

func Workload() any {
	__log("client", "ERROR something")
	return "ok"
}`)
	_, c := newContainer(map[string][]byte{"w.go": src})
	res, err := Run(c, Config{Entry: "Workload", Files: []string{"w.go"}, Env: env})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !strings.Contains(res.Logs["client"], "ERROR something") {
		t.Errorf("logs = %v", res.Logs)
	}
}

func TestMissingEntryAndFiles(t *testing.T) {
	_, c := newContainer(map[string][]byte{})
	if _, err := Run(c, Config{Files: []string{"w.go"}}); err == nil {
		t.Error("missing entry should fail")
	}
	_, c2 := newContainer(map[string][]byte{})
	if _, err := Run(c2, Config{Entry: "W", Files: []string{"missing.go"}}); err == nil {
		t.Error("missing file should fail")
	}
}

func TestUnparseableMutantIsInfraError(t *testing.T) {
	_, c := newContainer(map[string][]byte{"w.go": []byte("not valid go")})
	if _, err := Run(c, Config{Entry: "W", Files: []string{"w.go"}, Env: env}); err == nil {
		t.Error("unparseable source should surface as an infrastructure error")
	}
}

func TestSingleRoundConfig(t *testing.T) {
	src := []byte(`package main

func Workload() any {
	return "ok"
}`)
	_, c := newContainer(map[string][]byte{"w.go": src})
	res, err := Run(c, Config{Entry: "Workload", Files: []string{"w.go"}, Env: env, Rounds: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Rounds) != 1 {
		t.Errorf("rounds = %d, want 1", len(res.Rounds))
	}
	if r2 := res.Round2(); r2.OK {
		t.Errorf("round 2 of single-round run should be zero value, got %+v", r2)
	}
}

func TestVirtualTimeReported(t *testing.T) {
	src := []byte(`package main

func Workload() any {
	__delay(5000)
	return "ok"
}`)
	_, c := newContainer(map[string][]byte{"w.go": src})
	res, err := Run(c, Config{Entry: "Workload", Files: []string{"w.go"}, Env: env})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Round1().VirtualNS < 5_000_000_000 {
		t.Errorf("virtual time = %d, want >= 5s", res.Round1().VirtualNS)
	}
}

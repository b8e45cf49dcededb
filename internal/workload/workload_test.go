package workload

import (
	"fmt"
	"reflect"
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

// roundLog records the BeginRound sequence an injector is driven through.
type roundLog struct {
	Injector
	calls []string
}

func (l *roundLog) BeginRound(round int, faultEnabled bool) {
	l.calls = append(l.calls, fmt.Sprintf("%d:%v", round, faultEnabled))
	l.Injector.BeginRound(round, faultEnabled)
}

// runProtocol runs the experiment of cfg over the single source w.go and
// returns its result and container: straight through Run, or, when
// forked, with round 1 resumed from the base program's prefix for site
// (BuildPrefixes at threshold 0, then RunForked). A forked run must
// return the straight run's Result — same trigger arming, same logs —
// and drive its injector (built by newInjector, when set) through the
// same BeginRound sequence; the prefix build, whose recorder replaces
// the injector, drives none.
func runProtocol(t *testing.T, src, site string, cfg Config, newInjector func() Injector, forked bool) (*Result, *sandbox.Container) {
	t.Helper()
	files := map[string][]byte{"w.go": []byte(src)}
	cfg.Files, cfg.Env = []string{"w.go"}, env
	cfg.Program = compileSrc(t, src)
	logged := func() (Config, *roundLog) {
		l := &roundLog{}
		if newInjector != nil {
			l.Injector = newInjector()
			cfg := cfg
			cfg.Injector = l
			return cfg, l
		}
		return cfg, l
	}

	scfg, straightLog := logged()
	_, sc := newContainer(files)
	want, err := Run(sc, scfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !forked {
		return want, sc
	}

	SetMinForkSteps(t, 0)
	bcfg, buildLog := logged()
	_, bc := newContainer(files)
	ps, err := BuildPrefixes(bc, bcfg, []string{site})
	if err != nil {
		t.Fatalf("BuildPrefixes: %v", err)
	}
	if len(buildLog.calls) != 0 {
		t.Errorf("prefix build drove the injector: %v", buildLog.calls)
	}
	fcfg, forkLog := logged()
	_, fc := newContainer(files)
	got, ok, miss := RunForked(fc, fcfg, ForkSpec{Prefix: ps.For(site), BaseFiles: files})
	if !ok {
		t.Fatalf("RunForked missed: %v", miss)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("forked result differs from the straight run:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(forkLog.calls, straightLog.calls) {
		t.Errorf("forked BeginRound sequence = %v, straight %v", forkLog.calls, straightLog.calls)
	}
	return got, fc
}

// TestTwoRoundProtocol runs a target that fails while the fault trigger
// is on and recovers when it is off, straight and forked, over two and
// three rounds; the target prints the trigger each round, so the logs
// hold the arming.
func TestTwoRoundProtocol(t *testing.T) {
	src := `package main

func site() any {
	println("trigger", __fault_enabled())
	if __fault_enabled() {
		panic(__exc("Boom", "fault active"))
	}
	return "ok"
}

func Workload() any {
	return site()
}`
	for _, tc := range []struct {
		rounds, want int
		forked       bool
	}{{0, 2, false}, {0, 2, true}, {3, 3, false}, {3, 3, true}} {
		t.Run(fmt.Sprintf("rounds=%d/forked=%v", tc.rounds, tc.forked), func(t *testing.T) {
			res, c := runProtocol(t, src, "site", Config{Entry: "Workload", Rounds: tc.rounds}, nil, tc.forked)
			if len(res.Rounds) != tc.want {
				t.Fatalf("rounds = %d, want %d", len(res.Rounds), tc.want)
			}
			if r1 := res.Round1(); r1.OK || !r1.Crash || r1.Exception != "Boom" {
				t.Errorf("round 1 = %+v, want Boom crash", r1)
			}
			for i, r := range res.Rounds[1:] {
				if !r.OK {
					t.Errorf("round %d = %+v, want recovery once fault disabled", i+2, r)
				}
			}
			if want := "trigger true\n" + strings.Repeat("trigger false\n", tc.want-1); res.Logs["stdout"] != want {
				t.Errorf("stdout = %q, want %q", res.Logs["stdout"], want)
			}
			if c.State() != sandbox.StateExited {
				t.Errorf("container state = %v", c.State())
			}
		})
	}
}

// TestInjectorTwoRoundProtocol runs the runtime-injector analog of the
// two-round protocol through the real round loop, straight and forked:
// an always fault fires in round 1 and stays silent in the disarmed
// later rounds, while a round(N)-scoped fault fires in round N only.
func TestInjectorTwoRoundProtocol(t *testing.T) {
	src := `package main

func hooked() any { return 1 }

func Workload() any { return hooked() }`
	mkEngine := func(when runtimefault.Trigger) func() Injector {
		return func() Injector {
			eng, err := runtimefault.NewEngine([]runtimefault.Fault{{
				Name: "rt", Site: "hooked", When: when,
				Do: runtimefault.Action{Kind: runtimefault.ActionRaise, ExcType: "Injected", Message: "m"},
			}}, 7)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
	}
	for _, tc := range []struct {
		name   string
		when   runtimefault.Trigger
		rounds int
		fires  int // the 1-based round the fault crashes
	}{
		{"always", runtimefault.Trigger{Mode: runtimefault.TriggerAlways}, 0, 1},
		{"round(2)", runtimefault.Trigger{Mode: runtimefault.TriggerRound, Round: 2}, 0, 2},
		{"round(3)", runtimefault.Trigger{Mode: runtimefault.TriggerRound, Round: 3}, 3, 3},
	} {
		for _, forked := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/forked=%v", tc.name, forked), func(t *testing.T) {
				res, _ := runProtocol(t, src, "hooked", Config{Entry: "Workload", Rounds: tc.rounds}, mkEngine(tc.when), forked)
				for i, r := range res.Rounds {
					if i+1 == tc.fires && (r.OK || r.Exception != "Injected") {
						t.Errorf("round %d = %+v, want injected crash", i+1, r)
					}
					if i+1 != tc.fires && !r.OK {
						t.Errorf("round %d = %+v, want clean run", i+1, r)
					}
				}
			})
		}
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
	src := `package main

func site() any { return "ok" }

func Workload() any {
	return site()
}`
	for _, forked := range []bool{false, true} {
		res, _ := runProtocol(t, src, "site", Config{Entry: "Workload", Rounds: 1}, nil, forked)
		if len(res.Rounds) != 1 {
			t.Errorf("forked=%v: rounds = %d, want 1", forked, len(res.Rounds))
		}
		if r2 := res.Round2(); r2.OK {
			t.Errorf("forked=%v: round 2 of single-round run should be zero value, got %+v", forked, r2)
		}
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

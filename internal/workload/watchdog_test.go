package workload

import (
	"strings"
	"testing"
	"time"

	"profipy/internal/interp"
	"profipy/internal/obs"
	"profipy/internal/sandbox"
)

// hangSrc burns real time in round 1 without tripping the virtual
// deadline or step budget below: only the wall-clock watchdog can end
// it. The site is entered from the entry's last statement, so a prefix
// build at threshold 0 gives it a snapshot to fork from.
const hangSrc = `package main

func site() any {
	if __fault_enabled() {
		for {
		}
	}
	return "ok"
}

func Workload() any {
	x := 0
	x = x + 1
	return site()
}`

// TestWatchdogKillsWallClockHang drives the hang through each kind of
// round — straight (Run), prefix-building (BuildPrefixes) and forked
// (RunForked onto the hanging mutant of a calm base program). Each must
// come back as a watchdog-marked timeout, counted once in
// profipy_workload_watchdog_timeouts_total, instead of pinning the test
// forever; a fault-free round 2 is untouched.
func TestWatchdogKillsWallClockHang(t *testing.T) {
	SetMinForkSteps(t, 0)
	calmSrc := strings.Replace(hangSrc, "__fault_enabled()", "false", 1)
	for _, tc := range []struct {
		name string
		// run returns round 1 and, when the kind runs one, round 2.
		run func(t *testing.T, cfg Config) (RoundResult, *RoundResult)
	}{
		{"straight", func(t *testing.T, cfg Config) (RoundResult, *RoundResult) {
			_, c := newContainer(map[string][]byte{"w.go": []byte(hangSrc)})
			res, err := Run(c, cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			r2 := res.Round2()
			return res.Round1(), &r2
		}},
		{"building", func(t *testing.T, cfg Config) (RoundResult, *RoundResult) {
			_, c := newContainer(map[string][]byte{"w.go": []byte(hangSrc)})
			cfg.Program = compileSrc(t, hangSrc)
			ps, err := BuildPrefixes(c, cfg, []string{"site"})
			if err != nil {
				t.Fatalf("BuildPrefixes: %v", err)
			}
			r1, err := ps.Round()
			if err != nil {
				t.Fatalf("build round: %v", err)
			}
			return r1, nil
		}},
		{"forked", func(t *testing.T, cfg Config) (RoundResult, *RoundResult) {
			base := map[string][]byte{"w.go": []byte(calmSrc)}
			rt, c := newContainer(base)
			exp := rt.Create(sandbox.Image{Name: "t", Files: base})
			cfg.Program = compileSrc(t, calmSrc)
			ps, err := BuildPrefixes(c, cfg, []string{"site"})
			if err != nil {
				t.Fatalf("BuildPrefixes: %v", err)
			}
			if cfg.Program, err = cfg.Program.WithFiles(map[string][]byte{"w.go": []byte(hangSrc)}); err != nil {
				t.Fatal(err)
			}
			overlay := map[string][]byte{"w.go": []byte(hangSrc)}
			res, ok, miss := RunForked(exp, cfg, ForkSpec{Prefix: ps.For("site"), BaseFiles: base, Overlay: overlay})
			if !ok {
				t.Fatalf("RunForked missed: %v", miss)
			}
			r2 := res.Round2()
			return res.Round1(), &r2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := Config{
				Entry: "Workload", Files: []string{"w.go"}, Env: env, Metrics: reg,
				// Virtual deadline and step budget far beyond what the
				// watchdog allows, so the wall clock is the only limiter.
				TimeoutNS:    3_600_000_000_000,
				MaxSteps:     1 << 60,
				WallBudgetNS: (50 * time.Millisecond).Nanoseconds(),
			}
			start := time.Now()
			r1, r2 := tc.run(t, cfg)
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("watchdog took %v to fire", elapsed)
			}
			if !r1.Timeout || !r1.Watchdog {
				t.Errorf("round 1 = %+v, want watchdog timeout", r1)
			}
			if !strings.Contains(r1.Message, "watchdog") {
				t.Errorf("round 1 message = %q, want watchdog marker", r1.Message)
			}
			if r2 != nil && !r2.OK {
				t.Errorf("round 2 = %+v, want ok (fault disabled, loop never entered)", *r2)
			}
			if n := WatchdogTimeouts(reg).Value(); n != 1 {
				t.Errorf("profipy_workload_watchdog_timeouts_total = %v, want 1", n)
			}
		})
	}
}

func compileSrc(t *testing.T, src string) *interp.Program {
	t.Helper()
	prog, err := interp.CompileProgram([]interp.SourceUnit{{Name: "w.go", Src: []byte(src)}})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestWatchdogDisabledByDefault leaves WallBudgetNS at zero and lets
// the virtual deadline fire as before: the round is a plain timeout,
// never watchdog-marked, keeping existing campaigns' records stable.
func TestWatchdogDisabledByDefault(t *testing.T) {
	_, c := newContainer(map[string][]byte{"w.go": []byte(hangSrc)})
	res, err := Run(c, Config{
		Entry: "Workload", Files: []string{"w.go"}, Env: env,
		TimeoutNS: 50_000_000, // 50ms virtual
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r1 := res.Round1()
	if !r1.Timeout || r1.Watchdog {
		t.Errorf("round 1 = %+v, want plain virtual-deadline timeout", r1)
	}
}

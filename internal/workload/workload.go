// Package workload implements ProFIPy's experiment execution protocol
// (§IV-B): the user-configured workload exercises the (mutated) target
// software inside a container for two rounds — round 1 with the injected
// fault enabled through the shared-memory trigger, round 2 with it
// disabled and without redeploying — under a virtual-time timeout.
// Round 2's outcome feeds the service availability analysis.
package workload

import (
	"errors"
	"fmt"
	"time"

	"profipy/internal/interp"
	"profipy/internal/obs"
	"profipy/internal/sandbox"
)

// Config describes how to exercise the target software.
type Config struct {
	// Entry is the workload entry function (e.g. "Workload").
	Entry string
	// Files are container paths of the sources to load, in load order.
	Files []string
	// TimeoutNS is the virtual deadline per round; expiring counts as a
	// hang (the paper's worst-case 120s experiments).
	TimeoutNS int64
	// MaxSteps bounds real work per round.
	MaxSteps int64
	// Env installs host modules and hooks on each round's interpreter
	// (the kvclient environment, for the case study).
	Env func(it *interp.Interp, c *sandbox.Container)
	// Program is the compiled form of Files that every round executes.
	// The campaign compiles the base file set once and derives one
	// program per experiment (mutated file only); when nil, Run compiles
	// Files as read from the container filesystem, once for all rounds.
	Program *interp.Program
	// Rounds is the number of workload rounds; 0 selects the paper's
	// two-round protocol.
	Rounds int
	// Injector, when set, is the experiment's runtime fault injector
	// table (runtimefault.Engine): it is installed as the call hook of
	// every round's interpreter and armed per round exactly like the
	// compile-time trigger (round 1 armed, later rounds disarmed). One
	// injector serves all rounds of one experiment, so activation
	// counters persist across rounds.
	Injector Injector
	// WallBudgetNS bounds the real (wall-clock) time of one round; 0
	// disables the watchdog. The virtual deadline and step budget above
	// catch hangs of well-behaved interpreted code, but a mutated
	// program can loop inside a single expensive host operation — the
	// watchdog interrupts the interpreter from outside so the round is
	// classified as a timeout instead of stalling its whole shard.
	// Watchdog firings are inherently wall-clock-dependent, so leave
	// this off for campaigns that must be byte-reproducible.
	WallBudgetNS int64
	// Metrics, when set, counts watchdog firings (WatchdogTimeouts).
	Metrics *obs.Registry
	// CaptureEnv and RestoreEnv freeze and reapply whatever state Env
	// keeps in the container's env bag (the kvclient server, clock base,
	// trace spans), enabling prefix-snapshot forking. CaptureEnv returns
	// ok=false when the environment holds state it cannot capture
	// faithfully; RestoreEnv returns ok=false on shape mismatch. Leave
	// both nil for environments that keep no env-bag state. See
	// BuildPrefixes and RunForked.
	CaptureEnv func(c *sandbox.Container) (any, bool)
	RestoreEnv func(c *sandbox.Container, state any) bool
}

// Injector is a runtime fault injector table attachable to a workload:
// the interpreter call hook plus per-round arming.
type Injector interface {
	interp.CallHook
	// BeginRound arms or disarms the table for round (0-based).
	BeginRound(round int, faultEnabled bool)
}

// RoundResult is the outcome of one workload round.
type RoundResult struct {
	OK        bool   `json:"ok"`
	Crash     bool   `json:"crash"`
	Timeout   bool   `json:"timeout"`
	Exception string `json:"exception,omitempty"`
	Message   string `json:"message,omitempty"`
	VirtualNS int64  `json:"virtualNs"`
	Steps     int64  `json:"steps"`
	// Watchdog marks a timeout forced by the wall-clock watchdog
	// (Config.WallBudgetNS) rather than the virtual deadline.
	Watchdog bool `json:"watchdog,omitempty"`
}

// Failed reports whether the round ended in a service failure.
func (r RoundResult) Failed() bool { return !r.OK }

// Result is the outcome of one experiment: the per-round results plus
// the collected logs (system logs, workload logs) for data analysis.
type Result struct {
	Rounds []RoundResult     `json:"rounds"`
	Logs   map[string]string `json:"logs"`
}

// Round1 returns the fault-enabled round's result.
func (r *Result) Round1() RoundResult { return r.Rounds[0] }

// Round2 returns the fault-disabled round's result (valid when the
// two-round protocol ran).
func (r *Result) Round2() RoundResult {
	if len(r.Rounds) < 2 {
		return RoundResult{}
	}
	return r.Rounds[1]
}

// Run executes the experiment protocol in a container whose filesystem
// already holds the (mutated) target sources.
func Run(c *sandbox.Container, cfg Config) (*Result, error) {
	if cfg.Entry == "" {
		return nil, fmt.Errorf("workload: no entry function configured")
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	defer c.Exit()
	if cfg.Program == nil {
		prog, err := compileFiles(c, cfg.Files)
		if err != nil {
			return nil, err
		}
		cfg.Program = prog
	}
	return protocol(c, cfg, nil)
}

// compileFiles compiles the sources as read from the container
// filesystem. A source that does not compile is an experiment
// infrastructure error, not a target failure.
func compileFiles(c *sandbox.Container, files []string) (*interp.Program, error) {
	units := make([]interp.SourceUnit, 0, len(files))
	for _, f := range files {
		src, err := c.FS.Read(f)
		if err != nil {
			return nil, fmt.Errorf("workload: missing target file %s: %w", f, err)
		}
		units = append(units, interp.SourceUnit{Name: f, Src: src})
	}
	prog, err := interp.CompileProgram(units)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return prog, nil
}

// protocol runs the experiment's rounds of cfg.Program in a started
// container and collects its logs. Each round gets a fresh interpreter;
// container state (filesystem, server, logs, contention) persists
// across rounds. Round 1 resumes from fork when it is set (RunForked);
// every other round runs the entry from its start.
func protocol(c *sandbox.Container, cfg Config, fork *ForkSpec) (*Result, error) {
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = 2
	}
	res := &Result{Logs: map[string]string{}}
	for i := 0; i < rounds; i++ {
		it, err := arm(c, cfg, i, nil, fork)
		var rr RoundResult
		if err == nil {
			rr, err = play(it, cfg, fork, nil)
		}
		if err != nil {
			return nil, err
		}
		res.Rounds = append(res.Rounds, rr)
		fork = nil
	}
	for _, name := range c.LogNames() {
		res.Logs[name] = c.LogContents(name)
	}
	return res, nil
}

// arm prepares round i (0-based) in c and returns its interpreter. The
// trigger and the injector are on in round 1 only; hook, when set (the
// prefix build's recorder), replaces the injector. A round resumed from
// fork first takes the prefix's container state and the experiment's
// overlay, and after the environment is installed, the prefix's
// environment state; any other round boots.
func arm(c *sandbox.Container, cfg Config, i int, hook interp.CallHook, fork *ForkSpec) (*interp.Interp, error) {
	if fork != nil {
		// Before the interpreter takes the stdout stream: RestoreState
		// swaps the log buffers.
		c.RestoreState(fork.Prefix.Ctr)
		for p, src := range fork.Overlay {
			c.FS.Write(p, src)
		}
	}
	enabled := i == 0
	c.SetTrigger(enabled)
	icfg := interp.Config{
		DeadlineNS: cfg.TimeoutNS,
		MaxSteps:   cfg.MaxSteps,
		Stdout:     c.Log("stdout"),
		Hook:       hook,
	}
	if hook == nil && cfg.Injector != nil {
		cfg.Injector.BeginRound(i, enabled)
		icfg.Hook = cfg.Injector
	}
	it := interp.NewRun(cfg.Program, icfg)
	if cfg.Env != nil {
		cfg.Env(it, c)
	}
	switch {
	case fork == nil:
		if err := it.Boot(); err != nil {
			// A program that does not boot (unknown module, failing
			// top-level init) is an experiment infrastructure error, not
			// a target failure — same classification as a compile error.
			return nil, fmt.Errorf("workload: %w", err)
		}
	case fork.Prefix.HasEnv && !cfg.RestoreEnv(c, fork.Prefix.Env):
		return nil, MissEnv
	}
	return it, nil
}

// play runs an armed round — resumed from fork's snapshot when set,
// else the entry through CallPrefix with checkpoint (nil: a plain call)
// — and classifies how it ended. The wall-clock watchdog is armed
// around the run only: Interrupt is the interpreter's one cross-goroutine
// entry point, so a round that burns real time inside a loop the virtual
// clock undercounts is killed instead of pinning its shard worker.
func play(it *interp.Interp, cfg Config, fork *ForkSpec, checkpoint func(int) bool) (RoundResult, error) {
	if cfg.WallBudgetNS > 0 {
		wd := time.AfterFunc(time.Duration(cfg.WallBudgetNS), it.Interrupt)
		defer wd.Stop()
	}
	var err error
	if fork != nil {
		_, err = it.Fork(fork.Prefix.Snap)
	} else {
		_, err = it.CallPrefix(cfg.Entry, checkpoint)
	}
	return classify(it, err, cfg)
}

// WatchdogTimeouts is reg's count of rounds the wall-clock watchdog
// killed. A campaign registers it when instrumented, so the family reads
// 0 before the first kill instead of being absent.
func WatchdogTimeouts(reg *obs.Registry) *obs.Counter {
	return reg.Counter("profipy_workload_watchdog_timeouts_total",
		"Experiment rounds killed by the wall-clock watchdog.")
}

// classify turns one round's interpreter outcome into a RoundResult;
// non-workload errors (infrastructure failures) pass through as errors.
func classify(it *interp.Interp, err error, cfg Config) (RoundResult, error) {
	rr := RoundResult{VirtualNS: it.Clock(), Steps: it.Steps()}
	switch {
	case err == nil:
		rr.OK = true
	case errors.Is(err, interp.ErrInterrupted):
		rr.Timeout = true
		rr.Watchdog = true
		rr.Message = "workload timeout (watchdog: wall-clock budget exceeded)"
		WatchdogTimeouts(cfg.Metrics).Inc()
	case errors.Is(err, interp.ErrTimeout), errors.Is(err, interp.ErrSteps):
		rr.Timeout = true
		rr.Message = "workload timeout (hang)"
	default:
		var pe *interp.PanicError
		if errors.As(err, &pe) {
			rr.Crash = true
			rr.Message = err.Error()
			if exc, ok := pe.Exception(); ok {
				rr.Exception = exc.Type
			}
		} else {
			return RoundResult{}, err
		}
	}
	return rr, nil
}

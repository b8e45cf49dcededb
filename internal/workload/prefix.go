// Prefix-snapshot fork execution: a campaign's experiments all replay
// the same workload prefix until their fault site is first reached —
// for late sites that is nearly the whole round, duplicated once per
// experiment. BuildPrefixes runs the base program once, snapshotting
// interpreter + container + environment state at the entry function's
// top-level statement boundaries, and maps every injection site to the
// snapshot taken just before the statement that first reaches it.
// RunForked then resumes an experiment's round 1 from that snapshot
// instead of re-running from round zero. The run also records every
// statement it reaches: it is the campaign's coverage pass (§IV-D).
//
// Correctness rests on the boundary discipline: a site's snapshot
// precedes the statement during which the site's function is first
// entered, so the prefix contains no execution of any code the
// experiment mutates (mutations live inside the site function's body),
// and the base-program prefix is step-for-step identical to what the
// experiment's round 1 would have executed. Anything that breaks that
// identity — contention, uncapturable environment state, a mutated
// function captured in a closure, an overlay file the prefix wrote —
// makes the experiment fall back to a full run. Forked and straight
// execution therefore produce byte-identical records by construction.
//
// Whether a prefix is worth forking from is decided here and nowhere
// else, from what the build pass measures: see minForkSteps.
package workload

import (
	"bytes"
	"errors"
	"fmt"

	"profipy/internal/interp"
	"profipy/internal/sandbox"
)

// minForkSteps is the fork policy: BuildPrefixes snapshots only at
// boundaries the base round reaches with at least this many interpreter
// steps behind it, so a site whose prefix is shorter runs in full.
// Resuming from a snapshot costs a container-state restore plus an
// interpreter-state copy per experiment, which a short prefix does not
// buy back. The repository benchmark has a workload on each side:
// mix.local's §V rounds are 1 492 steps and their sites skip 3–1 249 of
// them — forking all of those cost 5–9 % work_per_s_p75 and 21–28 %
// first_record_ms_p25 in interleaved 20 s pairs — while late.fork's
// sites skip 9 685–9 799 of 9 816 steps and fork at ≈ 1.6× the full-run
// throughput. 4 096 sits between the two with a factor of two to spare
// on either side; at it mix.local pays one un-snapshotted base round
// per campaign (≈ 1.4 % over 10 pairs, inside its spread) and late.fork
// takes 7 snapshots instead of 17. A variable only so export_test.go
// can lower it; nothing outside this package reads it.
var minForkSteps int64 = 4096

// Prefix is one shared snapshot: everything needed to resume round 1 of
// any experiment whose site is first reached at this boundary. Immutable
// after capture; restores always copy.
type Prefix struct {
	// Snap is the interpreter state (frames, cells, globals, clock).
	Snap *interp.Snapshot
	// Ctr is the container state (filesystem, logs, contention).
	Ctr *sandbox.ContainerState
	// Env is the environment state from Config.CaptureEnv, if any.
	Env    any
	HasEnv bool
}

// PrefixStats summarizes one BuildPrefixes pass.
type PrefixStats struct {
	// Snapshots is how many distinct boundary snapshots were captured.
	Snapshots int
	// Sites is how many injection sites were requested.
	Sites int
	// Covered is how many sites got a usable prefix; the rest (never
	// reached, reached too early, or reached after snapshotting stopped)
	// run in full.
	Covered int
	// Short is how many of the uncovered sites were first reached before
	// any boundary had minForkSteps behind it: forking them was possible
	// but judged not worth a snapshot.
	Short int
}

// PrefixSet maps injection sites to their shared prefixes.
type PrefixSet struct {
	prefixes map[string]*Prefix
	stats    PrefixStats
	round    RoundResult // how the building run ended
	roundErr error
	prog     *interp.Program
	reached  []uint64 // one bit per statement ID of prog the run reached
}

// For returns the prefix for a site's function, or nil.
func (ps *PrefixSet) For(fn string) *Prefix {
	if ps == nil {
		return nil
	}
	return ps.prefixes[fn]
}

// Stats reports build statistics.
func (ps *PrefixSet) Stats() PrefixStats {
	if ps == nil {
		return PrefixStats{}
	}
	return ps.stats
}

// Round reports how the build's round ended (see classify).
func (ps *PrefixSet) Round() (RoundResult, error) { return ps.round, ps.roundErr }

// Reached reports whether the round ran the statement at offset off of file.
func (ps *PrefixSet) Reached(file string, off int) bool {
	id, ok := ps.prog.StmtAt(file, off)
	return ok && ps.reached[id>>6]&(1<<(id&63)) != 0
}

// siteRecorder observes first-reach of injection sites and every statement
// run (interp.ReachHook); it never perturbs execution or adds a step.
type siteRecorder struct {
	want    map[string]bool
	seen    map[string]bool
	fresh   []string // sites first seen since the last drain
	reached []uint64
}

func (r *siteRecorder) Reach(stmt int) { r.reached[stmt>>6] |= 1 << (stmt & 63) }

func (r *siteRecorder) EnterCall(it *interp.Interp, fn string) error {
	if r.want[fn] && !r.seen[fn] {
		r.seen[fn] = true
		r.fresh = append(r.fresh, fn)
	}
	return nil
}

func (r *siteRecorder) LeaveCall(it *interp.Interp, fn string, result interp.Value) (interp.Value, error) {
	return result, nil
}

func (r *siteRecorder) drain() []string {
	out := r.fresh
	r.fresh = nil
	return out
}

// BuildPrefixes executes the base program's round 1 once in the given
// container (created from the base image, no overlay, same trigger
// conditions as an experiment's round 1), snapshotting at entry-body
// statement boundaries and assigning each injection site the snapshot
// captured just before the statement that first entered it. Boundaries
// with fewer than minForkSteps steps behind them take no snapshot, so
// the sites first reached from them — and the entry function itself,
// whose EnterCall precedes the first boundary — are left uncovered and
// counted as Short. Prefixes captured before a failure are still valid;
// the outcome and the reach stay on the set (Round, Reached).
func BuildPrefixes(c *sandbox.Container, cfg Config, sites []string) (*PrefixSet, error) {
	if cfg.Entry == "" || cfg.Program == nil {
		return nil, fmt.Errorf("workload: prefixes require a compiled program and an entry")
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	defer c.Exit()

	rec := &siteRecorder{want: make(map[string]bool, len(sites)), seen: make(map[string]bool),
		reached: make([]uint64, (cfg.Program.Stmts()+63)/64)}
	for _, s := range sites {
		rec.want[s] = true
	}
	// Round-1 conditions: the trigger is on, but the base program never
	// consults it (only injected fault code does, and there is none).
	it, err := arm(c, cfg, 0, rec, nil)
	if err != nil {
		return nil, err
	}

	ps := &PrefixSet{prefixes: make(map[string]*Prefix)}
	var last *Prefix // snapshot captured at the previous boundary
	short := true    // no boundary has had minForkSteps behind it yet
	assign := func() {
		for _, fn := range rec.drain() {
			switch {
			case last != nil:
				ps.prefixes[fn] = last
			case short:
				ps.stats.Short++
			}
		}
	}
	checkpoint := func(stmt int) bool {
		assign()
		if len(rec.seen) == len(rec.want) {
			last = nil
			return false // every site assigned; stop snapshotting
		}
		if it.Steps() < minForkSteps {
			return true // too little to skip; look again at the next boundary
		}
		short = false
		if c.Contention() != 0 {
			// Contention drives RNG draws and stalls the capture cannot
			// reproduce; stop snapshotting (should not happen on a base
			// program, which has no injected hogs).
			last = nil
			return false
		}
		snap, err := it.Snapshot()
		if err != nil {
			last = nil
			return false
		}
		pre := &Prefix{Snap: snap, Ctr: c.CaptureState()}
		if cfg.CaptureEnv != nil {
			env, ok := cfg.CaptureEnv(c)
			if !ok {
				last = nil
				return false
			}
			pre.Env, pre.HasEnv = env, true
		} else if len(c.EnvKeys()) > 0 {
			// The environment keeps state nobody can capture.
			last = nil
			return false
		}
		ps.stats.Snapshots++
		last = pre
		return true
	}
	ps.round, ps.roundErr = play(it, cfg, nil, checkpoint)
	assign()
	ps.prog, ps.reached = cfg.Program, rec.reached
	ps.stats.Sites = len(sites)
	ps.stats.Covered = len(ps.prefixes)
	return ps, nil
}

// ForkSpec carries what RunForked needs beyond the workload config.
type ForkSpec struct {
	// Prefix is the site's shared snapshot.
	Prefix *Prefix
	// BaseFiles is the campaign's base image layer; used to verify the
	// prefix did not modify a path the experiment's overlay shadows.
	BaseFiles map[string][]byte
	// Overlay is the experiment image's copy-on-write layer (the mutated
	// source), re-applied after the container state restore.
	Overlay map[string][]byte
}

// ForkMiss is why RunForked declined to fork an experiment; its values
// are the bounded reason set fork misses are counted by.
type ForkMiss string

func (m ForkMiss) Error() string { return "workload: fork miss: " + string(m) }

const (
	MissConfig     ForkMiss = "config"     // no prefix, program or entry
	MissOverlay    ForkMiss = "overlay"    // the prefix wrote a path the experiment's overlay shadows
	MissNoRestore  ForkMiss = "no_restore" // the prefix holds env state and cfg has no RestoreEnv
	MissEnv        ForkMiss = "env"        // RestoreEnv refused the captured state
	MissUnforkable ForkMiss = "unforkable" // interp.ErrUnforkable: a mutated function is captured in the snapshot
	MissStart      ForkMiss = "start"      // the container did not start
	MissRound      ForkMiss = "round"      // a round ended in an infrastructure error; the straight path surfaces it
)

// RunForked executes the experiment protocol with round 1 resumed from a
// prefix snapshot; later rounds run normally (they depend on round 1's
// end state, which differs per experiment). It returns ok=false — with
// the container in an unspecified state and a ForkMiss naming the cause
// — whenever the experiment cannot be forked faithfully; the caller
// falls back to Run on a fresh container, so every fallback path stays
// byte-identical by re-running instead of improvising.
func RunForked(c *sandbox.Container, cfg Config, spec ForkSpec) (*Result, bool, error) {
	pre := spec.Prefix
	if pre == nil || cfg.Entry == "" || cfg.Program == nil {
		return nil, false, MissConfig
	}
	// Overlay safety: the restore below replays the prefix container's
	// filesystem, which holds base bytes at the overlay's paths. Those
	// can only be re-shadowed if the prefix left them untouched.
	for p := range spec.Overlay {
		got, ok := pre.Ctr.File(p)
		base, bok := spec.BaseFiles[p]
		if !ok || !bok || !bytes.Equal(got, base) {
			return nil, false, MissOverlay
		}
	}
	if pre.HasEnv && cfg.RestoreEnv == nil {
		return nil, false, MissNoRestore
	}
	if err := c.Start(); err != nil {
		return nil, false, MissStart
	}
	defer c.Exit()
	res, err := protocol(c, cfg, &spec)
	if err != nil {
		miss := MissRound
		switch {
		case errors.As(err, &miss): // arm's refusal, MissEnv
		case errors.Is(err, interp.ErrUnforkable):
			miss = MissUnforkable
		}
		return nil, false, miss
	}
	return res, true, nil
}

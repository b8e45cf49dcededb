package runtimefault

import (
	"fmt"
	"math"
	"math/rand"
	"unicode/utf8"

	"profipy/internal/interp"
	"profipy/internal/lazyrand"
	"profipy/internal/pattern"
)

// Engine is a per-experiment injector table: it implements the
// interpreter's CallHook and fires the armed faults whose site selector
// matches the activated function. One engine serves every round of one
// experiment (activation counters persist across rounds, like the
// in-process state of a long-running injector); create a fresh engine
// per experiment.
//
// The engine is intentionally lock-free: a workload executes its rounds
// sequentially on one goroutine, and campaigns build one engine per
// experiment, so the only cross-goroutine access is reading Report
// after the experiment completes (ordered by the campaign's own
// synchronization).
type Engine struct {
	faults []armedFault
	rng    *rand.Rand

	// round is the 1-based current workload round; armed gates firing
	// (round 2 of the two-round protocol runs with faults disarmed, the
	// runtime analog of the mutator's __fault_enabled trigger).
	// Round-scoped faults are instead gated by everArmed — whether any
	// round of this experiment ran fault-enabled — so a round(2) fault
	// can fire during the normally-disarmed round 2 of a fault-enabled
	// experiment while staying silent in a run that never arms a round
	// (the coverage pass installs no injector at all).
	round     int
	armed     bool
	everArmed bool

	// sites memoizes site-glob resolution per function name.
	sites map[string][]int
}

type armedFault struct {
	fault       Fault
	activations int64
	fires       int64
}

// Activation is the per-fault outcome of one experiment: how often the
// fault's site was entered while armed, and how often the trigger fired.
type Activation struct {
	Fault       string `json:"fault"`
	Site        string `json:"site"`
	Activations int64  `json:"activations"`
	Fires       int64  `json:"fires"`
}

// NewEngine builds an injector table over the given faults, drawing all
// randomness (probabilistic triggers, corruption choices) from one PRNG
// seeded with seed. Identical faults + seed + workload ⇒ identical
// injection decisions, on either execution path.
func NewEngine(faults []Fault, seed int64) (*Engine, error) {
	seen := make(map[string]bool, len(faults))
	for _, f := range faults {
		if err := f.Validate(); err != nil {
			return nil, err
		}
		if seen[f.Name] {
			// The analysis aggregates trigger stats by fault name;
			// duplicates would silently merge.
			return nil, fmt.Errorf("runtimefault: duplicate fault name %q", f.Name)
		}
		seen[f.Name] = true
	}
	e := &Engine{
		faults:    make([]armedFault, len(faults)),
		rng:       lazyrand.New(seed),
		round:     1,
		armed:     true,
		everArmed: true,
		sites:     make(map[string][]int),
	}
	for i, f := range faults {
		e.faults[i] = armedFault{fault: f}
	}
	return e, nil
}

// BeginRound arms or disarms the table for one workload round (0-based,
// as the workload counts them). The standard two-round protocol arms
// round 0 and disarms the rest; activation counters persist across
// rounds. The first BeginRound call resets everArmed, so an engine
// handed to a fault-free run (which disarms every round) keeps its
// round-scoped faults silent too.
func (e *Engine) BeginRound(round int, faultEnabled bool) {
	if round == 0 {
		e.everArmed = faultEnabled
	} else if faultEnabled {
		e.everArmed = true
	}
	e.round = round + 1
	e.armed = faultEnabled
}

// Report returns the per-fault activation counts, in fault-table order.
func (e *Engine) Report() []Activation {
	out := make([]Activation, len(e.faults))
	for i := range e.faults {
		af := &e.faults[i]
		out[i] = Activation{
			Fault:       af.fault.Name,
			Site:        af.fault.Site,
			Activations: af.activations,
			Fires:       af.fires,
		}
	}
	return out
}

// resolve returns the indices of faults whose site glob matches fn.
func (e *Engine) resolve(fn string) []int {
	if idx, ok := e.sites[fn]; ok {
		return idx
	}
	idx := []int{}
	for i := range e.faults {
		if pattern.GlobAny(e.faults[i].fault.Site, fn) {
			idx = append(idx, i)
		}
	}
	e.sites[fn] = idx
	return idx
}

// live reports whether a fault participates in the current round:
// round-scoped faults stay live through every round of a fault-enabled
// experiment (so round(2) can fire while the standard protocol has the
// table disarmed), everything else only while armed.
func (e *Engine) live(af *armedFault) bool {
	if af.fault.When.Mode == TriggerRound {
		return e.everArmed
	}
	return e.armed
}

// EnterCall fires raise and delay faults on function entry. Corrupt
// faults activate on return instead (LeaveCall), since their action
// needs the return value. A firing raise preempts the entry: faults
// later in the table do not activate for that call — the raised
// exception aborts the function before they would, exactly as a real
// crash would preempt co-located instrumentation.
func (e *Engine) EnterCall(it *interp.Interp, fn string) error {
	if !e.armed && !e.everArmed {
		return nil
	}
	for _, i := range e.resolve(fn) {
		af := &e.faults[i]
		if af.fault.Do.Kind == ActionCorrupt || !e.live(af) {
			continue
		}
		af.activations++
		if !e.fires(af) {
			continue
		}
		af.fires++
		switch af.fault.Do.Kind {
		case ActionRaise:
			return it.Throw(af.fault.Do.ExcType, af.fault.Do.Message)
		case ActionDelay:
			it.AdvanceClock(af.fault.Do.DelayNS)
		}
	}
	return nil
}

// LeaveCall fires corrupt faults on successful function return,
// replacing the result with its corrupted variant. A fire is recorded
// only when the corruption actually changed the value — a value the
// mode cannot perturb (an *Object return under bitflip, an empty
// string under offbyone) leaves the record honest instead of claiming
// an injection that never happened.
func (e *Engine) LeaveCall(it *interp.Interp, fn string, result interp.Value) (interp.Value, error) {
	if !e.armed && !e.everArmed {
		return result, nil
	}
	for _, i := range e.resolve(fn) {
		af := &e.faults[i]
		if af.fault.Do.Kind != ActionCorrupt || !e.live(af) {
			continue
		}
		af.activations++
		if !e.fires(af) {
			continue
		}
		out, changed := corruptValue(e.rng, af.fault.Do.Corruption, result)
		if !changed {
			continue
		}
		af.fires++
		result = out
	}
	return result, nil
}

// fires evaluates the fault's trigger against its activation counter
// (already incremented for the current activation) and the engine PRNG.
func (e *Engine) fires(af *armedFault) bool {
	switch af.fault.When.Mode {
	case TriggerProb:
		return e.rng.Float64() < af.fault.When.P
	case TriggerEvery:
		return af.activations%af.fault.When.K == 0
	case TriggerAfter:
		return af.activations > af.fault.When.N
	case TriggerRound:
		return e.round == af.fault.When.Round
	default: // TriggerAlways
		return true
	}
}

// corruptValue produces the corrupted variant of a value under the given
// corruption mode, drawing choices from rng, and reports whether the
// value actually changed, which the engine uses to keep fire counts
// honest. nil values stay nil under every mode except null (which they
// already are); values the mode cannot perturb are returned unchanged.
// Corrupted aggregates are copies — the callee's own references are
// never mutated. Objects and tuples pass through unchanged: their
// reference identity is observable, so a corrupted replica would
// perturb more than the return value.
func corruptValue(rng *rand.Rand, mode string, v interp.Value) (interp.Value, bool) {
	if mode == CorruptNull {
		return nil, v != nil
	}
	switch x := v.(type) {
	case int64:
		if mode == CorruptBitflip {
			return x ^ (1 << rng.Intn(63)), true
		}
		return x + int64(rng.Intn(2)*2-1), true
	case float64:
		if mode == CorruptBitflip {
			// Flip one mantissa bit: a subtly wrong value, never NaN/Inf.
			return flipFloatBit(x, rng.Intn(52)), true
		}
		return x + float64(rng.Intn(2)*2-1), true
	case bool:
		return !x, true
	case string:
		if mode == CorruptBitflip {
			return flipStringBit(rng, x), true
		}
		if x == "" {
			return x, false
		}
		// Drop the last rune, not the last byte: mid-rune cuts would
		// leak invalid UTF-8 into records (same rule as the scanner's
		// snippet truncation).
		_, size := utf8.DecodeLastRuneInString(x)
		return x[:len(x)-size], true
	case *interp.List:
		if len(x.Elems) == 0 {
			return x, false
		}
		if mode == CorruptBitflip {
			out := interp.NewList(append([]interp.Value(nil), x.Elems...)...)
			i := rng.Intn(len(out.Elems))
			elem, changed := corruptValue(rng, mode, out.Elems[i])
			out.Elems[i] = elem
			return out, changed
		}
		return interp.NewList(append([]interp.Value(nil), x.Elems[:len(x.Elems)-1]...)...), true
	case *interp.Map:
		keys := x.Keys()
		if len(keys) == 0 {
			return x, false
		}
		out := interp.NewMap()
		if mode == CorruptBitflip {
			// Corrupt the value under one key (insertion order is
			// deterministic, so the choice is too).
			pick := rng.Intn(len(keys))
			changed := false
			for i, k := range keys {
				val, _ := x.Get(k)
				if i == pick {
					val, changed = corruptValue(rng, mode, val)
				}
				out.Set(k, val)
			}
			return out, changed
		}
		// offbyone: drop the most recently inserted entry.
		for _, k := range keys[:len(keys)-1] {
			val, _ := x.Get(k)
			out.Set(k, val)
		}
		return out, true
	default:
		return v, false
	}
}

// flipFloatBit flips one bit of the float's mantissa.
func flipFloatBit(f float64, bit int) float64 {
	return math.Float64frombits(math.Float64bits(f) ^ (1 << uint(bit)))
}

// flipStringBit flips one low bit of a PRNG-chosen byte (bits 0–6, so
// the byte stays ASCII-range when it started there).
func flipStringBit(rng *rand.Rand, s string) string {
	if s == "" {
		return "\x01"
	}
	b := []byte(s)
	i := rng.Intn(len(b))
	b[i] ^= byte(1 << rng.Intn(7))
	return string(b)
}

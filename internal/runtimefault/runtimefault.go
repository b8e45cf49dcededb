// Package runtimefault implements runtime trigger-based fault injection:
// instead of mutating source before execution (the compile-time path of
// §III), an injector table attaches to a compiled interp.Program via the
// interpreter's call hook and fires faults while the program runs — the
// scenario axis of runtime-level injectors such as ZOFI (transient
// faults during execution) and InjectV (trigger-conditioned injection).
//
// A runtime fault is a site selector (a function-name glob, resolved
// from scanned injection points), a trigger (always, probability-p,
// every-Kth activation, after-Nth activation, round-scoped) and an
// action (raise an exception, corrupt the return value, inject virtual
// latency). All randomness flows from one per-experiment seeded PRNG,
// so identical seeds yield byte-identical campaign records whichever
// process, pool or shard runs the experiment.
package runtimefault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Trigger modes: when a fault at an activated site actually fires.
const (
	TriggerAlways = "always" // every activation
	TriggerProb   = "prob"   // each activation independently with probability P
	TriggerEvery  = "every"  // every K-th activation (K, 2K, 3K, ...)
	TriggerAfter  = "after"  // every activation after the N-th
	TriggerRound  = "round"  // every activation during workload round R (1-based)
)

// Action kinds: what a firing fault does.
const (
	ActionRaise   = "raise"   // raise an exception in the activated function
	ActionCorrupt = "corrupt" // corrupt the function's return value
	ActionDelay   = "delay"   // advance the virtual clock (injected latency)
)

// Corruption modes for ActionCorrupt.
const (
	CorruptBitflip  = "bitflip"  // flip one PRNG-chosen bit of the value
	CorruptOffByOne = "offbyone" // nudge the value by one (±1, drop last element)
	CorruptNull     = "null"     // replace the value with nil
)

// Trigger decides when an armed fault fires at an activated site.
type Trigger struct {
	Mode string `json:"mode"`
	// P is the firing probability for TriggerProb.
	P float64 `json:"p,omitempty"`
	// K is the activation period for TriggerEvery.
	K int64 `json:"k,omitempty"`
	// N is the activation threshold for TriggerAfter.
	N int64 `json:"n,omitempty"`
	// Round is the 1-based workload round for TriggerRound.
	Round int `json:"round,omitempty"`
}

// Validate checks mode-specific parameters.
func (t Trigger) Validate() error {
	switch t.Mode {
	case TriggerAlways:
		return nil
	case TriggerProb:
		// The negated form catches NaN, which every direct comparison
		// would wave through.
		if !(t.P >= 0 && t.P <= 1) {
			return fmt.Errorf("runtimefault: trigger prob(%g): probability must be in [0,1]", t.P)
		}
		return nil
	case TriggerEvery:
		if t.K < 1 {
			return fmt.Errorf("runtimefault: trigger every(%d): period must be >= 1", t.K)
		}
		return nil
	case TriggerAfter:
		if t.N < 0 {
			return fmt.Errorf("runtimefault: trigger after(%d): threshold must be >= 0", t.N)
		}
		return nil
	case TriggerRound:
		if t.Round < 1 {
			return fmt.Errorf("runtimefault: trigger round(%d): rounds are 1-based", t.Round)
		}
		return nil
	default:
		return fmt.Errorf("runtimefault: unknown trigger mode %q", t.Mode)
	}
}

// Action is what a firing fault does to the activated function.
type Action struct {
	Kind string `json:"kind"`
	// ExcType and Message configure ActionRaise.
	ExcType string `json:"excType,omitempty"`
	Message string `json:"message,omitempty"`
	// Corruption selects the ActionCorrupt mode.
	Corruption string `json:"corruption,omitempty"`
	// DelayNS is the virtual latency of ActionDelay, in nanoseconds.
	DelayNS int64 `json:"delayNs,omitempty"`
}

// Validate checks kind-specific parameters.
func (a Action) Validate() error {
	switch a.Kind {
	case ActionRaise:
		if a.ExcType == "" {
			return fmt.Errorf("runtimefault: raise action needs an exception type")
		}
		return nil
	case ActionCorrupt:
		switch a.Corruption {
		case CorruptBitflip, CorruptOffByOne, CorruptNull:
			return nil
		}
		return fmt.Errorf("runtimefault: unknown corruption %q (want bitflip, offbyone or null)", a.Corruption)
	case ActionDelay:
		if a.DelayNS <= 0 {
			return fmt.Errorf("runtimefault: delay action needs a positive duration")
		}
		return nil
	default:
		return fmt.Errorf("runtimefault: unknown action kind %q", a.Kind)
	}
}

// Fault is one runtime fault: where it can activate, when it fires and
// what it does. Site is a function-name glob in the interpreter's
// display naming (top-level "Fn", methods "Type.Method"); campaigns
// bind it per injection point to the point's enclosing function.
type Fault struct {
	Name string  `json:"name"`
	Site string  `json:"site"`
	When Trigger `json:"when"`
	Do   Action  `json:"do"`
}

// Validate checks the fault's trigger and action, and that the site
// selector is bound (an empty glob matches nothing, so an unbound fault
// would sit silently inert in an engine).
func (f Fault) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("runtimefault: fault with empty name")
	}
	if f.Site == "" {
		return fmt.Errorf("runtimefault: fault %q has no site selector (campaigns bind it per injection point; set Site to a function-name glob)", f.Name)
	}
	if err := f.When.Validate(); err != nil {
		return fmt.Errorf("fault %q: %w", f.Name, err)
	}
	if err := f.Do.Validate(); err != nil {
		return fmt.Errorf("fault %q: %w", f.Name, err)
	}
	return nil
}

// NewFault resolves the textual trigger/action pair into a fault — the
// single constructor behind both spellings (DSL `trigger{}/action{}`
// clauses and the faultload's Trigger/Action fields). An empty trigger
// defaults to always; the action is mandatory. The site selector is
// left empty: campaigns bind it per injection point, standalone users
// set Fault.Site themselves.
func NewFault(name, trigger, action string) (*Fault, error) {
	when := Trigger{Mode: TriggerAlways}
	if strings.TrimSpace(trigger) != "" {
		var err error
		when, err = ParseTrigger(trigger)
		if err != nil {
			return nil, err
		}
	}
	do, err := ParseAction(action)
	if err != nil {
		return nil, err
	}
	return &Fault{Name: name, When: when, Do: do}, nil
}

// ParseTrigger parses the DSL trigger clause syntax:
//
//	always | prob(0.25) | every(3) | after(5) | round(2)
func ParseTrigger(s string) (Trigger, error) {
	name, arg, err := splitClause(s)
	if err != nil {
		return Trigger{}, fmt.Errorf("runtimefault: bad trigger %q: %w", s, err)
	}
	t := Trigger{Mode: name}
	switch name {
	case TriggerAlways:
		if arg != "" {
			return Trigger{}, fmt.Errorf("runtimefault: trigger always takes no argument")
		}
	case TriggerProb:
		t.P, err = strconv.ParseFloat(arg, 64)
		if err != nil {
			return Trigger{}, fmt.Errorf("runtimefault: bad probability %q in trigger %q", arg, s)
		}
	case TriggerEvery:
		t.K, err = strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return Trigger{}, fmt.Errorf("runtimefault: bad period %q in trigger %q", arg, s)
		}
	case TriggerAfter:
		t.N, err = strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return Trigger{}, fmt.Errorf("runtimefault: bad threshold %q in trigger %q", arg, s)
		}
	case TriggerRound:
		r, rerr := strconv.ParseInt(arg, 10, 32)
		if rerr != nil {
			return Trigger{}, fmt.Errorf("runtimefault: bad round %q in trigger %q", arg, s)
		}
		t.Round = int(r)
	default:
		return Trigger{}, fmt.Errorf("runtimefault: unknown trigger mode %q (want always, prob, every, after or round)", name)
	}
	if err := t.Validate(); err != nil {
		return Trigger{}, err
	}
	return t, nil
}

// ParseAction parses the DSL action clause syntax:
//
//	raise(ExcType) | raise(ExcType, "message")
//	corrupt(bitflip) | corrupt(offbyone) | corrupt(null)
//	delay(500ms) | delay(2s) | delay(750us) | delay(100)   // bare = ms
func ParseAction(s string) (Action, error) {
	name, arg, err := splitClause(s)
	if err != nil {
		return Action{}, fmt.Errorf("runtimefault: bad action %q: %w", s, err)
	}
	a := Action{Kind: name}
	switch name {
	case ActionRaise:
		excType, msg := arg, ""
		if i := strings.IndexByte(arg, ','); i >= 0 {
			excType = strings.TrimSpace(arg[:i])
			msg = strings.TrimSpace(arg[i+1:])
			if unq, uerr := strconv.Unquote(msg); uerr == nil {
				msg = unq
			}
		}
		a.ExcType = strings.TrimSpace(excType)
		a.Message = msg
		if a.Message == "" {
			a.Message = "injected runtime fault"
		}
	case ActionCorrupt:
		a.Corruption = strings.TrimSpace(arg)
	case ActionDelay:
		a.DelayNS, err = parseDuration(strings.TrimSpace(arg))
		if err != nil {
			return Action{}, fmt.Errorf("runtimefault: bad delay %q in action %q", arg, s)
		}
	default:
		return Action{}, fmt.Errorf("runtimefault: unknown action kind %q (want raise, corrupt or delay)", name)
	}
	if err := a.Validate(); err != nil {
		return Action{}, err
	}
	return a, nil
}

// splitClause splits "name(arg)" or a bare "name" into its parts.
func splitClause(s string) (name, arg string, err error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 {
		if s == "" {
			return "", "", fmt.Errorf("empty clause")
		}
		return s, "", nil
	}
	if !strings.HasSuffix(s, ")") {
		return "", "", fmt.Errorf("missing closing parenthesis")
	}
	return strings.TrimSpace(s[:open]), strings.TrimSpace(s[open+1 : len(s)-1]), nil
}

// parseDuration parses a virtual duration: a number with an optional
// ns/us/ms/s suffix; a bare number means milliseconds.
func parseDuration(s string) (int64, error) {
	mult := int64(1_000_000) // default: milliseconds
	switch {
	case strings.HasSuffix(s, "ns"):
		s, mult = s[:len(s)-2], 1
	case strings.HasSuffix(s, "us"):
		s, mult = s[:len(s)-2], 1_000
	case strings.HasSuffix(s, "ms"):
		s, mult = s[:len(s)-2], 1_000_000
	case strings.HasSuffix(s, "s"):
		s, mult = s[:len(s)-1], 1_000_000_000
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, err
	}
	if n > math.MaxInt64/mult || n < math.MinInt64/mult {
		return 0, fmt.Errorf("duration overflows the virtual clock")
	}
	return n * mult, nil
}

package runtimefault

import (
	"math/rand"
	"strings"
	"testing"

	"profipy/internal/interp"
)

func TestParseTrigger(t *testing.T) {
	cases := []struct {
		in   string
		want Trigger
	}{
		{"always", Trigger{Mode: TriggerAlways}},
		{"prob(0.25)", Trigger{Mode: TriggerProb, P: 0.25}},
		{"prob(1)", Trigger{Mode: TriggerProb, P: 1}},
		{"every(3)", Trigger{Mode: TriggerEvery, K: 3}},
		{"after(5)", Trigger{Mode: TriggerAfter, N: 5}},
		{"after(0)", Trigger{Mode: TriggerAfter, N: 0}},
		{"round(2)", Trigger{Mode: TriggerRound, Round: 2}},
		{"  every( 7 ) ", Trigger{Mode: TriggerEvery, K: 7}},
	}
	for _, tc := range cases {
		got, err := ParseTrigger(tc.in)
		if err != nil {
			t.Errorf("ParseTrigger(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseTrigger(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseTriggerErrors(t *testing.T) {
	for _, in := range []string{
		"", "sometimes", "prob(2)", "prob(-0.1)", "prob(x)", "prob(NaN)",
		"every(0)", "every(-1)", "after(-1)", "round(0)", "always(1)",
		"every(3", "prob 0.5",
	} {
		if _, err := ParseTrigger(in); err == nil {
			t.Errorf("ParseTrigger(%q): expected error", in)
		}
	}
}

func TestParseAction(t *testing.T) {
	cases := []struct {
		in   string
		want Action
	}{
		{"raise(IOError)", Action{Kind: ActionRaise, ExcType: "IOError", Message: "injected runtime fault"}},
		{`raise(IOError, "disk gone")`, Action{Kind: ActionRaise, ExcType: "IOError", Message: "disk gone"}},
		{"raise(IOError, unquoted text)", Action{Kind: ActionRaise, ExcType: "IOError", Message: "unquoted text"}},
		{"corrupt(bitflip)", Action{Kind: ActionCorrupt, Corruption: CorruptBitflip}},
		{"corrupt(offbyone)", Action{Kind: ActionCorrupt, Corruption: CorruptOffByOne}},
		{"corrupt(null)", Action{Kind: ActionCorrupt, Corruption: CorruptNull}},
		{"delay(500ms)", Action{Kind: ActionDelay, DelayNS: 500_000_000}},
		{"delay(2s)", Action{Kind: ActionDelay, DelayNS: 2_000_000_000}},
		{"delay(750us)", Action{Kind: ActionDelay, DelayNS: 750_000}},
		{"delay(40ns)", Action{Kind: ActionDelay, DelayNS: 40}},
		{"delay(100)", Action{Kind: ActionDelay, DelayNS: 100_000_000}},
	}
	for _, tc := range cases {
		got, err := ParseAction(tc.in)
		if err != nil {
			t.Errorf("ParseAction(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseAction(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseActionErrors(t *testing.T) {
	for _, in := range []string{
		"", "explode", "raise()", "corrupt(zero)", "corrupt()",
		"delay(0)", "delay(-5)", "delay(soon)", "raise(E",
	} {
		if _, err := ParseAction(in); err == nil {
			t.Errorf("ParseAction(%q): expected error", in)
		}
	}
}

func TestFaultValidate(t *testing.T) {
	good := Fault{Name: "f", Site: "Fn", When: Trigger{Mode: TriggerAlways},
		Do: Action{Kind: ActionRaise, ExcType: "E", Message: "m"}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid fault rejected: %v", err)
	}
	bad := good
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	bad = good
	bad.Site = ""
	if err := bad.Validate(); err == nil {
		t.Error("unbound site accepted (the fault could never activate)")
	}
	bad = good
	bad.When.Mode = "never"
	if err := bad.Validate(); err == nil {
		t.Error("bad trigger accepted")
	}
	bad = good
	bad.Do.Kind = "noop"
	if err := bad.Validate(); err == nil {
		t.Error("bad action accepted")
	}
	if _, err := NewEngine([]Fault{bad}, 1); err == nil {
		t.Error("NewEngine accepted an invalid fault")
	}
}

// hookRun drives the engine directly through an interpreter running a
// probe program that calls `hooked` n times, swallowing exceptions, and
// returns the concatenated outcomes.
func hookRun(t *testing.T, eng *Engine, n int) string {
	t.Helper()
	src := `package main
func hooked(i int) any { return i }
func Probe(n int) any {
	out := ""
	for i := 0; i < n; i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					out = out + "!"
				}
			}()
			out = out + ":" + str(hooked(i))
		}()
	}
	return out
}`
	it := bootHooked(t, eng, src)
	v, err := it.Call("Probe", int64(n))
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	s, _ := v.(string)
	return s
}

func mustEngine(t *testing.T, faults []Fault, seed int64) *Engine {
	t.Helper()
	eng, err := NewEngine(faults, seed)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEngineEveryKth(t *testing.T) {
	eng := mustEngine(t, []Fault{{
		Name: "e", Site: "hooked",
		When: Trigger{Mode: TriggerEvery, K: 3},
		Do:   Action{Kind: ActionRaise, ExcType: "E", Message: "m"},
	}}, 1)
	got := hookRun(t, eng, 7)
	// Activations 3 and 6 fire (1-based counting).
	if want := ":0:1!:3:4!:6"; got != want {
		t.Errorf("every(3) pattern = %q, want %q", got, want)
	}
	rep := eng.Report()
	if len(rep) != 1 || rep[0].Activations != 7 || rep[0].Fires != 2 {
		t.Errorf("report = %+v, want 7 activations / 2 fires", rep)
	}
}

func TestEngineAfterNth(t *testing.T) {
	eng := mustEngine(t, []Fault{{
		Name: "a", Site: "hooked",
		When: Trigger{Mode: TriggerAfter, N: 4},
		Do:   Action{Kind: ActionRaise, ExcType: "E", Message: "m"},
	}}, 1)
	got := hookRun(t, eng, 7)
	if want := ":0:1:2:3!!!"; got != want {
		t.Errorf("after(4) pattern = %q, want %q", got, want)
	}
}

func TestEngineProbDeterministic(t *testing.T) {
	mk := func(seed int64) string {
		eng := mustEngine(t, []Fault{{
			Name: "p", Site: "hooked",
			When: Trigger{Mode: TriggerProb, P: 0.5},
			Do:   Action{Kind: ActionRaise, ExcType: "E", Message: "m"},
		}}, seed)
		return hookRun(t, eng, 12)
	}
	if mk(7) != mk(7) {
		t.Error("same seed produced different outcomes")
	}
	if !strings.Contains(mk(7), "!") {
		t.Error("prob(0.5) over 12 activations with seed 7 never fired (suspicious)")
	}
}

func TestEngineRoundScoping(t *testing.T) {
	eng := mustEngine(t, []Fault{{
		Name: "r", Site: "hooked",
		When: Trigger{Mode: TriggerRound, Round: 2},
		Do:   Action{Kind: ActionRaise, ExcType: "E", Message: "m"},
	}}, 1)
	if got := hookRun(t, eng, 2); strings.Contains(got, "!") {
		t.Errorf("round(2) fired during round 1: %q", got)
	}
	eng.BeginRound(1, true) // round 2, armed
	if got := hookRun(t, eng, 2); got != "!!" {
		t.Errorf("round(2) in round 2 = %q, want %q", got, "!!")
	}
}

// TestEngineRoundScopedUnderStandardProtocol replays the workload's
// two-round arming sequence (round 0 enabled, round 1 disabled): a
// round(2) fault must fire during the normally-disarmed round 2 of a
// fault-enabled experiment, while a fault-free sequence (every round
// disabled, as the coverage pass runs) keeps it silent.
func TestEngineRoundScopedUnderStandardProtocol(t *testing.T) {
	mk := func() *Engine {
		return mustEngine(t, []Fault{{
			Name: "r2", Site: "hooked",
			When: Trigger{Mode: TriggerRound, Round: 2},
			Do:   Action{Kind: ActionRaise, ExcType: "E", Message: "m"},
		}}, 1)
	}
	eng := mk()
	eng.BeginRound(0, true) // round 1, armed
	if got := hookRun(t, eng, 2); got != ":0:1" {
		t.Errorf("round 1 of armed experiment = %q, want clean run", got)
	}
	eng.BeginRound(1, false) // round 2, standard protocol disarms
	if got := hookRun(t, eng, 2); got != "!!" {
		t.Errorf("round 2 of armed experiment = %q, want both activations to fire", got)
	}
	faultFree := mk()
	faultFree.BeginRound(0, false) // fault-free run: never armed
	if got := hookRun(t, faultFree, 2); got != ":0:1" {
		t.Errorf("fault-free round 1 = %q, want clean run", got)
	}
	faultFree.BeginRound(1, false)
	if got := hookRun(t, faultFree, 2); got != ":0:1" {
		t.Errorf("fault-free round 2 = %q, want clean run", got)
	}
	if rep := faultFree.Report(); rep[0].Activations != 0 {
		t.Errorf("fault-free run counted activations: %+v", rep)
	}
}

func TestEngineDisarmedCountsNothing(t *testing.T) {
	eng := mustEngine(t, []Fault{{
		Name: "d", Site: "hooked",
		When: Trigger{Mode: TriggerAlways},
		Do:   Action{Kind: ActionRaise, ExcType: "E", Message: "m"},
	}}, 1)
	eng.BeginRound(1, false)
	if got := hookRun(t, eng, 3); got != ":0:1:2" {
		t.Errorf("disarmed engine changed execution: %q", got)
	}
	if rep := eng.Report(); rep[0].Activations != 0 || rep[0].Fires != 0 {
		t.Errorf("disarmed engine counted: %+v", rep)
	}
}

func TestEngineDelayAdvancesClock(t *testing.T) {
	eng := mustEngine(t, []Fault{{
		Name: "lat", Site: "hooked",
		When: Trigger{Mode: TriggerAlways},
		Do:   Action{Kind: ActionDelay, DelayNS: 1_000_000_000},
	}}, 1)
	it := bootHooked(t, eng, "package main\nfunc hooked() any { return 1 }\nfunc F() any { return hooked() + hooked() }")
	if _, err := it.Call("F"); err != nil {
		t.Fatal(err)
	}
	if it.Clock() < 2_000_000_000 {
		t.Errorf("clock = %d, want >= 2s of injected latency", it.Clock())
	}
}

func TestCorruptValueModes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if v := CorruptValue(rng, CorruptNull, int64(5)); v != nil {
		t.Errorf("null corruption = %v, want nil", v)
	}
	if v := CorruptValue(rng, CorruptBitflip, int64(5)); v == int64(5) || v == nil {
		t.Errorf("bitflip corruption left int unchanged: %v", v)
	}
	v := CorruptValue(rng, CorruptOffByOne, int64(5))
	if v != int64(4) && v != int64(6) {
		t.Errorf("offbyone corruption = %v, want 4 or 6", v)
	}
	if v := CorruptValue(rng, CorruptBitflip, true); v != false {
		t.Errorf("bitflip bool = %v, want false", v)
	}
	if v := CorruptValue(rng, CorruptOffByOne, "abc"); v != "ab" {
		t.Errorf("offbyone string = %v, want \"ab\"", v)
	}
	if v := CorruptValue(rng, CorruptOffByOne, ""); v != "" {
		t.Errorf("offbyone empty string = %v, want \"\"", v)
	}
	s, _ := CorruptValue(rng, CorruptBitflip, "abc").(string)
	if s == "abc" || len(s) != 3 {
		t.Errorf("bitflip string = %q, want same-length changed string", s)
	}
	lst := interp.NewList(int64(1), int64(2))
	out, ok := CorruptValue(rng, CorruptOffByOne, lst).(*interp.List)
	if !ok || len(out.Elems) != 1 {
		t.Errorf("offbyone list = %v, want one element", out)
	}
	if len(lst.Elems) != 2 {
		t.Error("corruption mutated the original list")
	}
	f, _ := CorruptValue(rng, CorruptBitflip, 2.5).(float64)
	if f == 2.5 {
		t.Error("bitflip float unchanged")
	}
	// nil and unknown types pass through (except under null, above).
	if v := CorruptValue(rng, CorruptBitflip, nil); v != nil {
		t.Errorf("bitflip nil = %v, want nil", v)
	}
	// offbyone drops the last rune, never splitting multi-byte UTF-8.
	if v := CorruptValue(rng, CorruptOffByOne, "café"); v != "caf" {
		t.Errorf("offbyone multi-byte string = %q, want %q", v, "caf")
	}
	// Maps corrupt as copies: offbyone drops the newest entry, bitflip
	// perturbs one value, the original is untouched.
	m := interp.NewMap()
	m.Set("a", int64(1))
	m.Set("b", int64(2))
	shrunk, ok := CorruptValue(rng, CorruptOffByOne, m).(*interp.Map)
	if !ok || shrunk.Len() != 1 {
		t.Errorf("offbyone map = %v, want 1 entry", shrunk)
	}
	if _, stillThere := shrunk.Get("b"); stillThere {
		t.Error("offbyone map should drop the most recently inserted key")
	}
	flipped, ok := CorruptValue(rng, CorruptBitflip, m).(*interp.Map)
	if !ok || flipped.Len() != 2 {
		t.Errorf("bitflip map = %v, want 2 entries", flipped)
	}
	va, _ := flipped.Get("a")
	vb, _ := flipped.Get("b")
	if va == int64(1) && vb == int64(2) {
		t.Error("bitflip map left every value unchanged")
	}
	if m.Len() != 2 {
		t.Error("corruption mutated the original map")
	}
}

// TestCorruptFiresOnlyWhenChanged asserts honest fire counting: a
// corruption that cannot perturb the return value (an *Object under
// bitflip, an empty string under offbyone) records the activation but
// not a fire.
func TestCorruptFiresOnlyWhenChanged(t *testing.T) {
	run := func(src, entry string, corruption string) []Activation {
		eng := mustEngine(t, []Fault{{
			Name: "c", Site: "hooked",
			When: Trigger{Mode: TriggerAlways},
			Do:   Action{Kind: ActionCorrupt, Corruption: corruption},
		}}, 1)
		it := bootHooked(t, eng, "package main\n"+src)
		if _, err := it.Call(entry); err != nil {
			t.Fatal(err)
		}
		return eng.Report()
	}
	rep := run(`func hooked() any { return &Box{v: 1} }
func F() any { return hooked() }`, "F", CorruptBitflip)
	if rep[0].Activations != 1 || rep[0].Fires != 0 {
		t.Errorf("object return: %+v, want 1 activation / 0 fires", rep[0])
	}
	rep = run(`func hooked() any { return "" }
func F() any { return hooked() }`, "F", CorruptOffByOne)
	if rep[0].Activations != 1 || rep[0].Fires != 0 {
		t.Errorf("empty string return: %+v, want 1 activation / 0 fires", rep[0])
	}
	rep = run(`func hooked() any { return 5 }
func F() any { return hooked() }`, "F", CorruptOffByOne)
	if rep[0].Activations != 1 || rep[0].Fires != 1 {
		t.Errorf("int return: %+v, want 1 activation / 1 fire", rep[0])
	}
}

func TestEngineSiteGlobAndReportOrder(t *testing.T) {
	faults := []Fault{
		{Name: "b", Site: "Get*", When: Trigger{Mode: TriggerAlways}, Do: Action{Kind: ActionDelay, DelayNS: 1}},
		{Name: "a", Site: "nomatch", When: Trigger{Mode: TriggerAlways}, Do: Action{Kind: ActionDelay, DelayNS: 1}},
	}
	eng := mustEngine(t, faults, 1)
	src := "package main\nfunc GetA() any { return 1 }\nfunc GetB() any { return 2 }\nfunc Other() any { return 3 }\nfunc F() any { return GetA() + GetB() + Other() }"
	it := bootHooked(t, eng, src)
	if _, err := it.Call("F"); err != nil {
		t.Fatal(err)
	}
	rep := eng.Report()
	if len(rep) != 2 {
		t.Fatalf("report has %d rows, want 2", len(rep))
	}
	// Report preserves fault-table order, not alphabetical order.
	if rep[0].Fault != "b" || rep[1].Fault != "a" {
		t.Errorf("report order = %s,%s, want b,a", rep[0].Fault, rep[1].Fault)
	}
	if rep[0].Activations != 2 {
		t.Errorf("Get* activations = %d, want 2", rep[0].Activations)
	}
	if rep[1].Activations != 0 {
		t.Errorf("nomatch activations = %d, want 0", rep[1].Activations)
	}
}

// bootHooked compiles src into a fresh interpreter hooked by eng and
// runs its declarations.
func bootHooked(t *testing.T, eng *Engine, src string) *interp.Interp {
	t.Helper()
	prog, err := interp.CompileProgram([]interp.SourceUnit{{Name: "t.go", Src: []byte(src)}})
	if err != nil {
		t.Fatal(err)
	}
	it := interp.NewRun(prog, interp.Config{Hook: eng, MaxSteps: 200_000})
	if err := it.Boot(); err != nil {
		t.Fatal(err)
	}
	return it
}

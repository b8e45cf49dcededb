package interp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
)

// TestAdvanceClockClampAndSaturate pins the clock arithmetic fixed
// alongside the snapshot work: negative advances are ignored (a buggy
// host function must not rewind virtual time and break deadline
// monotonicity) and advances near the int64 ceiling saturate at
// MaxInt64 instead of wrapping negative, which would un-expire every
// deadline.
func TestAdvanceClockClampAndSaturate(t *testing.T) {
	it := New(Config{})
	it.AdvanceClock(100)
	if got := it.Clock(); got != 100 {
		t.Fatalf("clock = %d, want 100", got)
	}
	it.AdvanceClock(-50)
	if got := it.Clock(); got != 100 {
		t.Errorf("negative advance moved the clock: %d, want 100", got)
	}
	it.AdvanceClock(0)
	if got := it.Clock(); got != 100 {
		t.Errorf("zero advance moved the clock: %d, want 100", got)
	}
	it.AdvanceClock(math.MaxInt64 - 10)
	if got := it.Clock(); got != math.MaxInt64 {
		t.Errorf("overflowing advance = %d, want saturation at MaxInt64", got)
	}
	it.AdvanceClock(1)
	if got := it.Clock(); got != math.MaxInt64 {
		t.Errorf("advance past saturation = %d, want MaxInt64", got)
	}
}

// forkSetup registers host state; it runs on every interpreter of a
// fork-equivalence test (straight, prefix and each fork), mirroring how
// the workload installs its environment before Boot or Fork.
type forkSetup func(it *Interp)

// runForkVsStraight is the snapshot/fork analogue of runBothPaths: the
// program runs straight once, then through CallPrefix snapshotting at
// EVERY entry-body boundary, then each snapshot forks on a fresh
// interpreter. All paths must agree on result, error rendering, step
// count, virtual clock and stdout bytes (prefix-so-far + fork output
// must equal the straight run's output).
func runForkVsStraight(t *testing.T, files map[string]string, order []string,
	setup forkSetup, entry string, args ...Value) {
	t.Helper()

	var units []SourceUnit
	for _, name := range order {
		units = append(units, SourceUnit{Name: name, Src: []byte(files[name])})
	}
	prog, err := CompileProgram(units)
	if err != nil {
		t.Fatalf("CompileProgram: %v", err)
	}

	newInterp := func(out *bytes.Buffer) *Interp {
		it := NewRun(prog, Config{Stdout: out})
		if setup != nil {
			setup(it)
		}
		return it
	}

	// Straight run: the reference behavior.
	var straightOut bytes.Buffer
	straight := newInterp(&straightOut)
	if err := straight.Boot(); err != nil {
		t.Fatalf("Boot: %v", err)
	}
	wantVal, wantErr := straight.Call(entry, args...)

	// Prefix run: capture a snapshot at every boundary, remembering how
	// much stdout the prefix had produced at each.
	var prefixOut bytes.Buffer
	prefix := newInterp(&prefixOut)
	if err := prefix.Boot(); err != nil {
		t.Fatalf("Boot: %v", err)
	}
	type boundary struct {
		snap   *Snapshot
		outLen int
	}
	var bounds []boundary
	checkpoint := func(stmt int) bool {
		snap, err := prefix.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot at stmt %d: %v", stmt, err)
		}
		if snap.Stmt() != stmt {
			t.Fatalf("snapshot stmt = %d, want %d", snap.Stmt(), stmt)
		}
		bounds = append(bounds, boundary{snap, prefixOut.Len()})
		return true
	}
	preVal, preErr := prefix.CallPrefix(entry, checkpoint, args...)

	// CallPrefix itself must be observation-identical to Call.
	if Repr(preVal) != Repr(wantVal) || fmt.Sprint(preErr) != fmt.Sprint(wantErr) {
		t.Fatalf("CallPrefix diverged from Call:\n prefix: %s / %v\n straight: %s / %v",
			Repr(preVal), preErr, Repr(wantVal), wantErr)
	}
	if prefix.Steps() != straight.Steps() || prefix.Clock() != straight.Clock() {
		t.Fatalf("CallPrefix accounting diverged: steps %d/%d clock %d/%d",
			prefix.Steps(), straight.Steps(), prefix.Clock(), straight.Clock())
	}
	if prefixOut.String() != straightOut.String() {
		t.Fatalf("CallPrefix stdout diverged:\n prefix: %q\n straight: %q",
			prefixOut.String(), straightOut.String())
	}
	if len(bounds) == 0 {
		t.Fatalf("no snapshot boundaries captured for entry %s", entry)
	}

	prefixBytes := prefixOut.String()
	for _, b := range bounds {
		var forkOut bytes.Buffer
		fork := newInterp(&forkOut)
		gotVal, gotErr := fork.Fork(b.snap)
		if Repr(gotVal) != Repr(wantVal) {
			t.Errorf("fork@%d result mismatch:\n fork: %s\n straight: %s",
				b.snap.Stmt(), Repr(gotVal), Repr(wantVal))
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("fork@%d error mismatch:\n fork: %v\n straight: %v",
				b.snap.Stmt(), gotErr, wantErr)
		}
		if fork.Steps() != straight.Steps() {
			t.Errorf("fork@%d step count mismatch: fork=%d straight=%d",
				b.snap.Stmt(), fork.Steps(), straight.Steps())
		}
		if fork.Clock() != straight.Clock() {
			t.Errorf("fork@%d clock mismatch: fork=%d straight=%d",
				b.snap.Stmt(), fork.Clock(), straight.Clock())
		}
		if got := prefixBytes[:b.outLen] + forkOut.String(); got != straightOut.String() {
			t.Errorf("fork@%d stdout mismatch:\n prefix+fork: %q\n straight: %q",
				b.snap.Stmt(), got, straightOut.String())
		}
	}
}

func forkOne(t *testing.T, src, entry string, args ...Value) {
	t.Helper()
	runForkVsStraight(t, map[string]string{"t.go": "package main\n" + src},
		[]string{"t.go"}, nil, entry, args...)
}

// forkCorpus exercises snapshot/fork over the state shapes a workload
// prefix actually accumulates: locals of every value kind, aliasing,
// closures and cells, pending defers, global mutation, stdout, virtual
// steps, and failures after the boundary.
var forkCorpus = []struct {
	name  string
	src   string
	entry string
	args  []Value
}{
	{"locals-arith", `
func F(n int) any {
	a := n * 2
	b := a + 3
	c := b * b
	return a + b + c
}`, "F", []Value{int64(7)}},
	{"list-aliasing", `
func F() any {
	xs := []any{1, 2, 3}
	ys := xs
	ys = append(ys, 4)
	xs = append(xs, 5)
	m := map[string]any{"xs": xs}
	m["xs2"] = xs
	total := 0
	for _, x := range xs {
		total += x
	}
	for _, y := range ys {
		total += y
	}
	return total
}`, "F", nil},
	{"closure-cell", `
func F() any {
	total := 0
	bump := func(d int) any { total += d; return total }
	bump(3)
	bump(4)
	g := func() any { return total * 10 }
	bump(5)
	return g()
}`, "F", nil},
	{"object-graph", `
type Node struct{}
func F() any {
	a := &Node{v: 1}
	b := &Node{v: 2, next: a}
	a.next = b
	a.v = a.v + b.next.v
	s := a.v * 10
	return s + b.next.v
}`, "F", nil},
	{"shaped-objects-and-promoted-maps", `
type Rec struct{}
func F() any {
	a := &Rec{id: 1, tags: []any{"x"}}
	a.late = "added"
	b := &Rec{tags: a.tags, id: 2}
	alias := a
	big := map[any]any{}
	for i := 0; i < 12; i++ {
		big[i] = a
	}
	small := map[string]any{"a": a, "b": b}
	delete(big, 3)
	big["k"] = small
	alias.id = alias.id + 10
	b.extra = big
	small["a"].late = small["a"].late + "!"
	delete(small, "a")
	small["a"] = b
	out := ""
	for k, v := range small {
		out = out + k + str(v.id) + ";"
	}
	return out + a.late + str(big[0].id) + str(len(big)) + str(len(b.extra["k"])) + str(keys(big)[11])
}`, "F", nil},
	{"pending-defers", `
func F() any {
	out := []any{}
	push := func(x int) any { out = append(out, x); return nil }
	defer push(1)
	x := 10
	defer push(x)
	x = 20
	defer push(x)
	print(len(out))
	return x
}`, "F", nil},
	{"global-mutation", `
var counter = 0
var log = []any{}
func bump(d int) any {
	counter = counter + d
	log = append(log, counter)
	return counter
}
func F() any {
	bump(1)
	bump(2)
	bump(3)
	return counter * len(log)
}`, "F", nil},
	{"stdout-interleaved", `
func F() any {
	print("one")
	x := 1
	print("two", x)
	x = x + 1
	print("three", x)
	return x
}`, "F", nil},
	{"exception-after-boundary", `
func F(n int) any {
	a := 10
	b := a - 10
	print("before")
	return n / b
}`, "F", []Value{int64(3)}},
	{"throw-after-boundary", `
func helper(tag string) any { return throw("WorkloadError", tag) }
func F() any {
	ok := "start"
	print(ok)
	return helper(ok + "-boom")
}`, "F", nil},
	{"method-receiver-state", `
type Counter struct{}
func (c *Counter) Add(d int) any { c.n = c.n + d; return c.n }
func F() any {
	c := &Counter{n: 5}
	c.Add(3)
	d := c
	d.Add(2)
	return c.n
}`, "F", nil},
	{"tuple-multi-assign", `
func pair() (any, any) { return 4, 9 }
func F() any {
	a, b := pair()
	c := a + b
	a, b = b, a
	return a*100 + b*10 + c
}`, "F", nil},
	{"loop-heavy-prefix", `
func F() any {
	total := 0
	for i := 0; i < 50; i++ {
		total += i
	}
	squares := []any{}
	for i := 0; i < 10; i++ {
		squares = append(squares, i*i)
	}
	last := squares[len(squares)-1]
	return total + last
}`, "F", nil},
}

// TestForkIsolationShapedObjectsAndPromotedMaps forks one snapshot
// several times, each fork mutating the shaped objects and the promoted
// (hash-indexed) map it inherited: aliasing inside a fork must survive
// the copy, and no fork may see another fork's — or the prefix run's —
// writes through a shared slot vector, entry slice or index.
func TestForkIsolationShapedObjectsAndPromotedMaps(t *testing.T) {
	src := `package main
type T struct{}
func F() any {
	o := &T{a: 1}
	o.b = 2
	m := map[any]any{}
	for i := 0; i < 12; i++ {
		m[i] = i
	}
	alias := o
	am := m
	k := mode()
	o.a = o.a + k*100
	o.c = k
	m[k] = -k
	delete(m, 0)
	m[100+k] = k
	return str(alias.a) + ":" + str(alias.c) + ":" + str(am[k]) + ":" + str(len(am)) + ":" + str(keys(am)[len(am)-1])
}`
	prog, err := CompileProgram([]SourceUnit{{Name: "t.go", Src: []byte(src)}})
	if err != nil {
		t.Fatal(err)
	}
	newInterp := func(mode int64) *Interp {
		it := NewRun(prog, Config{})
		it.RegisterHostFunc("mode", func(it *Interp, args []Value) (Value, error) { return mode, nil })
		return it
	}
	prefix := newInterp(7)
	if err := prefix.Boot(); err != nil {
		t.Fatal(err)
	}
	const boundary = 6 // the statement `k := mode()`
	var snap *Snapshot
	if _, err := prefix.CallPrefix("F", func(stmt int) bool {
		if stmt == boundary {
			var serr error
			if snap, serr = prefix.Snapshot(); serr != nil {
				t.Fatalf("Snapshot: %v", serr)
			}
			return false
		}
		return true
	}); err != nil {
		t.Fatalf("CallPrefix: %v", err)
	}
	if snap == nil {
		t.Fatal("boundary never reached")
	}
	// The prefix run went on to mutate its own copies with mode 7; every
	// fork must still start from the state at the boundary.
	for _, tc := range []struct {
		mode int64
		want string
	}{
		{1, "101:1:-1:12:101"},
		{2, "201:2:-2:12:102"},
		{1, "101:1:-1:12:101"},
	} {
		got, err := newInterp(tc.mode).Fork(snap)
		if err != nil {
			t.Fatalf("Fork(mode %d): %v", tc.mode, err)
		}
		if got != tc.want {
			t.Errorf("fork with mode %d = %v, want %s", tc.mode, got, tc.want)
		}
	}
}

func TestForkEquivalenceCorpus(t *testing.T) {
	for _, tc := range forkCorpus {
		t.Run(tc.name, func(t *testing.T) {
			forkOne(t, tc.src, tc.entry, tc.args...)
		})
	}
}

// TestForkEquivalenceHostEnv forks snapshots holding references to host
// functions and module members, which must translate to the fork
// interpreter's own registrations (fresh environment, same keys).
func TestForkEquivalenceHostEnv(t *testing.T) {
	src := `package main
import "ctr"
func F() any {
	a := ctr.Incr()
	f := ctr.Incr
	b := f()
	c := hostDouble(a + b)
	print(a, b, c)
	return c + ctr.Incr()
}`
	// Host state is not snapshotted (capturing it is the workload layer's
	// CaptureEnv job), so the module is stateless: the test exercises
	// reference-identity translation — the snapshot's ctr.Incr and
	// hostDouble references must resolve to the fork interpreter's own
	// registrations — not host-state capture.
	pure := func(it *Interp) {
		mod := &Module{Name: "ctr", Member: map[string]Value{}}
		mod.Member["Incr"] = &HostFunc{Name: "ctr.Incr", Fn: func(it *Interp, args []Value) (Value, error) {
			return int64(7), nil
		}}
		it.RegisterModule(mod)
		it.RegisterHostFunc("hostDouble", func(it *Interp, args []Value) (Value, error) {
			return args[0].(int64) * 2, nil
		})
	}
	runForkVsStraight(t, map[string]string{"t.go": src}, []string{"t.go"}, pure, "F")
}

// TestForkOntoMutatedProgram is the campaign scenario: snapshot the base
// program's prefix, then fork onto a WithFiles-derived program whose
// site function was mutated. The fork must behave exactly like a
// straight run of the mutated program — the prefix never executes the
// mutated function, so the snapshot is valid for both.
func TestForkOntoMutatedProgram(t *testing.T) {
	base := `package main
func site(x int) any { return x + 1 }
func F() any {
	a := 10
	b := a * 2
	c := site(b)
	return a + b + c
}`
	mutated := `package main
func site(x int) any { return x - 1 }
func F() any {
	a := 10
	b := a * 2
	c := site(b)
	return a + b + c
}`
	prog, err := CompileProgram([]SourceUnit{{Name: "t.go", Src: []byte(base)}})
	if err != nil {
		t.Fatal(err)
	}
	mprog, err := prog.WithFiles(map[string][]byte{"t.go": []byte(mutated)})
	if err != nil {
		t.Fatal(err)
	}

	// Straight run of the mutated program: the reference.
	ms := NewRun(mprog, Config{})
	if err := ms.Boot(); err != nil {
		t.Fatal(err)
	}
	wantVal, wantErr := ms.Call("F")
	if wantErr != nil {
		t.Fatal(wantErr)
	}

	// Prefix the BASE program, snapshotting before the site call (the
	// boundary discipline: statement 2 is `c := site(b)`).
	pre := NewRun(prog, Config{})
	if err := pre.Boot(); err != nil {
		t.Fatal(err)
	}
	var snaps []*Snapshot
	_, err = pre.CallPrefix("F", func(stmt int) bool {
		s, serr := pre.Snapshot()
		if serr != nil {
			t.Fatalf("Snapshot: %v", serr)
		}
		snaps = append(snaps, s)
		return stmt < 2 // stop after the boundary preceding the site call
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("captured %d snapshots, want 3", len(snaps))
	}

	for _, snap := range snaps {
		fork := NewRun(mprog, Config{})
		gotVal, gotErr := fork.Fork(snap)
		if gotErr != nil {
			t.Fatalf("fork@%d: %v", snap.Stmt(), gotErr)
		}
		if Repr(gotVal) != Repr(wantVal) {
			t.Errorf("fork@%d onto mutated program = %s, want %s", snap.Stmt(), Repr(gotVal), Repr(wantVal))
		}
		if fork.Steps() != ms.Steps() {
			t.Errorf("fork@%d steps = %d, want %d", snap.Stmt(), fork.Steps(), ms.Steps())
		}
	}
}

// TestForkRejectsCapturedMutatedClosure: a snapshot holding a closure
// literal from the mutated file has no faithful translation — the
// literal has no nameable counterpart — and must report ErrUnforkable
// instead of resuming with stale code.
func TestForkRejectsCapturedMutatedClosure(t *testing.T) {
	base := `package main
func site() any { return func() any { return 1 } }
func F() any {
	g := site()
	h := g
	return h() + g()
}`
	mutated := `package main
func site() any { return func() any { return 2 } }
func F() any {
	g := site()
	h := g
	return h() + g()
}`
	prog, err := CompileProgram([]SourceUnit{{Name: "t.go", Src: []byte(base)}})
	if err != nil {
		t.Fatal(err)
	}
	mprog, err := prog.WithFiles(map[string][]byte{"t.go": []byte(mutated)})
	if err != nil {
		t.Fatal(err)
	}
	pre := NewRun(prog, Config{})
	if err := pre.Boot(); err != nil {
		t.Fatal(err)
	}
	var snaps []*Snapshot
	if _, err := pre.CallPrefix("F", func(stmt int) bool {
		s, serr := pre.Snapshot()
		if serr != nil {
			t.Fatalf("Snapshot: %v", serr)
		}
		snaps = append(snaps, s)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// The boundary after `g := site()` holds the base literal in a slot.
	holding := snaps[1]
	fork := NewRun(mprog, Config{})
	if _, err := fork.Fork(holding); !errors.Is(err, ErrUnforkable) {
		t.Fatalf("fork with captured mutated closure: err = %v, want ErrUnforkable", err)
	}
	// The boundary before anything ran is still forkable.
	fork2 := NewRun(mprog, Config{})
	got, err := fork2.Fork(snaps[0])
	if err != nil {
		t.Fatalf("fork@0: %v", err)
	}
	if Repr(got) != "4" {
		t.Errorf("fork@0 onto mutated program = %s, want 4", Repr(got))
	}
}

// TestSnapshotOutsideCheckpoint pins the misuse guard.
func TestSnapshotOutsideCheckpoint(t *testing.T) {
	prog, err := CompileProgram([]SourceUnit{{Name: "t.go", Src: []byte("package main\nfunc F() any { return 1 }")}})
	if err != nil {
		t.Fatal(err)
	}
	it := NewRun(prog, Config{})
	if err := it.Boot(); err != nil {
		t.Fatal(err)
	}
	if _, err := it.Snapshot(); err == nil {
		t.Fatal("Snapshot outside a checkpoint succeeded")
	}
}

// TestForkRequiresFreshInterp: forking onto an interpreter that already
// ran is a caller bug, not a fallback condition.
func TestForkRequiresFreshInterp(t *testing.T) {
	src := "package main\nfunc F() any {\n\tx := 1\n\treturn x\n}"
	prog, err := CompileProgram([]SourceUnit{{Name: "t.go", Src: []byte(src)}})
	if err != nil {
		t.Fatal(err)
	}
	pre := NewRun(prog, Config{})
	if err := pre.Boot(); err != nil {
		t.Fatal(err)
	}
	var snap *Snapshot
	if _, err := pre.CallPrefix("F", func(int) bool {
		snap, _ = pre.Snapshot()
		return false
	}); err != nil {
		t.Fatal(err)
	}
	used := NewRun(prog, Config{})
	if err := used.Boot(); err != nil {
		t.Fatal(err)
	}
	if _, _ = used.Call("F"); used.Steps() == 0 {
		t.Fatal("expected steps after Call")
	}
	if _, err := used.Fork(snap); err == nil {
		t.Fatal("Fork on a used interpreter succeeded")
	}
}

// TestForkMissingHostValue: a snapshot referencing a host registration
// the fork environment lacks must be unforkable, not nil-dereference.
func TestForkMissingHostValue(t *testing.T) {
	src := `package main
func F() any {
	f := hostFn
	return f()
}`
	prog, err := CompileProgram([]SourceUnit{{Name: "t.go", Src: []byte(src)}})
	if err != nil {
		t.Fatal(err)
	}
	reg := func(it *Interp) {
		it.RegisterHostFunc("hostFn", func(it *Interp, args []Value) (Value, error) {
			return int64(42), nil
		})
	}
	pre := NewRun(prog, Config{})
	reg(pre)
	if err := pre.Boot(); err != nil {
		t.Fatal(err)
	}
	var snaps []*Snapshot
	if _, err := pre.CallPrefix("F", func(stmt int) bool {
		s, serr := pre.Snapshot()
		if serr != nil {
			t.Fatalf("Snapshot: %v", serr)
		}
		snaps = append(snaps, s)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// snaps[1] holds hostFn in a slot. Fork without registering it.
	bare := NewRun(prog, Config{})
	if _, err := bare.Fork(snaps[1]); !errors.Is(err, ErrUnforkable) {
		t.Fatalf("fork without host registration: err = %v, want ErrUnforkable", err)
	}
	// With the registration present, the fork translates the reference.
	good := NewRun(prog, Config{})
	reg(good)
	got, err := good.Fork(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	if Repr(got) != "42" {
		t.Errorf("fork = %s, want 42", Repr(got))
	}
}

package interp

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// reachRecorder is a CallHook that also implements ReachHook: it keeps
// every reach ID in the order the interpreter reported it.
type reachRecorder struct{ ids []int }

func (r *reachRecorder) EnterCall(*Interp, string) error { return nil }
func (r *reachRecorder) LeaveCall(_ *Interp, _ string, v Value) (Value, error) {
	return v, nil
}
func (r *reachRecorder) Reach(id int) { r.ids = append(r.ids, id) }

// listStmtOffsets returns the byte offset of every statement that sits
// in a statement list of src — block bodies and case clauses, function
// literals included: the statements a ReachHook reports.
func listStmtOffsets(t *testing.T, src string) []int {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int
	ast.Inspect(f, func(n ast.Node) bool {
		var list []ast.Stmt
		switch x := n.(type) {
		case *ast.BlockStmt:
			list = x.List
		case *ast.CaseClause:
			list = x.Body
		}
		for _, s := range list {
			if _, clause := s.(*ast.CaseClause); !clause { // a switch body lists its clauses
				offs = append(offs, fset.Position(s.Pos()).Offset)
			}
		}
		return true
	})
	sort.Ints(offs)
	return offs
}

// instrumentReach is the text reference for the probe: a call
// __reach(off) spliced in front of every list statement, off being the
// statement's offset in the uninstrumented source.
func instrumentReach(src string, offs []int) string {
	var b bytes.Buffer
	prev := 0
	for _, off := range offs {
		b.WriteString(src[prev:off])
		b.WriteString("__reach(" + strconv.Itoa(off) + "); ")
		prev = off
	}
	b.WriteString(src[prev:])
	return b.String()
}

// reachProgram exercises every statement list the compiler lowers: if
// and else, for and range, switch cases and default, a closure, a
// deferred call and a recovered panic.
const reachProgram = `package main

func pick(n int) any {
	switch n {
	case 0:
		return "zero"
	case 1, 2:
		x := "small"
		return x
	default:
		if n > 10 {
			return "big"
		} else {
			n = n + 1
		}
	}
	return n
}

func risky() any {
	defer func() {
		recover()
		println("recovered")
	}()
	panic("boom")
}

func Workload() any {
	total := 0
	add := func(v int) any {
		total = total + v
		return total
	}
	for i := 0; i < 3; i++ {
		if i == 1 {
			continue
		}
		add(i)
	}
	for _, v := range []int{4, 5} {
		add(v)
	}
	{
		println(pick(0), pick(2), pick(7), pick(11))
	}
	switch {
	case total > 100:
		println("unreached")
	}
	risky()
	return total
}
`

// TestReachFiresAtEveryExecutedStatement: the probe reports, in order,
// exactly the statements the text reference's hooks report, through
// Call, through CallPrefix, and through a prefix plus a Fork resumed at
// each entry-body boundary.
func TestReachFiresAtEveryExecutedStatement(t *testing.T) {
	offs := listStmtOffsets(t, reachProgram)

	// The reference: the instrumented text on the compiled path, its
	// hook calls recorded by offset.
	var want []int
	ref := NewHostEnv().Func("__reach", func(it *Interp, args []Value) (Value, error) {
		want = append(want, int(args[0].(int64)))
		return nil, nil
	})
	refProg, err := CompileProgram([]SourceUnit{{Name: "t.go", Src: []byte(instrumentReach(reachProgram, offs))}})
	if err != nil {
		t.Fatal(err)
	}
	refRun := NewRun(refProg, Config{})
	refRun.Install(ref)
	if err := refRun.Boot(); err != nil {
		t.Fatal(err)
	}
	if _, err := refRun.Call("Workload"); err != nil {
		t.Fatal(err)
	}

	prog, err := CompileProgram([]SourceUnit{{Name: "t.go", Src: []byte(reachProgram)}})
	if err != nil {
		t.Fatal(err)
	}
	offOf := make(map[int]int, len(offs))
	for _, off := range offs {
		id, ok := prog.StmtAt("t.go", off)
		if !ok {
			t.Fatalf("statement at offset %d has no reach ID", off)
		}
		if id < 0 || id >= prog.Stmts() {
			t.Fatalf("reach ID %d outside [0, %d)", id, prog.Stmts())
		}
		offOf[id] = off
	}
	if len(offOf) != len(offs) || prog.Stmts() != len(offs) {
		t.Fatalf("%d list statements got %d distinct IDs of %d", len(offs), len(offOf), prog.Stmts())
	}
	asOffsets := func(ids []int) []int {
		out := make([]int, len(ids))
		for i, id := range ids {
			out[i] = offOf[id]
		}
		return out
	}
	run := func(call func(it *Interp) error) []int {
		t.Helper()
		rec := &reachRecorder{}
		it := NewRun(prog, Config{Hook: rec})
		if err := it.Boot(); err != nil {
			t.Fatal(err)
		}
		if err := call(it); err != nil {
			t.Fatal(err)
		}
		return asOffsets(rec.ids)
	}

	if got := run(func(it *Interp) error { _, err := it.Call("Workload"); return err }); !reflect.DeepEqual(got, want) {
		t.Fatalf("Call reached\n %v\nwant\n %v", got, want)
	}
	if got := run(func(it *Interp) error {
		_, err := it.CallPrefix("Workload", func(int) bool { return true })
		return err
	}); !reflect.DeepEqual(got, want) {
		t.Fatalf("CallPrefix reached\n %v\nwant\n %v", got, want)
	}

	// Prefix up to each boundary, then a Fork from there: together they
	// report the straight run's sequence.
	var snaps []*Snapshot
	var before []int // statements reached before each snapshot
	rec := &reachRecorder{}
	prefix := NewRun(prog, Config{Hook: rec})
	if err := prefix.Boot(); err != nil {
		t.Fatal(err)
	}
	if _, err := prefix.CallPrefix("Workload", func(int) bool {
		snap, err := prefix.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps, before = append(snaps, snap), append(before, len(rec.ids))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i, snap := range snaps {
		frec := &reachRecorder{}
		fork := NewRun(prog, Config{Hook: frec})
		if _, err := fork.Fork(snap); err != nil {
			t.Fatal(err)
		}
		got := append(asOffsets(rec.ids[:before[i]]), asOffsets(frec.ids)...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fork at statement %d: prefix + fork reached\n %v\nwant\n %v", snap.Stmt(), got, want)
		}
	}
}

// TestReachLeavesRunUnchanged runs the equivalence corpus on the
// compiled path with and without a reach recorder: result, error, steps,
// virtual clock and stdout must not move.
func TestReachLeavesRunUnchanged(t *testing.T) {
	for _, tc := range equivCorpus {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := CompileProgram([]SourceUnit{{Name: "t.go", Src: []byte("package main\n" + tc.src)}})
			if err != nil {
				t.Skipf("does not compile: %v", err)
			}
			type outcome struct {
				val, err, out string
				steps, clock  int64
			}
			run := func(hook CallHook) outcome {
				var out bytes.Buffer
				it := NewRun(prog, Config{MaxSteps: 200_000, Stdout: &out, Hook: hook})
				equivHostSetup(it)
				if err := it.Boot(); err != nil {
					return outcome{err: err.Error()}
				}
				v, err := it.Call(tc.entry, tc.args...)
				return outcome{Repr(v), fmt.Sprint(err), out.String(), it.Steps(), it.Clock()}
			}
			rec := &reachRecorder{}
			if bare, observed := run(nil), run(rec); bare != observed {
				t.Errorf("recorder changed the run:\n without: %+v\n with:    %+v", bare, observed)
			}
		})
	}
}

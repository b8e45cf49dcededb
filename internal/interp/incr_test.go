package interp

import (
	"bytes"
	"strings"
	"testing"
)

// Incremental WithFiles recompilation: campaigns derive hundreds of
// programs that differ from the base in one byte window inside one
// function, so WithFiles recompiles just that declaration. These tests
// pin the fast path's engagement, its equivalence with a full
// recompile, and every fallback rule.

const incrBase = `package main

import "fmt"

var limit = 3

func helper(x any) any {
	return x + 1
}

type Box struct{}

func (b Box) Get(n any) any {
	s := 0
	for i := 0; i < n; i++ {
		s = s + helper(i)
	}
	return s
}

func Entry(n any) any {
	b := Box{}
	fmt.Sprintf("%v", limit)
	return b.Get(n) + limit
}
`

func incrProgram(t *testing.T, src string) *Program {
	t.Helper()
	p, err := CompileProgram([]SourceUnit{{Name: "t.go", Src: []byte(src)}})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func incrCall(t *testing.T, p *Program, fn string, args ...Value) (Value, error) {
	t.Helper()
	it := NewRun(p, Config{})
	if err := it.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	return it.Call(fn, args...)
}

// incrTree runs src on the tree-walk, the reference the spliced program
// must agree with.
func incrTree(t *testing.T, src []byte, fn string, args ...Value) (Value, error) {
	t.Helper()
	it := New(Config{})
	if err := it.LoadSource("t.go", src); err != nil {
		t.Fatalf("tree-walk load: %v", err)
	}
	return it.Call(fn, args...)
}

// mutate splices old->new once, failing if the needle is absent.
func mutate(t *testing.T, src, old, new string) []byte {
	t.Helper()
	if !strings.Contains(src, old) {
		t.Fatalf("needle %q not in source", old)
	}
	return []byte(strings.Replace(src, old, new, 1))
}

func TestIncrementalRecompileEngages(t *testing.T) {
	cases := []struct {
		name string
		old  string
		new  string
	}{
		{"plain function body", "return x + 1", "return x + 2"},
		{"method body", "s = s + helper(i)", "s = s - helper(i)"},
		{"shrinking edit", "s := 0\n\tfor i := 0; i < n; i++ {\n\t\ts = s + helper(i)\n\t}\n\treturn s", "return n"},
		{"growing edit", "return b.Get(n) + limit", "x := b.Get(n)\n\tx = x * 2\n\treturn x + limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := incrProgram(t, incrBase)
			mutated := mutate(t, incrBase, tc.old, tc.new)
			np, err := base.WithFiles(map[string][]byte{"t.go": mutated})
			if err != nil {
				t.Fatalf("WithFiles: %v", err)
			}
			if got := base.IncrementalRecompiles(); got != 1 {
				t.Fatalf("incremental recompiles = %d, want 1 (fast path did not engage)", got)
			}
			// The spliced program must behave exactly like a from-scratch
			// compile of the mutated source and like the tree-walk on it.
			gv, ge := incrCall(t, np, "Entry", int64(4))
			wv, we := incrCall(t, incrProgram(t, string(mutated)), "Entry", int64(4))
			if gv != wv || (ge == nil) != (we == nil) {
				t.Errorf("spliced Entry(4) = (%v, %v), full recompile = (%v, %v)", gv, ge, wv, we)
			}
			tv, te := incrTree(t, mutated, "Entry", int64(4))
			if gv != tv || (ge == nil) != (te == nil) {
				t.Errorf("spliced Entry(4) = (%v, %v), tree-walk = (%v, %v)", gv, ge, tv, te)
			}
		})
	}
}

// TestIncrementalRecompileRepeated drives a chain of derivations off one
// base, the way a campaign does, and checks each splice lands on the
// declaration the edit touched — including decls after an earlier edit
// shifted byte offsets.
func TestIncrementalRecompileRepeated(t *testing.T) {
	base := incrProgram(t, incrBase)
	edits := []struct{ old, new string }{
		{"return x + 1", "return x + 100"},
		{"s = s + helper(i)", "s = s + helper(i) + 1"},
		{"return b.Get(n) + limit", "return b.Get(n) - limit"},
	}
	for i, e := range edits {
		mutated := mutate(t, incrBase, e.old, e.new)
		np, err := base.WithFiles(map[string][]byte{"t.go": mutated})
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		want := incrProgram(t, string(mutated))
		gv, _ := incrCall(t, np, "Entry", int64(5))
		wv, _ := incrCall(t, want, "Entry", int64(5))
		if gv != wv {
			t.Errorf("edit %d: Entry(5) = %v, want %v", i, gv, wv)
		}
	}
	if got := base.IncrementalRecompiles(); got != uint64(len(edits)) {
		t.Errorf("incremental recompiles = %d, want %d", got, len(edits))
	}
}

// TestIncrementalRecompileFallbacks enumerates the diffs the fast path
// must refuse: anything that is not one window inside one function.
func TestIncrementalRecompileFallbacks(t *testing.T) {
	cases := []struct {
		name string
		src  func() []byte
	}{
		{"edit outside any function", func() []byte {
			return mutate(t, incrBase, "var limit = 3", "var limit = 4")
		}},
		{"renamed function", func() []byte {
			return mutate(t, incrBase, "func helper(x any) any {\n\treturn x + 1",
				"func helper2(x any) any {\n\treturn x + 9")
		}},
		{"window spanning two decls", func() []byte {
			return mutate(t, incrBase, "return x + 1\n}\n\ntype Box struct{}\n\nfunc (b Box) Get(n any) any {\n\ts := 0",
				"return x + 7\n}\n\ntype Box struct{}\n\nfunc (b Box) Get(n any) any {\n\ts := 9")
		}},
		{"appended declaration", func() []byte {
			return []byte(incrBase + "\nfunc extra() any { return 1 }\n")
		}},
		{"syntax error in body", func() []byte {
			return mutate(t, incrBase, "return x + 1", "return x +")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := incrProgram(t, incrBase)
			mutated := tc.src()
			np, err := base.WithFiles(map[string][]byte{"t.go": mutated})
			wantErr := bytes.Contains(mutated, []byte("return x +\n"))
			if wantErr {
				if err == nil {
					t.Fatalf("expected parse error from full path")
				}
				return
			}
			if err != nil {
				t.Fatalf("WithFiles: %v", err)
			}
			if got := base.IncrementalRecompiles(); got != 0 {
				t.Fatalf("incremental recompiles = %d, want 0 (fallback expected)", got)
			}
			want := incrProgram(t, string(mutated))
			gv, _ := incrCall(t, np, "Entry", int64(3))
			wv, _ := incrCall(t, want, "Entry", int64(3))
			if gv != wv {
				t.Errorf("Entry(3) = %v, want %v", gv, wv)
			}
		})
	}
}

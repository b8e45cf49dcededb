package interp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"sync"
	"testing"
)

// dispatchSrc drives one method call site (call) with receivers of two
// shapes, a receiver that has no such method and one that gained a field
// named like the method, and defers a method call.
const dispatchSrc = `package main

var trail = ""

type T struct{}

func (t *T) M() any { trail = trail + "T"; return "T" }

type U struct{}

func (u *U) M() any { return "U" }

type V struct{}

func call(x any) any { return x.M() }

func F() any {
	t := &T{}
	out := call(t) + call(&U{})
	func() {
		defer func() { out = out + ":" + recover().Type }()
		call(&V{})
	}()
	func() { defer t.M() }()
	t.M = func() any { return "field" }
	return out + ":" + call(t) + ":" + trail
}
`

// TestMethodDispatchFollowsTheRunningProgram runs a base program and a
// WithDecl mutant that replaces T.M, alternately and from two goroutines,
// through call sites the two programs share, each run installing the
// same host environment: each run must dispatch to its own program's
// method, a field named like a method wins, and a missing method raises
// AttributeError.
func TestMethodDispatchFollowsTheRunningProgram(t *testing.T) {
	base := incrProgram(t, dispatchSrc)
	msrc := strings.Replace(dispatchSrc, `trail = trail + "T"; return "T"`, `trail = trail + "m"; return "m"`, 1)
	f, err := parser.ParseFile(token.NewFileSet(), "t.go", msrc, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var fd *ast.FuncDecl
	for _, d := range f.Decls {
		if d, ok := d.(*ast.FuncDecl); ok && d.Recv != nil && d.Name.Name == "M" {
			if tn, _ := recvInfo(d); tn == "T" {
				fd = d
			}
		}
	}
	mutant, err := base.WithDecl("t.go", fd, []byte(msrc))
	if err != nil {
		t.Fatal(err)
	}
	if &mutant.units[0].ops[0] != &base.units[0].ops[0] {
		t.Fatal("the mutant must share the base program's compiled call sites")
	}
	want := map[*Program]string{
		base:   "TU:AttributeError:field:TT",
		mutant: "mU:AttributeError:field:mm",
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := base
				if (i+g)%2 == 1 {
					p = mutant
				}
				it := NewRun(p, Config{})
				equivHostSetup(it)
				if err := it.Boot(); err != nil {
					t.Error(err)
					return
				}
				if v, err := it.Call("F"); err != nil || v != want[p] {
					t.Errorf("run %d: F() = %v, %v; want %q", i, Repr(v), err, want[p])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

package interp

import (
	"testing"
)

// benchSource is a representative workload round: request loops over
// maps and lists, string handling, helper calls, closures, defers and a
// recovered exception — the mix the kvclient workload exercises.
const benchSource = `package main

var calls = 0

func handle(key string, store any) any {
	calls = calls + 1
	if len(key) == 0 {
		throw("KeyError", "empty key")
	}
	v, ok := store[key]
	if !ok {
		store[key] = 0
		v = 0
	}
	store[key] = v + 1
	return store[key]
}

func batch(n int) any {
	store := map[string]any{}
	keys := []any{"alpha", "beta", "gamma", "delta"}
	total := 0
	for i := 0; i < n; i++ {
		for _, k := range keys {
			total += handle(k, store)
		}
	}
	return total
}

func guarded(n int) any {
	out := 0
	func() {
		defer func() {
			if r := recover(); r != nil {
				out = -1
			}
		}()
		out = batch(n)
	}()
	return out
}

func Workload() any {
	acc := 0
	for round := 0; round < 4; round++ {
		acc += guarded(8)
	}
	parts := []any{}
	for i := 0; i < 16; i++ {
		parts = append(parts, "k"+str(i%4))
	}
	s := ""
	for _, p := range parts {
		s = s + p
	}
	return str(acc) + ":" + s[0:8]
}
`

// hotSource isolates the recycled slot-frame call path with small-int
// arithmetic (values stay in the runtime's small-value cache), so
// allocs/op reflects frame setup only.
const hotSource = `package main
func Hot() any {
	count := 0
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			count++
		}
	}
	return count
}`

// benchRows names the benchmark rows: the tree-walk reference and the
// closure-compiled production path.
var benchRows = []struct {
	name     string
	treeWalk bool // New + LoadSource instead of CompileProgram + NewRun
}{
	{name: "tree-walk", treeWalk: true},
	{name: "closure"},
}

// newBenchInterp builds a ready-to-call interpreter over the given source.
func newBenchInterp(tb testing.TB, treeWalk bool, src string) *Interp {
	cfg := Config{MaxSteps: 1 << 60}
	if treeWalk {
		it := New(cfg)
		if err := it.LoadSource("w.go", []byte(src)); err != nil {
			tb.Fatal(err)
		}
		return it
	}
	prog, err := CompileProgram([]SourceUnit{{Name: "w.go", Src: []byte(src)}})
	if err != nil {
		tb.Fatal(err)
	}
	it := NewRun(prog, cfg)
	if err := it.Boot(); err != nil {
		tb.Fatal(err)
	}
	return it
}

// BenchmarkExec isolates pure execution per row (front-end work done
// once outside the loop).
func BenchmarkExec(b *testing.B) {
	for _, eb := range benchRows {
		b.Run(eb.name, func(b *testing.B) {
			it := newBenchInterp(b, eb.treeWalk, benchSource)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := it.Call("Workload"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRound measures one full workload round per row: what one
// experiment round pays including interpreter setup. The compiled row
// compiles once outside the loop (a campaign compiles once and reuses the
// Program across all experiments), so a round is NewRun + Boot + execute;
// the tree-walk re-parses every round, as it must.
func BenchmarkRound(b *testing.B) {
	src := []byte(benchSource)
	prog, err := CompileProgram([]SourceUnit{{Name: "w.go", Src: src}})
	if err != nil {
		b.Fatal(err)
	}
	for _, eb := range benchRows {
		b.Run(eb.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if eb.treeWalk {
					it := New(Config{})
					if err := it.LoadSource("w.go", src); err != nil {
						b.Fatal(err)
					}
					if _, err := it.Call("Workload"); err != nil {
						b.Fatal(err)
					}
					continue
				}
				it := NewRun(prog, Config{})
				if err := it.Boot(); err != nil {
					b.Fatal(err)
				}
				if _, err := it.Call("Workload"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCallHotPath runs the tight arithmetic loop per row; the
// compiled row must stay allocation-free in steady state.
func BenchmarkCallHotPath(b *testing.B) {
	for _, eb := range benchRows {
		b.Run(eb.name, func(b *testing.B) {
			it := newBenchInterp(b, eb.treeWalk, hotSource)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := it.Call("Hot"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileProgram measures the one-time compile cost a campaign
// amortizes over all rounds and experiments.
func BenchmarkCompileProgram(b *testing.B) {
	src := []byte(benchSource)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CompileProgram([]SourceUnit{{Name: "w.go", Src: src}}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompiledHotPathAllocs asserts the recycled-frame path of the
// compiled engine: the hot loop must allocate far less than the
// tree-walk (which builds a Scope map per block per iteration) and stay
// under a fixed small bound per call.
func TestCompiledHotPathAllocs(t *testing.T) {
	tw := newBenchInterp(t, true, hotSource)
	tree := testing.AllocsPerRun(200, func() {
		if _, err := tw.Call("Hot"); err != nil {
			t.Fatal(err)
		}
	})
	crun := newBenchInterp(t, false, hotSource)
	compiled := testing.AllocsPerRun(200, func() {
		if _, err := crun.Call("Hot"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/call: compiled=%.1f tree-walk=%.1f", compiled, tree)
	if compiled > 8 {
		t.Errorf("compiled hot path allocates %.1f/call, want <= 8 (recycled frames)", compiled)
	}
	if compiled*20 > tree {
		t.Errorf("compiled hot path allocates %.1f/call vs tree-walk %.1f — expected >= 20x reduction",
			compiled, tree)
	}
}

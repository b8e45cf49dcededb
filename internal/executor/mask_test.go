package executor

import (
	"context"
	"sync/atomic"
	"testing"

	"profipy/internal/analysis"
	"profipy/internal/scanner"
)

func TestMaskSemantics(t *testing.T) {
	var nilMask *Mask
	if nilMask.Has(0) || nilMask.Count() != 0 || nilMask.Len() != 0 {
		t.Fatal("nil mask is not empty")
	}
	nilMask.Set(3) // must not panic

	m := NewMask(130)
	for _, i := range []int{0, 63, 64, 129} {
		m.Set(i)
	}
	m.Set(63)   // idempotent
	m.Set(-1)   // out of range
	m.Set(130)  // out of range
	m.Set(1000) // out of range
	if m.Count() != 4 {
		t.Fatalf("count = %d, want 4", m.Count())
	}
	for i := 0; i < 130; i++ {
		want := i == 0 || i == 63 || i == 64 || i == 129
		if m.Has(i) != want {
			t.Fatalf("Has(%d) = %v, want %v", i, m.Has(i), want)
		}
	}
	if m.Has(-1) || m.Has(130) {
		t.Fatal("out-of-range Has reported true")
	}
	if m.Len() != 130 {
		t.Fatalf("len = %d, want 130", m.Len())
	}
}

// TestSkipMaskedIndicesNotExecuted drives every engine with a skip mask
// and asserts the masked experiments neither run nor emit, while the
// missing ones produce exactly the records an unmasked run would.
func TestSkipMaskedIndicesNotExecuted(t *testing.T) {
	const n = 41
	skip := NewMask(n)
	for i := 0; i < n; i += 3 {
		skip.Set(i)
	}
	engines := []Executor{
		Local{Skip: skip},
		Local{Workers: 4, Skip: skip},
		fleetless(4, 2, skip),
		fleetless(7, 0, skip),
	}
	for _, ex := range engines {
		var executed atomic.Int64
		var emitted atomic.Int64
		exp := func(idx int) analysis.Record {
			if skip.Has(idx) {
				t.Errorf("%s: executed masked index %d", ex.Name(), idx)
			}
			executed.Add(1)
			return analysis.Record{Point: scanner.InjectionPoint{Line: idx}}
		}
		col := NewCollect(n)
		sink := SinkFunc(func(idx int, rec analysis.Record) {
			emitted.Add(1)
			col.Put(idx, rec)
		})
		if err := ex.Run(context.Background(), n, exp, sink); err != nil {
			t.Fatalf("%s: %v", ex.Name(), err)
		}
		wantRun := int64(n - skip.Count())
		if executed.Load() != wantRun || emitted.Load() != wantRun {
			t.Fatalf("%s: executed=%d emitted=%d, want %d",
				ex.Name(), executed.Load(), emitted.Load(), wantRun)
		}
		for i, rec := range col.Records() {
			if skip.Has(i) {
				if rec.Point.Line != 0 {
					t.Fatalf("%s: masked index %d got a record", ex.Name(), i)
				}
				continue
			}
			if rec.Point.Line != i {
				t.Fatalf("%s: record %d = %+v", ex.Name(), i, rec.Point)
			}
		}
	}
}

// TestSkipAllIndices covers the fully-replayed resume: nothing left to
// execute, Run returns without ever calling the experiment.
func TestSkipAllIndices(t *testing.T) {
	const n = 9
	skip := NewMask(n)
	for i := 0; i < n; i++ {
		skip.Set(i)
	}
	for _, ex := range []Executor{Local{Skip: skip}, fleetless(3, 0, skip)} {
		exp := func(idx int) analysis.Record {
			t.Fatalf("%s: executed index %d of a fully-masked plan", ex.Name(), idx)
			return analysis.Record{}
		}
		if err := ex.Run(context.Background(), n, exp, SinkFunc(func(int, analysis.Record) {
			t.Fatalf("%s: emitted a record for a fully-masked plan", ex.Name())
		})); err != nil {
			t.Fatal(err)
		}
	}
}

package plan

import (
	"bytes"
	"encoding/json"
	"testing"
	"unicode/utf8"

	"profipy/internal/faultmodel"
	"profipy/internal/genproject"
	"profipy/internal/scanner"
)

// FuzzSaveMatchesMarshalIndent: Save writes the bytes json.MarshalIndent
// writes, whatever the strings hold (HTML characters, U+2028/U+2029,
// control bytes, invalid UTF-8), whatever the integers are, and with nil
// or empty specs and points; and a loaded plan saves to the bytes it was
// loaded from. shape picks the specs (bits 0–1: nil, empty, one, two) and
// the points (bits 2–3: nil, empty, one, three). The seed corpus is under
// testdata/fuzz/FuzzSaveMatchesMarshalIndent.
func FuzzSaveMatchesMarshalIndent(f *testing.F) {
	f.Fuzz(func(t *testing.T, name, typ, doc, dsl, trigger, action, spec, file, fn, snippet string, listIndex, start, n, line int, shape uint8) {
		var p Plan
		switch shape & 3 {
		case 1:
			p.Specs = []faultmodel.Spec{}
		case 2, 3:
			p.Specs = []faultmodel.Spec{{Name: name, Type: typ, Doc: doc, DSL: dsl, Trigger: trigger, Action: action}}
			if shape&3 == 3 {
				p.Specs = append(p.Specs, faultmodel.Spec{Name: dsl, DSL: name})
			}
		}
		pt := scanner.InjectionPoint{Spec: spec, File: file, Func: fn, ListIndex: listIndex, Start: start, N: n, Line: line, Snippet: snippet}
		switch shape >> 2 & 3 {
		case 1:
			p.Points = []scanner.InjectionPoint{}
		case 2:
			p.Points = []scanner.InjectionPoint{pt}
		case 3:
			swapped := scanner.InjectionPoint{Spec: snippet, File: fn, Func: file, ListIndex: -line, Start: n, N: start, Line: -listIndex, Snippet: spec}
			p.Points = []scanner.InjectionPoint{pt, swapped, {}}
		}

		want, err := json.MarshalIndent(&p, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Save()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Save differs from json.MarshalIndent:\n got %q\nwant %q", got, want)
		}

		// encoding/json writes an invalid byte as the escape \ufffd,
		// which loads as U+FFFD and saves as its three UTF-8 bytes: such
		// a plan reaches its fixed point one save later.
		saved := got
		for _, s := range []string{name, typ, doc, dsl, trigger, action, spec, file, fn, snippet} {
			if !utf8.ValidString(s) {
				loaded, err := Load(saved)
				if err != nil {
					t.Fatal(err)
				}
				if saved, err = loaded.Save(); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		loaded, err := Load(saved)
		if err != nil {
			t.Fatalf("Load(Save(p)): %v", err)
		}
		again, err := loaded.Save()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, saved) {
			t.Fatalf("Load(Save(p)).Save() differs:\n got %q\nwant %q", again, saved)
		}
	})
}

// BenchmarkPlanSave writes the plan of the 40k-line §V-D corpus
// (genproject.DefaultConfig(40_000, 1) × Patterns(120)); MarshalIndent is
// the reference encoding Save must reproduce. Run with:
//
//	go test -run '^$' -bench PlanSave -benchmem ./internal/plan/
func BenchmarkPlanSave(b *testing.B) {
	p, err := Build(genproject.Generate(genproject.DefaultConfig(40_000, 1)), genproject.Patterns(120))
	if err != nil {
		b.Fatal(err)
	}
	for _, enc := range []struct {
		name string
		save func() ([]byte, error)
	}{
		{"Save", p.Save},
		{"MarshalIndent", func() ([]byte, error) { return json.MarshalIndent(p, "", "  ") }},
	} {
		b.Run(enc.name, func(b *testing.B) {
			data, err := enc.save()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := enc.save(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

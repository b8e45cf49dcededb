// Crash-resume regression tests: a campaign seeded with records from a
// previous (interrupted) run must execute only the missing experiments
// and still produce records and a report byte-identical to one
// uninterrupted run. This is the engine-level contract behind the
// control plane's restart recovery: because experiment seeds derive
// from plan indices, re-executing any subset reproduces the same bytes,
// and the aggregator folds replayed and fresh records commutatively.
package profipy

import (
	"bytes"
	"encoding/json"
	"testing"

	"profipy/internal/analysis"
	"profipy/internal/campaign"
	"profipy/internal/executor"
	"profipy/internal/kvclient"
)

// runCampaignA runs the §V-A campaign with optional resume records and
// an executor override, returning the result plus how many experiments
// actually executed (reached the record sink).
func runCampaignA(t *testing.T, exec executor.Executor, resume []analysis.Record) (*campaign.Result, int) {
	t.Helper()
	rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
	c := kvclient.CampaignA(rt, 101)
	c.Executor = exec
	c.Resume = resume
	executed := 0
	c.Sink = executor.SinkFunc(func(idx int, rec analysis.Record) { executed++ })
	res, err := c.Run()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	return res, executed
}

func reportJSON(t *testing.T, res *campaign.Result) []byte {
	t.Helper()
	data, err := json.MarshalIndent(res.Report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func recordsJSON(t *testing.T, res *campaign.Result) []byte {
	t.Helper()
	data, err := json.MarshalIndent(res.Records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestResumeProducesByteIdenticalResults(t *testing.T) {
	full, fullExecuted := runCampaignA(t, nil, nil)
	if fullExecuted != len(full.Records) || fullExecuted == 0 {
		t.Fatalf("uninterrupted run executed %d of %d", fullExecuted, len(full.Records))
	}
	wantReport := reportJSON(t, full)
	wantRecords := recordsJSON(t, full)

	// Interrupt points: one record in, roughly half, all but one, all.
	n := len(full.Records)
	for _, k := range []int{1, n / 2, n - 1, n} {
		engines := map[string]executor.Executor{
			"local":  nil,
			"remote": fleetless(2),
		}
		for name, exec := range engines {
			resume := append([]analysis.Record(nil), full.Records[:k]...)
			res, executed := runCampaignA(t, exec, resume)
			if res.Replayed != k {
				t.Fatalf("%s k=%d: replayed %d", name, k, res.Replayed)
			}
			if executed != n-k {
				t.Fatalf("%s k=%d: executed %d, want %d (re-executed recorded indices?)",
					name, k, executed, n-k)
			}
			if got := reportJSON(t, res); !bytes.Equal(got, wantReport) {
				t.Fatalf("%s k=%d: resumed report differs from uninterrupted run", name, k)
			}
			if got := recordsJSON(t, res); !bytes.Equal(got, wantRecords) {
				t.Fatalf("%s k=%d: resumed records differ from uninterrupted run", name, k)
			}
			if res.Mutated != full.Mutated || res.Injected != full.Injected {
				t.Fatalf("%s k=%d: kind counts %d/%d, want %d/%d",
					name, k, res.Mutated, res.Injected, full.Mutated, full.Injected)
			}
		}
	}
}

// TestResumeOfEveryRecordRunsNothing: a resume that replays every
// record leaves its executor no experiment. On Local and on a
// worker-less Remote the campaign creates no container beyond its
// Runner's fault-free pass, reaches no sink, and still yields the
// uninterrupted run's records and report.
func TestResumeOfEveryRecordRunsNothing(t *testing.T) {
	full, _ := runCampaignA(t, nil, nil)
	built := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
	if _, err := campaign.NewRunner(kvclient.CampaignA(built, 101)); err != nil {
		t.Fatal(err)
	}
	for name, exec := range map[string]executor.Executor{"local": nil, "remote": fleetless(2)} {
		rt := NewRuntime(RuntimeConfig{Cores: 4, Seed: 20})
		c := kvclient.CampaignA(rt, 101)
		c.Executor = exec
		c.Resume = full.Records
		c.Sink = executor.SinkFunc(func(idx int, _ analysis.Record) {
			t.Errorf("%s: a fully replayed resume delivered index %d", name, idx)
		})
		res, err := c.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := rt.Stats().Created, built.Stats().Created; got != want {
			t.Errorf("%s: %d containers created, building the Runner alone creates %d", name, got, want)
		}
		if res.Replayed != len(full.Records) {
			t.Errorf("%s: replayed %d of %d", name, res.Replayed, len(full.Records))
		}
		if !bytes.Equal(reportJSON(t, res), reportJSON(t, full)) || !bytes.Equal(recordsJSON(t, res), recordsJSON(t, full)) {
			t.Errorf("%s: fully replayed result differs from the uninterrupted run", name)
		}
	}
}

// TestResumeIgnoresForeignRecords feeds the campaign records whose
// injection points are not in its plan (a different campaign's store
// read back by mistake): they must be ignored, and the run must still
// execute the full plan and match the uninterrupted result.
func TestResumeIgnoresForeignRecords(t *testing.T) {
	full, _ := runCampaignA(t, nil, nil)
	foreign := full.Records[0]
	foreign.Point.File = "not/in/plan.py"
	foreign.Point.Func = "Nope"
	res, executed := runCampaignA(t, nil, []analysis.Record{foreign})
	if res.Replayed != 0 {
		t.Fatalf("replayed %d foreign records", res.Replayed)
	}
	if executed != len(full.Records) {
		t.Fatalf("executed %d, want %d", executed, len(full.Records))
	}
	if !bytes.Equal(reportJSON(t, res), reportJSON(t, full)) {
		t.Fatal("report drifted under foreign resume records")
	}
}

// TestResumeRoundTripsThroughJSON replays records that went through a
// JSON encode/decode cycle (exactly what the result store hands back at
// recovery) and checks byte identity still holds.
func TestResumeRoundTripsThroughJSON(t *testing.T) {
	full, _ := runCampaignA(t, nil, nil)
	k := len(full.Records) - 2
	var resume []analysis.Record
	for _, rec := range full.Records[:k] {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var back analysis.Record
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatal(err)
		}
		resume = append(resume, back)
	}
	res, executed := runCampaignA(t, nil, resume)
	if res.Replayed != k || executed != len(full.Records)-k {
		t.Fatalf("replayed=%d executed=%d, want %d/%d",
			res.Replayed, executed, k, len(full.Records)-k)
	}
	if !bytes.Equal(recordsJSON(t, res), recordsJSON(t, full)) {
		t.Fatal("round-tripped resume records drifted")
	}
}

// TestResumeAccountsKindsLikeAStraightRun: a resumed run classifies the
// records it replays (Runner.KindOf — the mutator's structured core, no
// rendering, no compile) instead of executing them, so its Mutated,
// Injected and Errors must come out as one uninterrupted run's do — on
// a compile-time campaign and a runtime-injection one, with a stale
// record (its window no longer in the plan) among the replayed set.
func TestResumeAccountsKindsLikeAStraightRun(t *testing.T) {
	for _, gc := range goldenCampaigns {
		if gc.name != "campaign-a" && gc.name != "campaign-r" {
			continue
		}
		t.Run(gc.name, func(t *testing.T) {
			full, err := gc.build(NewRuntime(RuntimeConfig{Cores: 4, Seed: 20}), gc.seed).Run()
			if err != nil {
				t.Fatal(err)
			}
			if full.Mutated+full.Injected != len(full.Records) {
				t.Fatalf("straight run: %d mutated + %d injected of %d records", full.Mutated, full.Injected, len(full.Records))
			}
			k := len(full.Records) / 2
			stale := full.Records[0]
			stale.Point.Start += 1000
			c := gc.build(NewRuntime(RuntimeConfig{Cores: 4, Seed: 20}), gc.seed)
			c.Resume = append([]analysis.Record{stale}, full.Records[:k]...)
			res, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Replayed != k {
				t.Errorf("replayed %d records, want %d (the stale one ignored)", res.Replayed, k)
			}
			if res.Mutated != full.Mutated || res.Injected != full.Injected || res.Errors != full.Errors {
				t.Errorf("resumed mutated/injected/errors = %d/%d/%d, straight run %d/%d/%d",
					res.Mutated, res.Injected, res.Errors, full.Mutated, full.Injected, full.Errors)
			}
			if !bytes.Equal(recordsJSON(t, res), recordsJSON(t, full)) {
				t.Error("resumed records differ from the straight run")
			}
		})
	}
}

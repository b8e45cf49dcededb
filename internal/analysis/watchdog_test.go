package analysis

import (
	"encoding/json"
	"testing"

	"profipy/internal/workload"
)

func watchdogRecord(killed bool) Record {
	rr := workload.RoundResult{Timeout: true}
	if killed {
		rr.Watchdog = true
	}
	return Record{
		FaultType: "T",
		Covered:   true,
		Result:    &workload.Result{Rounds: []workload.RoundResult{rr, {OK: true}}},
	}
}

func TestWatchdogTimeoutsCounted(t *testing.T) {
	agg, err := NewAggregator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	agg.Add(watchdogRecord(true))
	agg.Add(watchdogRecord(true))
	agg.Add(watchdogRecord(false))
	if got := agg.Report().WatchdogTimeouts; got != 2 {
		t.Fatalf("WatchdogTimeouts = %d, want 2", got)
	}
}

// TestWatchdogFieldOmittedWhenZero locks in the encoding contract that
// keeps watchdog-free campaigns byte-identical to fixtures recorded
// before the field existed.
func TestWatchdogFieldOmittedWhenZero(t *testing.T) {
	agg, err := NewAggregator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	agg.Add(watchdogRecord(false))
	data, err := json.Marshal(agg.Report())
	if err != nil {
		t.Fatal(err)
	}
	if jsonHasKey(t, data, "watchdogTimeouts") {
		t.Fatalf("zero WatchdogTimeouts serialized: %s", data)
	}
	rr := workload.RoundResult{Timeout: true}
	line, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	if jsonHasKey(t, line, "watchdog") {
		t.Fatalf("false Watchdog serialized: %s", line)
	}
}

func jsonHasKey(t *testing.T, data []byte, key string) bool {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	_, ok := m[key]
	return ok
}

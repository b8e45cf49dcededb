package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the repeat mode needs: the
// gated metrics with their direction and bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRepeat runs every workload n times, each run in a fresh process
// (peak RSS and heap state are per process) with its own seed, and
// prints per metric the median, quartiles and relative spread. It
// returns false if any run failed, if a spread exceeds the metric's
// bound (setup_s excepted, as in the acceptance check), or if the two
// half-sets of runs disagree by more than the bound.
func runRepeat(cfg runConfig, n int, window time.Duration) bool {
	data, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fatal(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}

	// values[workload][metric] in run order. Workloads interleave so slow
	// drift of the machine spreads over all of them.
	values := map[string]map[string][]float64{}
	ok := true
	for i := 0; i < n; i++ {
		for _, def := range workloadDefs {
			cmd := exec.Command(self,
				"-workload", def.name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", strconv.Itoa(int(window/time.Second)), "-root", cfg.root)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
			var res result
			if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil || err != nil || !res.Correct {
				fmt.Printf("%-12s run %d FAILED: %v %s\n", def.name, i, err, lines[len(lines)-1])
				ok = false
				continue
			}
			if values[def.name] == nil {
				values[def.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[def.name][name] = append(values[def.name][name], m.Value)
			}
			fmt.Printf("%-12s run %d seed %d ok %s\n", def.name, i, cfg.seed+int64(i), lines[len(lines)-1])
		}
	}

	fmt.Printf("\n%-12s %-20s %12s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "median", "q1", "q3", "spread", "halves", "bound", "verdict")
	for _, def := range workloadDefs {
		for _, m := range spec.EndToEnd {
			vals := values[def.name][m.Name]
			if len(vals) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			sp := spread(vals)
			// Half-sets: the first and the second half of the runs, as
			// two independent sets made one after the other would be.
			a, b := median(vals[:len(vals)/2]), median(vals[len(vals)/2:])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "steady"
			switch {
			case worse > m.Bound:
				verdict, ok = "HALVES DISAGREE", false
			case sp > m.Bound && m.Name != "setup_s":
				verdict, ok = "SPREAD OVER BOUND", false
			case sp > m.Bound/3:
				verdict = "within bound, spread over a third of it"
			}
			fmt.Printf("%-12s %-20s %12.4f %12.4f %12.4f %8.4f %+8.4f %8.2f  %s\n",
				def.name, m.Name, q2, q1, q3, sp, worse, m.Bound, verdict)
		}
	}
	return ok
}

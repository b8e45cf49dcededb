// Command bench is the repository's one performance benchmark: a single
// closed-loop client drives the paper's §V campaigns through an
// in-process profipyd over loopback HTTP (locally, through a two-agent
// worker fleet, and with prefix forking on a late-site workload) and the
// §V-D large-project scan through the library. See README.md for the
// metric and workload definitions and BENCHMARK.json at the repository
// root for the contract.
//
//	bash bench/run.sh --workload mix.local --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload mix.local --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh --repeat 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// warmUp is discarded before every measured window: it fills the
// server's caches, the connection pool and the Go heap to steady state.
// A variable only so the smoke tests can shorten it.
var warmUp = 3 * time.Second

// clientGoroutines is the load generator's size: one goroutine issuing
// one request at a time (submit, poll, stream, report in sequence).
const clientGoroutines = 1

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: mix.local, mix.remote2, late.fork or scan.large")
		seed     = flag.Int64("seed", 101, "seed for campaign seeds and the project generator")
		seconds  = flag.Int("seconds", 20, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run every workload this many times and report medians, quartiles and spread")
		root     = flag.String("root", ".", "repository root (holds testdata/golden and bench/)")
	)
	flag.Parse()
	quietLogs()

	nproc := runtime.NumCPU()
	if nproc > 4 {
		nproc = 4
	}
	runtime.GOMAXPROCS(nproc)
	if clientGoroutines > nproc {
		fatal(fmt.Errorf("load generator needs %d goroutines, machine has %d CPUs", clientGoroutines, nproc))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(filepath.Join(*root, "bench", "out"), 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{root: *root, nproc: nproc, seed: *seed}
	window := time.Duration(*seconds) * time.Second

	if *repeat > 0 {
		if !runRepeat(cfg, *repeat, window) {
			os.Exit(1)
		}
		return
	}
	def, ok := findWorkload(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	var (
		res result
		err error
	)
	if *trace != 0 {
		res, err = runTraced(def, cfg, window)
	} else {
		res, err = runPlain(def, cfg, window)
	}
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// quietLogs keeps the server's campaign-done and worker chatter out of
// the report; warnings and errors still reach stderr.
func quietLogs() {
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's outcome. The four contract keys are printed
// as the last line of standard output; the rest goes to the lines before
// it and to bench/out.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	env      envStamp
	// info is ungated detail: tail percentile, sample counts, failures.
	info map[string]any
}

// fail books one failed check that belongs to no single operation.
func (r *result) fail(key string, err error) {
	r.Attempted++
	r.Failed++
	r.info[key] = err.Error()
}

func (r result) print(w *os.File) {
	detail, _ := json.Marshal(map[string]any{"workload": r.workload, "env": r.env, "info": r.info})
	fmt.Fprintf(w, "%s\n", detail)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-12s %-28s %14.4f %s\n", r.workload, n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "%-12s %-28s %14.6f (%d failed of %d attempted)\n", r.workload, "fail_share",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	last, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", last)
}

// envStamp identifies the machine and build a number was measured on.
type envStamp struct {
	GitSHA     string `json:"gitSha"`
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
	WindowS    int    `json:"windowSeconds"`
	Samples    int    `json:"samples"`
}

func stamp(cfg runConfig, window time.Duration, samples int) envStamp {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return envStamp{
		GitSHA:     gitSHA(cfg.root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Kernel:     strings.TrimSpace(string(kernel)),
		Seed:       cfg.seed,
		WindowS:    int(window / time.Second),
		Samples:    samples,
	}
}

// gitSHA reports the checkout's commit, or "unknown" outside a git
// repository (the acceptance driver runs from an exported tree).
func gitSHA(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// measurement is one window's samples.
type measurement struct {
	samples   []sample
	wall      time.Duration // window start → end of the last cycle
	attempted int
	failed    int
}

// units sums the work of the successful cycles.
func (m measurement) units() float64 {
	total := 0.0
	for _, s := range m.samples {
		total += s.units
	}
	return total
}

// wallRate is throughput over the whole window, every stall included.
func (m measurement) wallRate() float64 { return m.units() / m.wall.Seconds() }

// quietRate is the third quartile of the cycles' own rates (work of the
// cycle ÷ its wall time): see quietQuartile.
func (m measurement) quietRate() float64 {
	return quantileSorted(sortedCopy(m.column(func(s sample) float64 { return s.units / s.wallMS * 1e3 })), 0.75)
}

// column extracts one timing of the cycles that had no failure.
func (m measurement) column(get func(sample) float64) []float64 {
	var out []float64
	for _, s := range m.samples {
		if s.failed == 0 {
			out = append(out, get(s))
		}
	}
	return out
}

// measure runs closed-loop cycles for the window: a cycle starts only
// while the window is open and always runs to completion, and wall ends
// with the last cycle, so throughput never counts a partial cycle.
func measure(w workloadRun, window time.Duration) measurement {
	var m measurement
	start := time.Now()
	for {
		t0 := time.Now()
		s := w.cycle()
		s.wallMS = millis(time.Since(t0))
		m.samples = append(m.samples, s)
		m.attempted += s.attempted
		m.failed += s.failed
		if time.Since(start) >= window {
			break
		}
	}
	m.wall = time.Since(start)
	return m
}

// setUp runs the workload's set-up def.setups times, keeps the last and
// returns the median set-up time in seconds: the median keeps one slow
// fsync or a cold first pass from deciding setup_s.
func setUp(def workloadDef, cfg runConfig) (workloadRun, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		w, err := def.setup(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %s: %w", def.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == def.setups-1 {
			return w, median(times), nil
		}
		w.close()
	}
}

// runPlain is the untraced run: the end-to-end metrics.
func runPlain(def workloadDef, cfg runConfig, window time.Duration) (result, error) {
	w, setupS, err := setUp(def, cfg)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	warm := measure(w, warmUp)
	m := measure(w, window)

	turn := m.column(func(s sample) float64 { return s.turnaroundMS })
	first := m.column(func(s sample) float64 { return s.firstMS })
	res := result{
		workload:  def.name,
		Attempted: m.attempted + warm.attempted,
		Failed:    m.failed + warm.failed,
		Metrics: map[string]metric{
			"work_per_s_p75":      {m.quietRate(), "1/s"},
			"turnaround_ms_p25":   {quietQuartile(turn), "ms"},
			"first_record_ms_p25": {quietQuartile(first), "ms"},
			"peak_rss_mb":         {peakRSSMB(), "MB"},
			"setup_s":             {setupS, "s"},
		},
		env: stamp(cfg, window, len(turn)),
		// Ungated: the same quantities with every stall in them.
		info: map[string]any{
			"cycles": len(m.samples), "wall_seconds": m.wall.Seconds(),
			"work_per_s_wall":     m.wallRate(),
			"turnaround_ms_p50":   median(turn),
			"first_record_ms_p50": median(first),
		},
	}
	if pct, v, ok := tailPercentile(turn); ok {
		res.info["turnaround_ms_tail"] = map[string]any{"percentile": pct, "value": v}
	}
	if err := w.finalCheck(); err != nil {
		res.fail("final_check", err)
	}
	if f := w.failures(); len(f) > 0 {
		res.info["failures"] = f
	}
	res.Correct = res.Failed == 0 && len(turn) > 0
	return res, nil
}

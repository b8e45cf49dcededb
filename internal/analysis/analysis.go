// Package analysis implements ProFIPy's data analysis phase (§IV-C/D):
// classification of experiments into failure modes (crash, timeout and
// user-defined log-pattern classes), the statistical distribution of
// modes, drill-down by fault type and injected component, the service
// availability metric (round-2 outcomes), the failure logging metric and
// the failure propagation metric.
package analysis

import (
	"regexp"
	"sort"

	"profipy/internal/runtimefault"
	"profipy/internal/scanner"
	"profipy/internal/workload"
)

// Built-in failure mode names.
const (
	ModeCrash   = "crash"
	ModeTimeout = "timeout"
	ModeOther   = "failure"
)

// FailureClass is a user-defined failure mode: a regex searched in the
// experiment's logs and outputs.
type FailureClass struct {
	Name    string `json:"name"`
	Pattern string `json:"pattern"`
	// Logs restricts the search to specific log streams; empty = all.
	Logs []string `json:"logs,omitempty"`
}

// Record is one completed experiment.
type Record struct {
	Point     scanner.InjectionPoint `json:"point"`
	FaultType string                 `json:"faultType"`
	Covered   bool                   `json:"covered"`
	Result    *workload.Result       `json:"result"`
	// Injections holds the runtime injector's per-fault trigger
	// activation counts; nil for compile-time mutation experiments.
	Injections []runtimefault.Activation `json:"injections,omitempty"`
}

// Failed reports a service failure in round 1 (fault enabled).
func (r Record) Failed() bool {
	return r.Result != nil && r.Result.Round1().Failed()
}

// Unavailable reports that the service also failed in round 2 (fault
// disabled): the error state persisted and was not recovered.
func (r Record) Unavailable() bool {
	return r.Result != nil && len(r.Result.Rounds) > 1 && r.Result.Round2().Failed()
}

// Config parameterises the analysis.
type Config struct {
	// Classes are the user-defined failure modes.
	Classes []FailureClass
	// ErrorPattern identifies error lines in logs (failure-logging and
	// propagation metrics); empty selects "ERROR".
	ErrorPattern string
	// Components maps component names to their source files; a
	// component's log stream shares its name. Used by the propagation
	// metric and the per-component drill-down.
	Components map[string][]string
}

// TypeStats aggregates experiments sharing a dimension value.
type TypeStats struct {
	Total       int `json:"total"`
	Covered     int `json:"covered"`
	Failures    int `json:"failures"`
	Unavailable int `json:"unavailable"`
}

// Report is the output of the data analysis phase.
type Report struct {
	Total       int `json:"total"`
	Covered     int `json:"covered"`
	Failures    int `json:"failures"`
	Unavailable int `json:"unavailable"`

	// Modes is the failure mode distribution (an experiment can exhibit
	// several log-pattern modes).
	Modes map[string]int `json:"modes"`
	// ByType and ByComponent are drill-downs (§IV-C).
	ByType      map[string]*TypeStats `json:"byType"`
	ByComponent map[string]*TypeStats `json:"byComponent"`

	// Availability is the fraction of experiments whose round 2 was
	// healthy again (the service availability metric).
	Availability float64 `json:"availability"`
	// LoggedFailures counts failures with at least one error log line;
	// LoggingRate = LoggedFailures / Failures (failure logging metric).
	LoggedFailures int     `json:"loggedFailures"`
	LoggingRate    float64 `json:"loggingRate"`
	// PropagatedFailures counts failures whose error lines span more
	// than one component (failure propagation metric).
	PropagatedFailures int     `json:"propagatedFailures"`
	PropagationRate    float64 `json:"propagationRate"`

	// Triggers aggregates runtime-injector activity per fault spec:
	// how often each runtime fault's site was entered while armed and
	// how often its trigger fired, summed over all experiments. Nil
	// for purely compile-time campaigns.
	Triggers map[string]*TriggerStats `json:"triggers,omitempty"`

	// WatchdogTimeouts counts experiments with at least one round
	// killed by the wall-clock watchdog (workload.Config.WallBudgetNS):
	// real hangs the virtual clock could not catch. Omitted when zero,
	// which keeps watchdog-free campaigns byte-identical to before.
	WatchdogTimeouts int `json:"watchdogTimeouts,omitempty"`
}

// WatchdogKilled reports whether any round of the experiment was ended
// by the wall-clock watchdog.
func (r Record) WatchdogKilled() bool {
	if r.Result == nil {
		return false
	}
	for _, rr := range r.Result.Rounds {
		if rr.Watchdog {
			return true
		}
	}
	return false
}

// TriggerStats is the aggregated runtime-injector activity of one
// fault spec across a campaign.
type TriggerStats struct {
	Experiments int   `json:"experiments"`
	Activations int64 `json:"activations"`
	Fires       int64 `json:"fires"`
}

// compiledClass pairs a class with its compiled regex.
type compiledClass struct {
	class FailureClass
	re    *regexp.Regexp
}

func statsFor(m map[string]*TypeStats, key string) *TypeStats {
	st, ok := m[key]
	if !ok {
		st = &TypeStats{}
		m[key] = st
	}
	return st
}

// ClassifyRecord returns the failure modes of a failed experiment: every
// matching user-defined class, plus the built-in crash/timeout modes when
// nothing more specific matched.
func ClassifyRecord(rec Record, classes []compiledClass) []string {
	var modes []string
	for _, cc := range classes {
		if classMatches(rec, cc) {
			modes = append(modes, cc.class.Name)
		}
	}
	if len(modes) == 0 {
		r1 := rec.Result.Round1()
		switch {
		case r1.Timeout:
			modes = append(modes, ModeTimeout)
		case r1.Crash:
			modes = append(modes, ModeCrash)
		default:
			modes = append(modes, ModeOther)
		}
	}
	return modes
}

func classMatches(rec Record, cc compiledClass) bool {
	searchLogs := cc.class.Logs
	if len(searchLogs) == 0 {
		for name := range rec.Result.Logs {
			searchLogs = append(searchLogs, name)
		}
		sort.Strings(searchLogs)
	}
	for _, name := range searchLogs {
		if cc.re.MatchString(rec.Result.Logs[name]) {
			return true
		}
	}
	for _, rr := range rec.Result.Rounds {
		if cc.re.MatchString(rr.Message) || cc.re.MatchString(rr.Exception) {
			return true
		}
	}
	return false
}

func failureLogged(rec Record, errRE *regexp.Regexp) bool {
	for _, content := range rec.Result.Logs {
		if errRE.MatchString(content) {
			return true
		}
	}
	return false
}

// propagated reports whether error lines appear in more than one
// configured component's log.
func propagated(rec Record, errRE *regexp.Regexp, components map[string][]string) bool {
	if len(components) == 0 {
		return false
	}
	impacted := 0
	for comp := range components {
		if errRE.MatchString(rec.Result.Logs[comp]) {
			impacted++
		}
	}
	return impacted >= 2
}

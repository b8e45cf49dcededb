package analysis

import (
	"fmt"
	"regexp"
)

// Aggregator is the online form of the data analysis phase: records are
// folded in one at a time as experiments complete, partial aggregators
// from independent shards merge associatively, and Report materializes
// the same Report that BuildReport produces over the full record slice
// — byte-identical JSON, in any Add/Merge order. Every metric the
// report carries is either a counter sum or a ratio of counter sums, so
// campaign memory stays O(1) per aggregator instead of O(experiments).
type Aggregator struct {
	classes    []compiledClass
	errRE      *regexp.Regexp
	components map[string][]string
	fileToComp map[string]string

	total       int
	covered     int
	failures    int
	unavailable int
	available   int
	logged      int
	propagated  int
	watchdog    int
	modes       map[string]int
	byType      map[string]*TypeStats
	byComp      map[string]*TypeStats
	triggers    map[string]*TriggerStats // nil until a runtime injection is seen
}

// NewAggregator compiles the analysis configuration into an empty
// accumulator. Shard aggregators that will later Merge must be built
// from the same Config.
func NewAggregator(cfg Config) (*Aggregator, error) {
	classes := make([]compiledClass, 0, len(cfg.Classes))
	for _, cl := range cfg.Classes {
		re, err := regexp.Compile(cl.Pattern)
		if err != nil {
			return nil, fmt.Errorf("analysis: class %q: %w", cl.Name, err)
		}
		classes = append(classes, compiledClass{class: cl, re: re})
	}
	errPat := cfg.ErrorPattern
	if errPat == "" {
		errPat = "ERROR"
	}
	errRE, err := regexp.Compile(errPat)
	if err != nil {
		return nil, fmt.Errorf("analysis: error pattern: %w", err)
	}
	fileToComp := map[string]string{}
	for comp, files := range cfg.Components {
		for _, f := range files {
			fileToComp[f] = comp
		}
	}
	return &Aggregator{
		classes:    classes,
		errRE:      errRE,
		components: cfg.Components,
		fileToComp: fileToComp,
		modes:      map[string]int{},
		byType:     map[string]*TypeStats{},
		byComp:     map[string]*TypeStats{},
	}, nil
}

// Add folds one completed experiment into the aggregate. Not safe for
// concurrent use; give each concurrent producer its own Aggregator and
// Merge them.
func (a *Aggregator) Add(rec Record) {
	a.total++
	if rec.Covered {
		a.covered++
	}
	typeStats := statsFor(a.byType, rec.FaultType)
	comp := a.fileToComp[rec.Point.File]
	if comp == "" {
		comp = rec.Point.File
	}
	compStats := statsFor(a.byComp, comp)
	typeStats.Total++
	compStats.Total++
	if rec.Covered {
		typeStats.Covered++
		compStats.Covered++
	}
	if rec.Result != nil && !rec.Unavailable() {
		a.available++
	}
	if rec.WatchdogKilled() {
		a.watchdog++
	}
	for _, act := range rec.Injections {
		if a.triggers == nil {
			a.triggers = map[string]*TriggerStats{}
		}
		ts, ok := a.triggers[act.Fault]
		if !ok {
			ts = &TriggerStats{}
			a.triggers[act.Fault] = ts
		}
		ts.Experiments++
		ts.Activations += act.Activations
		ts.Fires += act.Fires
	}
	if !rec.Failed() {
		return
	}
	a.failures++
	typeStats.Failures++
	compStats.Failures++
	if rec.Unavailable() {
		a.unavailable++
		typeStats.Unavailable++
		compStats.Unavailable++
	}
	for _, mode := range ClassifyRecord(rec, a.classes) {
		a.modes[mode]++
	}
	if failureLogged(rec, a.errRE) {
		a.logged++
	}
	if propagated(rec, a.errRE, a.components) {
		a.propagated++
	}
}

// Report materializes the aggregate as a full analysis Report,
// byte-identical to BuildReport over the same records. The snapshot is
// deep-copied, so the aggregator can keep accumulating afterwards (live
// mid-campaign reports) without aliasing issues.
func (a *Aggregator) Report() *Report {
	rep := &Report{
		Total:              a.total,
		Covered:            a.covered,
		Failures:           a.failures,
		Unavailable:        a.unavailable,
		LoggedFailures:     a.logged,
		PropagatedFailures: a.propagated,
		WatchdogTimeouts:   a.watchdog,
		Modes:              make(map[string]int, len(a.modes)),
		ByType:             make(map[string]*TypeStats, len(a.byType)),
		ByComponent:        make(map[string]*TypeStats, len(a.byComp)),
	}
	for k, v := range a.modes {
		rep.Modes[k] = v
	}
	for k, v := range a.byType {
		cp := *v
		rep.ByType[k] = &cp
	}
	for k, v := range a.byComp {
		cp := *v
		rep.ByComponent[k] = &cp
	}
	if a.triggers != nil {
		rep.Triggers = make(map[string]*TriggerStats, len(a.triggers))
		for k, v := range a.triggers {
			cp := *v
			rep.Triggers[k] = &cp
		}
	}
	if rep.Total > 0 {
		rep.Availability = float64(a.available) / float64(rep.Total)
	}
	if rep.Failures > 0 {
		rep.LoggingRate = float64(rep.LoggedFailures) / float64(rep.Failures)
		rep.PropagationRate = float64(rep.PropagatedFailures) / float64(rep.Failures)
	}
	return rep
}

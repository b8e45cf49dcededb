package analysis

import (
	"fmt"
	"regexp"
)

// Count reports how many records have been folded in.
func (a *Aggregator) Count() int { return a.total }

// BuildReport classifies all experiment records and computes the
// metrics. It is the batch form of Aggregator: one record at a time
// through the same online accumulator, so the two are equivalent by
// construction.
func BuildReport(records []Record, cfg Config) (*Report, error) {
	agg, err := NewAggregator(cfg)
	if err != nil {
		return nil, err
	}
	for _, rec := range records {
		agg.Add(rec)
	}
	return agg.Report(), nil
}

// Drill returns the failed records exhibiting the given failure mode.
func Drill(records []Record, cfgClasses []FailureClass, mode string) ([]Record, error) {
	var out []Record
	for _, rec := range records {
		if !rec.Failed() {
			continue
		}
		modes, err := Classify(rec, cfgClasses)
		if err != nil {
			return nil, err
		}
		for _, m := range modes {
			if m == mode {
				out = append(out, rec)
				break
			}
		}
	}
	return out, nil
}

// Classify is the exported form of ClassifyRecord for a single class set.
func Classify(rec Record, cfgClasses []FailureClass) ([]string, error) {
	classes := make([]compiledClass, 0, len(cfgClasses))
	for _, cl := range cfgClasses {
		re, err := regexp.Compile(cl.Pattern)
		if err != nil {
			return nil, fmt.Errorf("analysis: class %q: %w", cl.Name, err)
		}
		classes = append(classes, compiledClass{class: cl, re: re})
	}
	return ClassifyRecord(rec, classes), nil
}

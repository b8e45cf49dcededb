// Package trace implements the failure visualization substrate of §IV-D:
// a Zipkin-like span recorder for instrumented RPC/API calls, and a
// renderer that lays the recorded invocations out as events on an ASCII
// timeline, so a user can see what happened during a failed experiment.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Span is one recorded API invocation on the virtual timeline.
type Span struct {
	Name      string `json:"name"`
	Component string `json:"component"`
	StartNS   int64  `json:"startNs"`
	EndNS     int64  `json:"endNs"`
	Err       string `json:"err,omitempty"`
}

// Recorder collects spans during an experiment.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends a span.
func (r *Recorder) Record(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
}

// Spans returns a copy of the recorded spans in deterministic order:
// by StartNS, ties broken by Name. The tie-break matters once several
// recorders merge — concurrent shard recorders insert in arrival
// order, and same-start spans must still render identically on every
// run.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]Span(nil), r.spans...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Merge folds another recorder's spans into r (r is unchanged when o
// is nil or r itself). Per-shard recorders merge into the campaign's
// recorder this way; Spans' deterministic ordering makes the combined
// timeline independent of merge order.
func (r *Recorder) Merge(o *Recorder) {
	if o == nil || o == r {
		return
	}
	spans := o.Spans()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spans...)
}

// Timeline renders the spans as an ASCII chart: one row per span, a bar
// spanning its active interval, '!' marking spans that ended in error.
func Timeline(spans []Span, width int) string {
	if len(spans) == 0 {
		return "(no spans recorded)\n"
	}
	if width < 20 {
		width = 20
	}
	minNS, maxNS := spans[0].StartNS, spans[0].EndNS
	for _, s := range spans {
		if s.StartNS < minNS {
			minNS = s.StartNS
		}
		if s.EndNS > maxNS {
			maxNS = s.EndNS
		}
	}
	span := maxNS - minNS
	if span <= 0 {
		span = 1
	}
	nameW := 0
	for _, s := range spans {
		label := s.Component + "/" + s.Name
		if len(label) > nameW {
			nameW = len(label)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline: %d spans over %.3f ms (virtual)\n", len(spans), float64(span)/1e6)
	for _, s := range spans {
		label := s.Component + "/" + s.Name
		start := int(float64(s.StartNS-minNS) / float64(span) * float64(width-1))
		end := int(float64(s.EndNS-minNS) / float64(span) * float64(width-1))
		if end < start {
			end = start
		}
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		mark := byte('=')
		if s.Err != "" {
			mark = '!'
		}
		for i := start; i <= end && i < width; i++ {
			row[i] = mark
		}
		fmt.Fprintf(&sb, "  %-*s |%s|", nameW, label, row)
		if s.Err != "" {
			fmt.Fprintf(&sb, " %s", s.Err)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

package trace

import "encoding/json"

// Duration returns the span length in nanoseconds.
func (s Span) Duration() int64 { return s.EndNS - s.StartNS }

// Len returns the number of recorded spans.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// JSON serializes the spans (a Zipkin-like trace dump).
func (r *Recorder) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Spans(), "", "  ")
}

package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4). Output is deterministic:
// families sort by name, children by label values. A nil registry
// renders nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.RUnlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.write(bw)
	}
	return bw.Flush()
}

// write renders one family; takes the family's read lock.
func (f *family) write(w *bufio.Writer) {
	w.WriteString("# HELP ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(f.help))
	w.WriteString("\n# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(f.typ)
	w.WriteByte('\n')

	f.mu.RLock()
	fn := f.fn
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]metric, 0, len(keys))
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.RUnlock()

	if fn != nil {
		writeSample(w, f.name, "", f.labels, nil, fn())
		return
	}
	for _, m := range children {
		switch c := m.(type) {
		case *Counter:
			writeSample(w, f.name, "", f.labels, c.values, c.Value())
		case *Gauge:
			writeSample(w, f.name, "", f.labels, c.values, c.Value())
		case *Histogram:
			// Buckets are stored non-cumulative; render the cumulative
			// counts the format requires, ending at the +Inf bucket,
			// which always equals _count.
			var cum uint64
			for i, bound := range c.buckets {
				cum += c.counts[i].Load()
				writeSample(w, f.name, "_bucket", append(f.labels, "le"),
					append(append([]string(nil), c.values...), formatFloat(bound)), float64(cum))
			}
			cum += c.inf.Load()
			writeSample(w, f.name, "_bucket", append(f.labels, "le"),
				append(append([]string(nil), c.values...), "+Inf"), float64(cum))
			writeSample(w, f.name, "_sum", f.labels, c.values, c.Sum())
			writeSample(w, f.name, "_count", f.labels, c.values, float64(cum))
		}
	}
}

// writeSample renders one `name{labels} value` line.
func writeSample(w *bufio.Writer, name, suffix string, labels, values []string, v float64) {
	w.WriteString(name)
	w.WriteString(suffix)
	if len(labels) > 0 {
		w.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(l)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(values[i]))
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	w.WriteByte('\n')
}

// formatFloat renders a sample value the way Prometheus clients expect.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }

// Handler serves the registry in the text exposition format — mount it
// at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

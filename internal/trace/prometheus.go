// Prometheus text-format rendering of a registry snapshot, so a live run
// exposes the same counters/gauges/histograms the -counters table prints —
// scrapeable at /metrics.

package trace

import (
	"fmt"
	"io"
	"strings"
)

// promName maps a registry name ("parfs.ost.queue", "monitor/divergences")
// to a legal Prometheus metric name under the given prefix: every character
// outside [a-zA-Z0-9_:] becomes '_'.
func promName(prefix, name string) string {
	var b strings.Builder
	b.Grow(len(prefix) + len(name))
	b.WriteString(prefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if b.Len() == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promValue(v float64) string { return fmt.Sprintf("%g", v) }

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4) with every metric name prefixed. Counters render
// as `counter`, gauges as `gauge` (with a companion `<name>_max` gauge for
// the high-water mark), and histograms as `histogram` with cumulative
// `_bucket{le=...}` series, `_sum`, and `_count`.
func (r *Registry) WritePrometheus(w io.Writer, prefix string) error {
	return r.Snapshot().WritePrometheus(w, prefix)
}

// WritePrometheus renders the snapshot in the Prometheus text format.
func (s Snapshot) WritePrometheus(w io.Writer, prefix string) error {
	for _, c := range s.Counters {
		n := promName(prefix, c.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", n, n, promValue(c.Value)); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		n := promName(prefix, g.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n, promValue(g.Value)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s_max gauge\n%s_max %s\n", n, n, promValue(g.HighWater)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		n := promName(prefix, h.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		// Registry counts are per-bucket; Prometheus buckets are cumulative.
		var cum int64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Buckets) {
				le = promValue(h.Buckets[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", n, promValue(h.Sum), n, h.Count); err != nil {
			return err
		}
	}
	return nil
}

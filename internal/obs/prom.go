package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// promName sanitizes a dotted registry name into a Prometheus metric name:
// "txkv_" prefix, every character outside [a-zA-Z0-9_] replaced by '_'.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 5)
	b.WriteString("txkv_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// WriteProm renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as summaries with p50/p95/p99 quantiles plus _sum
// and _count (values in seconds). Output is sorted by name so scrapes are
// diffable.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := struct {
		counters map[string]int64
		gauges   map[string]int64
		hists    map[string]*Histogram
	}{map[string]int64{}, map[string]int64{}, map[string]*Histogram{}}

	r.mu.Lock()
	for k, c := range r.counters {
		snap.counters[k] = c.Load()
	}
	for k, g := range r.gauges {
		snap.gauges[k] = g.Load()
	}
	for k, h := range r.hists {
		snap.hists[k] = h
	}
	funcs := make(map[string]funcMetric, len(r.funcs))
	for k, f := range r.funcs {
		funcs[k] = f
	}
	r.mu.Unlock()

	for k, f := range funcs {
		if f.kind == funcCounter {
			snap.counters[k] = f.fn()
		} else {
			snap.gauges[k] = f.fn()
		}
	}

	write := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}

	names := make([]string, 0, len(snap.counters))
	for k := range snap.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		if err := write("# TYPE %s counter\n%s %d\n", n, n, snap.counters[k]); err != nil {
			return err
		}
	}

	names = names[:0]
	for k := range snap.gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		if err := write("# TYPE %s gauge\n%s %d\n", n, n, snap.gauges[k]); err != nil {
			return err
		}
	}

	names = names[:0]
	for k := range snap.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := snap.hists[k]
		n := promName(k) + "_seconds"
		if err := write("# TYPE %s summary\n", n); err != nil {
			return err
		}
		for _, q := range []struct {
			label string
			q     float64
		}{{"0.5", 0.50}, {"0.95", 0.95}, {"0.99", 0.99}} {
			if err := write("%s{quantile=%q} %g\n", n, q.label, seconds(h.Quantile(q.q))); err != nil {
				return err
			}
		}
		if err := write("%s_sum %g\n%s_count %d\n", n, float64(h.Sum())/1e9, n, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// Package obs is the unified observability core: a named metric registry
// (counters, gauges, histograms) with atomic hot-path recording and
// Prometheus text export, plus context-propagated per-operation tracing
// with stage histograms and a ring-buffered slow-op log.
//
// The package depends only on the standard library. A counter lives only in
// a Registry: each subsystem takes one *Registry in its config, resolves its
// named instruments once at construction, and records into them without a
// lock or a name lookup. Get-or-create by name makes every incarnation of a
// subsystem that records into one registry share one monotonic instrument,
// so a crashed server's counts stay in the totals with nothing to fold.
// Pull-style funcs are kept for levels and for state that has one source.
// One Registry belongs to one Cluster or one region-node process; names are
// flat dotted strings ("txmgr.commits", "commit.fsync") that the Prometheus
// exporter sanitizes.
package obs

import (
	"sort"
	"sync"
	"time"
)

// funcKind distinguishes pull-style metrics for export typing.
type funcKind uint8

const (
	funcCounter funcKind = iota
	funcGauge
)

type funcMetric struct {
	kind funcKind
	fn   func() int64
}

// Registry is a named metric registry. All methods are safe for concurrent
// use; Counter/Gauge/Histogram are get-or-create, so independent subsystems
// may ask for the same name and share the instrument. A nil *Registry is
// valid: it hands out live but unregistered instruments, so optional wiring
// needs no guards on the recording path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]funcMetric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]funcMetric),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram (nanosecond observations by
// convention), creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterFunc registers a pull-style counter: fn is called at snapshot and
// export time and must be safe for concurrent use. It is for state with one
// source (txlog.Stats, txmgr.Stats): a name has one func, and re-registering
// it replaces it.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = funcMetric{kind: funcCounter, fn: fn}
}

// GaugeFunc registers a pull-style gauge (instantaneous level).
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = funcMetric{kind: funcGauge, fn: fn}
}

// HistStat is the snapshot form of one histogram.
type HistStat struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
}

// Snapshot is a point-in-time copy of every registered metric, including
// pull-style funcs folded into the counter/gauge maps.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms map[string]HistStat `json:"histograms"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Snapshot captures all current values. Func metrics are evaluated outside
// the registry lock, so they may call back into subsystems that themselves
// register metrics.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistStat{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	funcs := make(map[string]funcMetric, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	r.mu.Unlock()

	for k, c := range counters {
		s.Counters[k] = c.Load()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Load()
	}
	for k, h := range hists {
		s.Histograms[k] = HistStat{
			Count:  h.Count(),
			MeanUs: us(h.Mean()),
			P50Us:  us(h.Quantile(0.50)),
			P95Us:  us(h.Quantile(0.95)),
			P99Us:  us(h.Quantile(0.99)),
			MaxUs:  us(h.Max()),
		}
	}
	for k, f := range funcs {
		if f.kind == funcCounter {
			s.Counters[k] = f.fn()
		} else {
			s.Gauges[k] = f.fn()
		}
	}
	return s
}

// CheckInvariants compares two snapshots of the same registry and returns a
// description of every violated invariant: counters must be monotonically
// non-decreasing and no gauge may go negative. prev may be the zero
// Snapshot for a first check. Used by the chaos harness after each injected
// fault.
func CheckInvariants(prev, cur Snapshot) []string {
	var bad []string
	names := make([]string, 0, len(cur.Counters))
	for name := range cur.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if p, ok := prev.Counters[name]; ok && cur.Counters[name] < p {
			bad = append(bad, "counter went backwards: "+name)
		}
	}
	names = names[:0]
	for name := range cur.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if cur.Gauges[name] < 0 {
			bad = append(bad, "negative gauge: "+name)
		}
	}
	return bad
}

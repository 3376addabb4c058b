package rpc

import (
	"sync/atomic"

	"txkv/internal/obs"
)

// Metric instruments of the server and the pool, cached so that a request
// takes no registry lock and builds no metric name. Each instrument is
// resolved by name on first use, so /metrics lists one only once something
// has recorded to it — the output per-request lookups by name gave.

// instrument caches one registry instrument.
type instrument[T any] struct{ p atomic.Pointer[T] }

// get returns the cached instrument, resolving it on first use. Racing
// first uses resolve the same get-or-create registry entry.
func (in *instrument[T]) get(resolve func() *T) *T {
	if v := in.p.Load(); v != nil {
		return v
	}
	v := resolve()
	in.p.Store(v)
	return v
}

// serverMetrics are a Server's per-request instruments.
type serverMetrics struct {
	reg                      *obs.Registry
	requests, errors, stalls instrument[obs.Counter]
	latency                  instrument[obs.Histogram]
	streams                  instrument[obs.Gauge]
	byMethod                 [256]instrument[obs.Counter]
}

// request counts one request of method m.
func (sm *serverMetrics) request(m byte) {
	sm.requests.get(func() *obs.Counter { return sm.reg.Counter("rpc.server.requests") }).Add(1)
	sm.byMethod[m].get(func() *obs.Counter { return sm.reg.Counter("rpc.server.req." + methodName(m)) }).Add(1)
}

func (sm *serverMetrics) errorCount() *obs.Counter {
	return sm.errors.get(func() *obs.Counter { return sm.reg.Counter("rpc.server.errors") })
}

func (sm *serverMetrics) stallCount() *obs.Counter {
	return sm.stalls.get(func() *obs.Counter { return sm.reg.Counter("rpc.server.inflight_stalls") })
}

func (sm *serverMetrics) latencyHist() *obs.Histogram {
	return sm.latency.get(func() *obs.Histogram { return sm.reg.Histogram("rpc.server.latency") })
}

func (sm *serverMetrics) streamGauge() *obs.Gauge {
	return sm.streams.get(func() *obs.Gauge { return sm.reg.Gauge("rpc.server.streams") })
}

// poolMetrics are a Pool's per-call instruments.
type poolMetrics struct {
	reg           *obs.Registry
	calls, errors instrument[obs.Counter]
	latency       instrument[obs.Histogram]
}

func (pm *poolMetrics) callCount() *obs.Counter {
	return pm.calls.get(func() *obs.Counter { return pm.reg.Counter("rpc.client.calls") })
}

func (pm *poolMetrics) errorCount() *obs.Counter {
	return pm.errors.get(func() *obs.Counter { return pm.reg.Counter("rpc.client.errors") })
}

func (pm *poolMetrics) latencyHist() *obs.Histogram {
	return pm.latency.get(func() *obs.Histogram { return pm.reg.Histogram("rpc.client.latency") })
}

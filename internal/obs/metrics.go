package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The measurement primitives behind every registry instrument: a monotonic
// counter, a gauge, a log-bucketed latency histogram (HdrHistogram-style,
// fixed memory), and per-interval time series for throughput/response-time
// plots like the paper's Figure 3.

// Counter is a concurrency-safe monotonic counter. The zero value is ready
// to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a concurrency-safe instantaneous value (a level, not a rate).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histogram bucketing: 64 major (power-of-two) buckets x 16 linear
// sub-buckets each covers the full int64 nanosecond range with <= 6.25%
// relative error.
const (
	subBucketBits  = 4
	subBucketCount = 1 << subBucketBits
)

// Histogram is a concurrency-safe latency histogram. The zero value is
// ready to use.
//
// Recording is lock-free: each observation is a handful of independent
// atomic adds plus CAS loops for the extremes, so the histogram can sit on
// hot paths (per-stage commit tracing, read-path heat) without a shared
// mutex serializing every writer. Readers (Count, Quantile, ...) load the
// same atomics; under concurrent writes they see a slightly torn but
// monotonically growing view, and an exact one once writers quiesce —
// the same contract the old mutex version gave between lock acquisitions.
type Histogram struct {
	counts [64 * subBucketCount]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	// minEnc/maxEnc hold encodeExtreme(v); 0 means "no data yet", which
	// keeps the zero value ready to use without an init fence.
	minEnc atomic.Int64
	maxEnc atomic.Int64
}

// encodeExtreme maps an observation to a non-zero representative so that 0
// can mean "unset": non-negative v becomes v+1, negative v is its own
// (already non-zero) encoding. decodeExtreme inverts it.
func encodeExtreme(v int64) int64 {
	if v >= 0 {
		return v + 1
	}
	return v
}

func decodeExtreme(e int64) int64 {
	if e > 0 {
		return e - 1
	}
	return e
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	// Major bucket: position of the highest set bit above subBucketBits.
	major := 0
	for x := v >> subBucketBits; x > 0; x >>= 1 {
		major++
	}
	sub := int(v >> uint(major)) // 0..subBucketCount-1 within major
	return major*subBucketCount + sub%subBucketCount
}

func bucketUpperBound(idx int) int64 {
	major := idx / subBucketCount
	sub := idx % subBucketCount
	return int64(sub+1)<<uint(major) - 1
}

// Record adds one duration observation.
func (h *Histogram) Record(d time.Duration) { h.RecordValue(int64(d)) }

// RecordValue adds one raw observation (nanoseconds by convention).
func (h *Histogram) RecordValue(v int64) {
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.minEnc.Load()
		if cur != 0 && decodeExtreme(cur) <= v {
			break
		}
		if h.minEnc.CompareAndSwap(cur, encodeExtreme(v)) {
			break
		}
	}
	for {
		cur := h.maxEnc.Load()
		if cur != 0 && decodeExtreme(cur) >= v {
			break
		}
		if h.maxEnc.CompareAndSwap(cur, encodeExtreme(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations (nanoseconds by convention).
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the mean observation as a duration.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Min and Max return observed extremes.
func (h *Histogram) Min() time.Duration {
	return time.Duration(decodeOrZero(h.minEnc.Load()))
}

// Max returns the maximum observation.
func (h *Histogram) Max() time.Duration {
	return time.Duration(decodeOrZero(h.maxEnc.Load()))
}

func decodeOrZero(e int64) int64 {
	if e == 0 {
		return 0
	}
	return decodeExtreme(e)
}

// Quantile returns the approximate q-quantile (0 < q <= 1).
func (h *Histogram) Quantile(q float64) time.Duration {
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	max := decodeOrZero(h.maxEnc.Load())
	target := int64(math.Ceil(q * float64(count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			ub := bucketUpperBound(i)
			if ub > max {
				ub = max
			}
			return time.Duration(ub)
		}
	}
	return time.Duration(max)
}

// Reset clears the histogram. Reset racing concurrent writers clears
// field-by-field (writers may land observations across the boundary); call
// it only between measurement phases, as before.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.minEnc.Store(0)
	h.maxEnc.Store(0)
}

// Summary renders a single-line summary.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean().Round(time.Microsecond),
		h.Quantile(0.50).Round(time.Microsecond),
		h.Quantile(0.95).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond),
		h.Max().Round(time.Microsecond))
}

// SeriesPoint is one per-interval aggregate of a TimeSeries.
type SeriesPoint struct {
	Offset     time.Duration // start of the interval, relative to series start
	Count      int64         // events in the interval
	Throughput float64       // events per second
	MeanLat    time.Duration // mean attached latency (0 if none recorded)
}

// TimeSeries aggregates events into fixed intervals from a start instant —
// used for the throughput/response-time-over-time plots (Figure 3).
type TimeSeries struct {
	mu       sync.Mutex
	start    time.Time
	interval time.Duration
	counts   []int64
	latSums  []int64
	latCnts  []int64
}

// NewTimeSeries creates a series with the given aggregation interval,
// starting now.
func NewTimeSeries(interval time.Duration) *TimeSeries {
	if interval <= 0 {
		interval = time.Second
	}
	return &TimeSeries{start: time.Now(), interval: interval}
}

// Record adds one event with an attached latency at the current time.
func (s *TimeSeries) Record(lat time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := int(time.Since(s.start) / s.interval)
	for len(s.counts) <= idx {
		s.counts = append(s.counts, 0)
		s.latSums = append(s.latSums, 0)
		s.latCnts = append(s.latCnts, 0)
	}
	s.counts[idx]++
	s.latSums[idx] += int64(lat)
	s.latCnts[idx]++
}

// Points returns the aggregated series.
func (s *TimeSeries) Points() []SeriesPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesPoint, len(s.counts))
	for i := range s.counts {
		p := SeriesPoint{
			Offset:     time.Duration(i) * s.interval,
			Count:      s.counts[i],
			Throughput: float64(s.counts[i]) / s.interval.Seconds(),
		}
		if s.latCnts[i] > 0 {
			p.MeanLat = time.Duration(s.latSums[i] / s.latCnts[i])
		}
		out[i] = p
	}
	return out
}

// Start returns the series origin instant.
func (s *TimeSeries) Start() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.start
}

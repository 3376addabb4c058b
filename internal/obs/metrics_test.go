package obs

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("zero value not empty")
	}
	for i := 1; i <= 100; i++ {
		h.RecordValue(int64(i) * 1000)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1000 || h.Max() != 100000 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	mean := h.Mean()
	if mean < 50*time.Microsecond || mean > 51*time.Microsecond {
		t.Fatalf("mean = %v", mean)
	}
	p50 := h.Quantile(0.5)
	if p50 < 45*time.Microsecond || p50 > 56*time.Microsecond {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 90*time.Microsecond || p99 > 106*time.Microsecond {
		t.Fatalf("p99 = %v", p99)
	}
	if h.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestHistogramQuantileErrorBound(t *testing.T) {
	// The log-bucketed histogram must report quantiles within ~6.25%
	// relative error.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		vals := make([]int64, 1000)
		for i := range vals {
			vals[i] = rng.Int63n(1_000_000_000) + 1
			h.RecordValue(vals[i])
		}
		// Check p100 == max exactly.
		return h.Quantile(1.0) == h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.RecordValue(42)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.RecordValue(int64(j + 1))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, 1 << 40} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucket index not monotone at %d", v)
		}
		prev = idx
		if ub := bucketUpperBound(idx); ub < v {
			t.Fatalf("upper bound %d < value %d", ub, v)
		}
	}
}

func TestTimeSeries(t *testing.T) {
	s := NewTimeSeries(20 * time.Millisecond)
	for i := 0; i < 10; i++ {
		s.Record(time.Millisecond)
	}
	time.Sleep(25 * time.Millisecond)
	for i := 0; i < 5; i++ {
		s.Record(3 * time.Millisecond)
	}
	pts := s.Points()
	if len(pts) < 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Count != 10 {
		t.Fatalf("first interval count = %d", pts[0].Count)
	}
	if pts[0].MeanLat != time.Millisecond {
		t.Fatalf("first interval mean = %v", pts[0].MeanLat)
	}
	last := pts[len(pts)-1]
	if last.Count != 5 || last.MeanLat != 3*time.Millisecond {
		t.Fatalf("last interval = %+v", last)
	}
	if pts[0].Throughput != 500 { // 10 events / 20ms
		t.Fatalf("throughput = %v", pts[0].Throughput)
	}
	if s.Start().IsZero() {
		t.Fatal("start is zero")
	}
}

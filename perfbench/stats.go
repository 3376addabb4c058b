package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// Exact statistics: quantiles come from every recorded sample (nearest
// rank over the sorted durations), never from bucketed histograms.

// quantile returns the nearest-rank q-quantile of ds, sorting ds in place;
// 0 when ds is empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(i, 0)]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// opKind is one class of client operation.
type opKind int

const (
	opUpdate opKind = iota // Client.Update (read-write transaction)
	opGet                  // Client.View + one Txn.Get
	opScan                 // Client.View + one 100-row Txn.Scan drained
	numOpKinds
)

var opNames = [numOpKinds]string{"update", "get", "scan"}

// epoch is the process's monotonic time origin for sample timestamps.
var epoch = time.Now()

func sinceEpoch() time.Duration { return time.Since(epoch) }

// opSample is one completed operation: when it ended and how long it took.
type opSample struct {
	end, d time.Duration
}

// opLog is one load goroutine's record: every completed operation by
// kind, plus attempted and failed counts. A failed operation (an error or
// a wrong result) records no latency.
type opLog struct {
	lat       [numOpKinds][]opSample
	attempted int64
	failed    int64
	wrong     int64 // failures that were wrong results, not errors
	firstErr  error
}

func (l *opLog) record(k opKind, d time.Duration, err error) {
	if err == nil {
		l.attempted++
		l.lat[k] = append(l.lat[k], opSample{end: sinceEpoch(), d: d})
		return
	}
	l.check(fmt.Errorf("%s: %w", opNames[k], err))
}

// check records the outcome of a result check that is not a timed
// operation (a whole-table audit after a failover).
func (l *opLog) check(err error) {
	l.attempted++
	if err == nil {
		return
	}
	l.failed++
	if errors.As(err, new(*wrongResult)) {
		l.wrong++
	}
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// wrongResult marks a checker failure, as opposed to an error the program
// returned.
type wrongResult struct{ err error }

func (w *wrongResult) Error() string { return "wrong result: " + w.err.Error() }
func (w *wrongResult) Unwrap() error { return w.err }

func wrong(err error) error {
	if err == nil {
		return nil
	}
	return &wrongResult{err}
}

func (l *opLog) completed() int64 { return l.attempted - l.failed }

// merge folds o into l.
func (l *opLog) merge(o *opLog) {
	for k := range l.lat {
		l.lat[k] = append(l.lat[k], o.lat[k]...)
	}
	l.attempted += o.attempted
	l.failed += o.failed
	l.wrong += o.wrong
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

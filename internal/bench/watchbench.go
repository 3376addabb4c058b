package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/kv"
	"txkv/internal/metrics"
)

// Watch quantifies the change-stream subsystem along the three axes its
// design promises: commit-path isolation (a watcher — even a stalled one —
// must not move the commit latency distribution), delivery latency (how far
// behind the commit ack a live subscriber sees the event), and catch-up
// throughput (how fast a resumed stream replays history from the commit
// log). Four phases, each on a fresh cluster with zero simulated latency so
// the numbers are pure software cost:
//
//	baseline  writers only, no watcher — the commit p50/p99 yardstick
//	live      writers plus a draining watcher — delivery p50/p99 measured
//	          from just before commit submission to event receipt
//	slow      writers plus a watcher sleeping per batch behind a small
//	          buffer — it falls thousands of commits behind, reading from
//	          the historical log; the commit percentiles must still match
//	          baseline
//	catchup   history committed first, then a pinned stream drains it all —
//	          replay events/sec
//
// BENCH_PR9.json records a historical reference run; EXPERIMENTS.md
// discusses it.

// WatchPhaseResult is one phase's measurements; fields that a phase does
// not exercise are zero.
type WatchPhaseResult struct {
	Phase           string // "baseline" | "live" | "slow" | "catchup"
	CommitsPerSec   float64
	CommitP50Micros float64
	CommitP99Micros float64
	EventsPerSec    float64
	// Delivery latency spans commit submission to event receipt, so it
	// includes the commit itself; subtract the commit p50 for the pure
	// fan-out cost.
	DeliverP50Micros float64
	DeliverP99Micros float64
	// Overflows counts live-queue overflows that demoted the subscriber to
	// the historical reader. They show up in the live phase (full-rate
	// fan-out bursts past the queue); the slow phase's watcher usually
	// trails in catch-up mode from the start and never attaches at all.
	Overflows int64
}

const watchBenchTable = "watchbench"

// watchPutsPerTxn is the write-set size each bench transaction commits;
// every put becomes one change event.
const watchPutsPerTxn = 4

// watchWriterInterval paces each writer to one commit per interval, keeping
// the offered load well below the commit pipeline's saturation point. At
// saturation a closed loop pins mean latency at threads/throughput (Little's
// law) and the percentiles only reflect group-commit batching shape; paced,
// they measure what a watcher actually costs the commit path.
const watchWriterInterval = 10 * time.Millisecond

// Watch runs the change-stream experiment and prints one row per phase.
func Watch(o Options) error {
	o = o.withDefaults()
	var phases []WatchPhaseResult

	for _, phase := range []string{"baseline", "live", "slow"} {
		pr, err := watchPhase(o, phase)
		if err != nil {
			return err
		}
		phases = append(phases, pr)
		// Level the heap between phases: the commit percentiles are tight
		// enough that garbage carried over from an earlier phase's cluster
		// otherwise skews whichever phase runs later.
		runtime.GC()
	}
	pr, err := watchCatchup(o)
	if err != nil {
		return err
	}
	phases = append(phases, pr)

	fprintf(o.Out, "# watch: change streams — commit-path isolation, delivery latency, catch-up replay\n")
	fprintf(o.Out, "%-9s %11s %11s %11s %11s %12s %12s %10s\n",
		"phase", "commits/s", "cmt-p50-us", "cmt-p99-us", "events/s", "dlv-p50-us", "dlv-p99-us", "overflows")
	for _, p := range phases {
		fprintf(o.Out, "%-9s %11.1f %11.1f %11.1f %11.1f %12.1f %12.1f %10d\n",
			p.Phase, p.CommitsPerSec, p.CommitP50Micros, p.CommitP99Micros,
			p.EventsPerSec, p.DeliverP50Micros, p.DeliverP99Micros, p.Overflows)
	}
	return nil
}

// watchPhase runs writers for o.Duration, with no watcher (baseline), a
// draining watcher (live), or a deliberately stalled one behind a small
// buffer (slow), and reports both sides' distributions.
func watchPhase(o Options, phase string) (WatchPhaseResult, error) {
	pr := WatchPhaseResult{Phase: phase}
	c, err := cluster.New(cluster.Config{Servers: 2, WatchBuffer: 64})
	if err != nil {
		return pr, err
	}
	defer c.Stop()
	if err := c.CreateTable(watchBenchTable, nil); err != nil {
		return pr, err
	}
	ctx := context.Background()

	// sendTimes maps each committed value to the moment its transaction was
	// submitted; the watcher turns that into write-to-delivery latency.
	var sendTimes sync.Map
	chist := &metrics.Histogram{}
	dhist := &metrics.Histogram{}
	var commits, delivered atomic.Int64
	var watcherErr atomic.Value

	watcherStopped := make(chan struct{})
	if phase != "baseline" {
		wcl, err := c.NewClient("watch-bench")
		if err != nil {
			return pr, err
		}
		ws, err := wcl.Watch(ctx, watchBenchTable, kv.KeyRange{}, 0)
		if err != nil {
			return pr, err
		}
		defer ws.Close()
		wctx, wcancel := context.WithCancel(ctx)
		defer wcancel()
		go func() {
			defer close(watcherStopped)
			for {
				b, err := ws.NextBatch(wctx)
				if err != nil {
					if wctx.Err() == nil {
						watcherErr.CompareAndSwap(nil, err)
					}
					return
				}
				now := time.Now()
				for _, ev := range b.Events {
					delivered.Add(1)
					if t, ok := sendTimes.LoadAndDelete(string(ev.Value)); ok {
						dhist.Record(now.Sub(t.(time.Time)))
					}
				}
				if phase == "slow" && len(b.Events) > 0 {
					time.Sleep(2 * time.Millisecond)
				}
			}
		}()
	} else {
		close(watcherStopped)
	}

	// Writers on disjoint key spaces: no conflicts, so the commit histogram
	// measures the pipeline, not retry loops.
	var firstErr atomic.Value
	stopAt := time.Now().Add(o.Duration)
	done := make(chan struct{}, o.Threads)
	for th := 0; th < o.Threads; th++ {
		go func(th int) {
			defer func() { done <- struct{}{} }()
			cl, err := c.NewClient(fmt.Sprintf("watch-writer-%d", th))
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			defer cl.Stop()
			for i := 0; time.Now().Before(stopAt); i++ {
				val := fmt.Sprintf("w%d.%d", th, i)
				t0 := time.Now()
				sendTimes.Store(val, t0)
				_, err := cl.Update(ctx, func(txn *cluster.Txn) error {
					for j := 0; j < watchPutsPerTxn; j++ {
						row := kv.Key(fmt.Sprintf("w%02d-%04d-%d", th, i%1000, j))
						if err := txn.Put(ctx, watchBenchTable, row, "f", []byte(val)); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				chist.Record(time.Since(t0))
				commits.Add(1)
				if rest := watchWriterInterval - time.Since(t0); rest > 0 {
					time.Sleep(rest)
				}
			}
		}(th)
	}
	for th := 0; th < o.Threads; th++ {
		<-done
	}
	if e := firstErr.Load(); e != nil {
		return pr, e.(error)
	}

	if phase != "baseline" {
		// Give the live watcher a moment to drain what the writers queued,
		// then stop it; the slow one is left wherever it stalled.
		if phase == "live" {
			time.Sleep(200 * time.Millisecond)
		}
	}
	n := commits.Load()
	if n == 0 {
		return pr, fmt.Errorf("watch phase %s completed no commits", phase)
	}
	pr.CommitsPerSec = float64(n) / o.Duration.Seconds()
	pr.CommitP50Micros = float64(chist.Quantile(0.50)) / 1e3
	pr.CommitP99Micros = float64(chist.Quantile(0.99)) / 1e3
	if phase != "baseline" {
		pr.EventsPerSec = float64(delivered.Load()) / o.Duration.Seconds()
		pr.DeliverP50Micros = float64(dhist.Quantile(0.50)) / 1e3
		pr.DeliverP99Micros = float64(dhist.Quantile(0.99)) / 1e3
		pr.Overflows = c.WatchHub().Stats().Overflows
		if e := watcherErr.Load(); e != nil {
			return pr, fmt.Errorf("watch phase %s: watcher failed: %w", phase, e.(error))
		}
	}
	return pr, nil
}

// watchCatchup commits a fixed history, then measures how fast a stream
// pinned at position zero replays it from the commit log.
func watchCatchup(o Options) (WatchPhaseResult, error) {
	pr := WatchPhaseResult{Phase: "catchup"}
	c, err := cluster.New(cluster.Config{Servers: 2})
	if err != nil {
		return pr, err
	}
	defer c.Stop()
	if err := c.CreateTable(watchBenchTable, nil); err != nil {
		return pr, err
	}
	ctx := context.Background()

	// The pin goes in before the history is written: an unconsumed stream
	// at position zero holds the retention horizon open (overflowing its
	// live queue just demotes it to the historical reader), exactly the
	// behavior a checkpointed-but-offline consumer relies on.
	wcl, err := c.NewClient("watch-catchup")
	if err != nil {
		return pr, err
	}
	ws, err := wcl.Watch(ctx, watchBenchTable, kv.KeyRange{}, 0)
	if err != nil {
		return pr, err
	}
	defer ws.Close()

	cl, err := c.NewClient("watch-catchup-loader")
	if err != nil {
		return pr, err
	}
	defer cl.Stop()
	total := o.Records
	val := make([]byte, 100)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for lo := 0; lo < total; lo += 200 {
		hi := lo + 200
		if hi > total {
			hi = total
		}
		if _, err := cl.Update(ctx, func(txn *cluster.Txn) error {
			for i := lo; i < hi; i++ {
				if err := txn.Put(ctx, watchBenchTable, kv.Key(fmt.Sprintf("r%08d", i)), "f", val); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return pr, err
		}
	}

	t0 := time.Now()
	seen := 0
	for seen < total {
		b, err := ws.NextBatch(ctx)
		if err != nil {
			return pr, err
		}
		seen += len(b.Events)
	}
	elapsed := time.Since(t0)
	pr.EventsPerSec = float64(seen) / elapsed.Seconds()
	return pr, nil
}

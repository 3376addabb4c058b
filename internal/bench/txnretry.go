package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/metrics"
	"txkv/internal/txmgr"
	"txkv/internal/ycsb"
)

// TxnRetry benchmarks transaction conflict handling under contention: a
// read-modify-write workload over a deliberately tiny hot keyspace, run in
// two modes against identical clusters —
//
//   - caller: the pre-v2 pattern, a hand-rolled loop around an
//     unmanaged transaction (MaxRetries: NoRetry) that re-begins on
//     ErrConflict with no backoff, as every example used to do;
//   - managed: Client.Update, the middleware-owned retry with capped
//     exponential backoff.
//
// The interesting outputs are the conflict volume each mode generates for
// the same committed work and the success latency tail: backoff desynchronizes
// colliding workers, so the managed mode commits the same workload with
// fewer wasted validation rounds. BENCH_PR5.json in the repo root records a
// historical reference run.

// txnRetryHotKeys is the contended keyspace size: small enough that
// Threads workers collide constantly.
const txnRetryHotKeys = 16

// TxnRetryMode is one mode's measurements.
type TxnRetryMode struct {
	CommitsPerSec float64
	Conflicts     int64
	// ConflictsPerCommit is the wasted-work ratio: validation rounds that
	// aborted per committed transaction.
	ConflictsPerCommit float64
	P99Micros          float64
	Failures           int64
}

// TxnRetry runs the contention experiment and prints one row per mode.
func TxnRetry(o Options) error {
	o = o.withDefaults()
	caller, err := txnRetryMode(o, false)
	if err != nil {
		return err
	}
	managed, err := txnRetryMode(o, true)
	if err != nil {
		return err
	}

	fprintf(o.Out, "# txn_retry: conflict retry under contention (%d hot keys, %d threads)\n",
		txnRetryHotKeys, o.Threads)
	fprintf(o.Out, "%-8s %14s %12s %12s %12s %10s\n", "mode", "commits/s", "conflicts", "cflt/commit", "p99-us", "failures")
	for _, row := range []struct {
		name string
		m    TxnRetryMode
	}{{"caller", caller}, {"managed", managed}} {
		fprintf(o.Out, "%-8s %14.0f %12d %12.2f %12.1f %10d\n",
			row.name, row.m.CommitsPerSec, row.m.Conflicts, row.m.ConflictsPerCommit, row.m.P99Micros, row.m.Failures)
	}
	return nil
}

// txnRetryMode measures one retry discipline on a fresh cluster.
func txnRetryMode(o Options, managed bool) (TxnRetryMode, error) {
	var m TxnRetryMode
	// Software-path configuration: zero simulated
	// latencies so the measurement is validation + retry machinery, with
	// just the group-commit fsync kept to make wasted rounds cost something.
	cfg := paperRatioConfig(2, false, time.Second)
	cfg.RPCLatency = 0
	cfg.DFSSyncLatency = 0
	cfg.DFSReadLatency = 0
	cfg.LogSyncLatency = 200 * time.Microsecond
	c, w, err := setup(o, cfg)
	if err != nil {
		return m, err
	}
	defer c.Stop()

	hist := &metrics.Histogram{}
	var (
		commits   atomic.Int64
		conflicts atomic.Int64
		failures  atomic.Int64
		wg        sync.WaitGroup
	)
	ctx := context.Background()
	stopAt := time.Now().Add(o.Duration)
	for th := 0; th < o.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			cl, err := c.NewClient(fmt.Sprintf("retry-%v-%d", managed, th))
			if err != nil {
				failures.Add(1)
				return
			}
			defer cl.Stop()
			rng := rand.New(rand.NewSource(o.Seed*97 + int64(th)))
			for time.Now().Before(stopAt) {
				a := ycsb.RowKey(uint64(rng.Intn(txnRetryHotKeys)))
				b := ycsb.RowKey(uint64(rng.Intn(txnRetryHotKeys)))
				body := func(txn *cluster.Txn) error {
					av, _, err := txn.Get(ctx, w.Table, a, "field0")
					if err != nil {
						return err
					}
					if err := txn.Put(ctx, w.Table, a, "field0", append(av[:len(av):len(av)], 'x')); err != nil {
						return err
					}
					if a == b {
						return nil
					}
					bv, _, err := txn.Get(ctx, w.Table, b, "field0")
					if err != nil {
						return err
					}
					return txn.Put(ctx, w.Table, b, "field0", append(bv[:len(bv):len(bv)], 'y'))
				}
				t0 := time.Now()
				var err error
				if managed {
					_, err = cl.UpdateWith(ctx, cluster.TxnOptions{MaxRetries: 64}, body)
				} else {
					// The pre-v2 caller pattern: immediate re-begin on
					// conflict, no backoff.
					for {
						_, err = cl.UpdateWith(ctx, cluster.TxnOptions{MaxRetries: cluster.NoRetry}, body)
						if !errors.Is(err, txmgr.ErrConflict) {
							break
						}
						conflicts.Add(1)
					}
				}
				if err != nil {
					failures.Add(1)
					continue
				}
				commits.Add(1)
				hist.Record(time.Since(t0))
			}
			if managed {
				_, r := cl.UpdateStats()
				conflicts.Add(r)
			}
		}(th)
	}
	wg.Wait()

	n := commits.Load()
	m.CommitsPerSec = float64(n) / o.Duration.Seconds()
	m.Conflicts = conflicts.Load()
	if n > 0 {
		m.ConflictsPerCommit = float64(m.Conflicts) / float64(n)
	}
	m.P99Micros = float64(hist.Quantile(0.99)) / 1e3
	m.Failures = failures.Load()
	return m, nil
}

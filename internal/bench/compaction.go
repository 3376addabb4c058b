package bench

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/metrics"
	"txkv/internal/ycsb"
)

// Compaction is the resource-lifecycle soak: continuous overwrites against
// a disk-persistent cluster with the storage janitor running (WAL rolls,
// store-file compaction with the safe-snapshot GC horizon, DFS log
// compaction), while closed-loop readers measure point-read latency. The
// experiment reports, per interval, the data-directory size, the
// cumulative bytes reclaimed, and the interval's read p99 — the trade the
// subsystem must win is "DataDir plateaus" without "read p99 spikes".
//
// Without the janitor every interval's DataDir column grows by roughly the
// bytes written; with it the size oscillates around a plateau while
// reclaimed bytes track written bytes.
func Compaction(o Options) error {
	o = o.withDefaults()

	dir, err := os.MkdirTemp("", "txkv-compaction-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Hot-path configuration (zero simulated latencies, so the software
	// cost of reclamation, not sleeps, is measured), plus disk persistence
	// and an aggressive janitor.
	cfg := paperRatioConfig(2, false, time.Second)
	cfg.RPCLatency = 0
	cfg.LogSyncLatency = 0
	cfg.DFSSyncLatency = 0
	cfg.DFSReadLatency = 0
	cfg.Persistence = cluster.PersistDisk
	cfg.DataDir = dir
	cfg.StorageSegmentBytes = 64 << 10
	cfg.MemstoreFlushBytes = 256 << 10
	cfg.CompactionInterval = 200 * time.Millisecond
	cfg.CompactionThreshold = 4

	c, w, err := setup(o, cfg)
	if err != nil {
		return err
	}
	defer c.Stop()
	if err := warmup(c, w, o); err != nil {
		return err
	}

	const interval = time.Second
	buckets := int(o.Duration/interval) + 2
	hists := make([]*metrics.Histogram, buckets)
	for i := range hists {
		hists[i] = &metrics.Histogram{}
	}

	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		writes   atomic.Int64
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
	}
	start := time.Now()

	// Writers: continuous single-row overwrites across the whole keyspace.
	writers := o.Threads / 2
	if writers < 2 {
		writers = 2
	}
	cl, err := c.NewClient("")
	if err != nil {
		return err
	}
	defer cl.Stop()
	for t := 0; t < writers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.Seed*101 + int64(t)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				row := ycsb.RowKey(uint64(rng.Intn(w.RecordCount)))
				val := []byte(fmt.Sprintf("v%d-%d", t, i))
				if _, err := cl.Update(context.Background(), func(txn *cluster.Txn) error {
					return txn.Put(context.Background(), w.Table, row, "field0", val)
				}); err == nil {
					writes.Add(1)
				}
			}
		}(t)
	}

	// Readers: the latency probes. An error here is a correctness failure
	// (compaction yanked a file from under a view), not just noise.
	readers := o.Threads - writers
	if readers < 2 {
		readers = 2
	}
	for t := 0; t < readers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.Seed*211 + int64(t)))
			txn, err := cl.BeginTxn(cluster.TxnOptions{ReadOnly: true})
			if err != nil {
				fail(err)
				return
			}
			defer txn.Abort()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%256 == 0 {
					txn.Abort()
					if txn, err = cl.BeginTxn(cluster.TxnOptions{ReadOnly: true}); err != nil {
						fail(err)
						return
					}
				}
				row := ycsb.RowKey(uint64(rng.Intn(w.RecordCount)))
				t0 := time.Now()
				if _, _, err := txn.Get(context.Background(), w.Table, row, "field0"); err != nil {
					fail(fmt.Errorf("reader observed error during compaction: %w", err))
					return
				}
				if b := int(time.Since(start) / interval); b < len(hists) {
					hists[b].Record(time.Since(t0))
				}
			}
		}(t)
	}

	// Sampler: DataDir size + reclamation counters per interval.
	type sample struct {
		dirBytes  int64
		reclaimed int64
		retired   int64
		writes    int64
	}
	samples := make([]sample, 0, buckets)
	var peak, final int64
	func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		deadline := time.Now().Add(o.Duration)
		for time.Now().Before(deadline) {
			<-tick.C
			size, err := c.DataDirBytes()
			if err != nil {
				fail(err)
				break
			}
			rc := c.ReclaimStats()
			samples = append(samples, sample{
				dirBytes:  size,
				reclaimed: rc.BytesReclaimed,
				retired:   rc.FilesRetired,
				writes:    writes.Load(),
			})
			if size > peak {
				peak = size
			}
			final = size
		}
	}()
	close(stop)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	fprintf(o.Out, "# compaction: DataDir under continuous overwrites with the storage janitor\n")
	fprintf(o.Out, "%-6s %12s %14s %10s %10s %12s\n", "t-sec", "datadir-kb", "reclaimed-kb", "retired", "commits", "get-p99-us")
	for i, s := range samples {
		p99 := float64(hists[i].Quantile(0.99)) / 1e3
		fprintf(o.Out, "%-6d %12d %14d %10d %10d %12.1f\n",
			i+1, s.dirBytes/1024, s.reclaimed/1024, s.retired, s.writes, p99)
	}
	// Growth detection: compare the mean DataDir size of the run's second
	// half against the first half. A plateau oscillates around a level
	// (janitor passes interleave with write bursts), so a single-sample
	// comparison would misread either way; sustained growth doubles the
	// trailing average.
	verdict := "PLATEAU"
	if n := len(samples); n >= 4 {
		var firstHalf, lastHalf int64
		for _, s := range samples[:n/2] {
			firstHalf += s.dirBytes
		}
		firstHalf /= int64(n / 2)
		for _, s := range samples[n-n/2:] {
			lastHalf += s.dirBytes
		}
		lastHalf /= int64(n / 2)
		if lastHalf > 2*firstHalf {
			verdict = "GROWING"
		}
	}
	fprintf(o.Out, "%s: peak %d KiB, final %d KiB, %d commits, %d KiB reclaimed\n",
		verdict, peak/1024, final/1024, writes.Load(), samples[len(samples)-1].reclaimed/1024)
	return nil
}

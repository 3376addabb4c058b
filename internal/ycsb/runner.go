package ycsb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/kv"
	"txkv/internal/obs"
	"txkv/internal/txmgr"
)

// Workload describes the transactional YCSB workload of the paper's §4.1:
// update transactions executing OpsPerTxn random row operations with a
// ReadRatio fraction of reads (the paper: 10 operations, 50/50).
type Workload struct {
	// Table is the target table (created by the loader).
	Table string
	// RecordCount is the number of rows (the paper loads 500k; scale
	// down for laptop runs).
	RecordCount int
	// OpsPerTxn is the number of row operations per transaction.
	OpsPerTxn int
	// ReadRatio in [0,1] is the fraction of operations that are reads.
	ReadRatio float64
	// ScanRatio in [0,1] is the fraction of operations that are short
	// range scans of ScanLength rows (YCSB workload E's shape), streamed
	// through the cursor-scan API. Scans are drawn before reads: an
	// operation is a scan with probability ScanRatio, else a read with
	// probability ReadRatio, else an update. Default 0 (the paper's
	// workload has no scans).
	ScanRatio float64
	// ScanLength is the row count of one scan operation (default 50).
	ScanLength int
	// ValueSize is the payload size of updates in bytes.
	ValueSize int
	// Distribution selects the key generator: "uniform", "zipfian",
	// "scrambled", or "latest" (default uniform, like the paper's
	// "random row operations").
	Distribution string
}

func (w Workload) withDefaults() Workload {
	if w.Table == "" {
		w.Table = "usertable"
	}
	if w.RecordCount <= 0 {
		w.RecordCount = 10000
	}
	if w.OpsPerTxn <= 0 {
		w.OpsPerTxn = 10
	}
	if w.ReadRatio == 0 {
		w.ReadRatio = 0.5
	}
	if w.ValueSize <= 0 {
		w.ValueSize = 100
	}
	if w.ScanLength <= 0 {
		w.ScanLength = 50
	}
	if w.Distribution == "" {
		w.Distribution = "uniform"
	}
	return w
}

func (w Workload) generator() (Generator, error) {
	n := uint64(w.RecordCount)
	switch w.Distribution {
	case "uniform":
		return NewUniform(n), nil
	case "zipfian":
		return NewZipfian(n), nil
	case "scrambled":
		return NewScrambledZipfian(n), nil
	case "latest":
		return NewLatest(n), nil
	default:
		return nil, fmt.Errorf("ycsb: unknown distribution %q", w.Distribution)
	}
}

// RowKey formats the i-th row's key (zero-padded so rows sort and split
// evenly across regions).
func RowKey(i uint64) kv.Key { return kv.Key(fmt.Sprintf("user%08d", i)) }

// SplitKeys returns n-1 split points dividing the key space into n even
// regions.
func SplitKeys(recordCount, regions int) []kv.Key {
	var out []kv.Key
	for i := 1; i < regions; i++ {
		out = append(out, RowKey(uint64(recordCount*i/regions)))
	}
	return out
}

// Load creates the table (pre-split across regions) and bulk-loads
// RecordCount rows through transactions of batchSize puts each, using
// loaders concurrent clients.
func Load(c *cluster.Cluster, w Workload, regions, batchSize, loaders int) error {
	w = w.withDefaults()
	if batchSize <= 0 {
		batchSize = 500
	}
	if loaders <= 0 {
		loaders = 4
	}
	if err := c.CreateTable(w.Table, SplitKeys(w.RecordCount, regions)); err != nil {
		return err
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	var lastTS atomic.Uint64
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			cl, err := c.NewClient(fmt.Sprintf("loader-%d", l))
			if err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				return
			}
			defer cl.Stop()
			rng := rand.New(rand.NewSource(int64(l) + 1))
			val := make([]byte, w.ValueSize)
			rng.Read(val)
			for {
				start := int(next.Add(int64(batchSize))) - batchSize
				if start >= w.RecordCount {
					return
				}
				end := start + batchSize
				if end > w.RecordCount {
					end = w.RecordCount
				}
				cts, err := cl.Update(context.Background(), func(txn *cluster.Txn) error {
					for i := start; i < end; i++ {
						if err := txn.Put(context.Background(), w.Table, RowKey(uint64(i)), "field0", val); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				for {
					old := lastTS.Load()
					if uint64(cts) <= old || lastTS.CompareAndSwap(old, uint64(cts)) {
						break
					}
				}
			}
		}(l)
	}
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	// Ensure the load is fully flushed before measurement starts.
	return c.WaitFlushed(kv.Timestamp(lastTS.Load()), 2*time.Minute)
}

// RunnerConfig drives a measurement run.
type RunnerConfig struct {
	// Threads is the number of closed-loop client threads (the paper's
	// "client threads"; 50 in its experiments). Threads share Clients
	// transactional clients.
	Threads int
	// Clients is the number of client processes to spread threads over
	// (each has its own heartbeat session). Default 1, like the paper's
	// single client node.
	Clients int
	// Duration is the measurement length.
	Duration time.Duration
	// TargetTPS throttles offered load (0 = unthrottled).
	TargetTPS int
	// SeriesInterval enables a per-interval time series when > 0.
	SeriesInterval time.Duration
	// Seed seeds the per-thread RNGs.
	Seed int64
}

// Result aggregates a run.
type Result struct {
	Committed int64
	Aborted   int64 // SI conflicts
	Errors    int64
	Elapsed   time.Duration
	Latency   *obs.Histogram
	Series    *obs.TimeSeries // nil unless SeriesInterval was set
}

// Throughput returns committed transactions per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Elapsed.Seconds()
}

// Run executes the workload against the cluster.
func Run(c *cluster.Cluster, w Workload, rc RunnerConfig) (Result, error) {
	w = w.withDefaults()
	if rc.Threads <= 0 {
		rc.Threads = 8
	}
	if rc.Clients <= 0 {
		rc.Clients = 1
	}
	if rc.Duration <= 0 {
		rc.Duration = 5 * time.Second
	}
	gen, err := w.generator()
	if err != nil {
		return Result{}, err
	}

	clients := make([]*cluster.Client, rc.Clients)
	for i := range clients {
		cl, err := c.NewClient(fmt.Sprintf("ycsb-%d-%d", rc.Seed, i))
		if err != nil {
			return Result{}, err
		}
		clients[i] = cl
		defer cl.Stop()
	}

	res := Result{Latency: &obs.Histogram{}}
	if rc.SeriesInterval > 0 {
		res.Series = obs.NewTimeSeries(rc.SeriesInterval)
	}
	var committed, aborted, errCount atomic.Int64

	// Pacing: each thread runs at TargetTPS/Threads with its own schedule
	// (open-ish loop with bounded catch-up), matching how YCSB throttles.
	perThreadInterval := time.Duration(0)
	if rc.TargetTPS > 0 {
		perThreadRate := float64(rc.TargetTPS) / float64(rc.Threads)
		perThreadInterval = time.Duration(float64(time.Second) / perThreadRate)
	}

	stopAt := time.Now().Add(rc.Duration)
	var wg sync.WaitGroup
	for th := 0; th < rc.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			cl := clients[th%len(clients)]
			rng := rand.New(rand.NewSource(rc.Seed*7919 + int64(th)))
			val := make([]byte, w.ValueSize)
			rng.Read(val)
			nextSlot := time.Now()
			for time.Now().Before(stopAt) {
				if perThreadInterval > 0 {
					now := time.Now()
					if now.Before(nextSlot) {
						time.Sleep(nextSlot.Sub(now))
					}
					nextSlot = nextSlot.Add(perThreadInterval)
					if behind := time.Since(nextSlot); behind > time.Second {
						nextSlot = time.Now() // cap catch-up burst at 1s
					}
				}
				start := time.Now()
				err := runTxn(cl, w, gen, rng, val)
				lat := time.Since(start)
				switch {
				case err == nil:
					committed.Add(1)
					res.Latency.Record(lat)
					if res.Series != nil {
						res.Series.Record(lat)
					}
				case errors.Is(err, txmgr.ErrConflict):
					aborted.Add(1)
				default:
					errCount.Add(1)
				}
			}
		}(th)
	}
	started := time.Now()
	wg.Wait()
	res.Elapsed = time.Since(started)
	res.Committed = committed.Load()
	res.Aborted = aborted.Load()
	res.Errors = errCount.Load()
	return res, nil
}

// runTxn executes one paper-style update transaction through the managed
// closure API: OpsPerTxn random row operations — ScanRatio of them short
// streaming scans, ReadRatio reads, the rest updates. Automatic conflict
// retry is disabled (MaxRetries: NoRetry) so the runner's abort accounting
// keeps the paper's semantics: an SI conflict counts as an aborted
// transaction, exactly as YCSB-over-the-paper's-TM would observe it.
func runTxn(cl *cluster.Client, w Workload, gen Generator, rng *rand.Rand, val []byte) error {
	ctx := context.Background()
	_, err := cl.UpdateWith(ctx, cluster.TxnOptions{MaxRetries: cluster.NoRetry}, func(txn *cluster.Txn) error {
		for op := 0; op < w.OpsPerTxn; op++ {
			row := RowKey(gen.Next(rng))
			switch roll := rng.Float64(); {
			case roll < w.ScanRatio:
				// Workload-E-style short scan, streamed in bounded batches
				// through the cursor API (never materialized).
				sc := txn.Scan(ctx, w.Table, kv.KeyRange{Start: row}, cluster.ScanOptions{Limit: w.ScanLength})
				for sc.Next() {
				}
				if err := sc.Err(); err != nil {
					return err
				}
			case roll < w.ScanRatio+w.ReadRatio:
				if _, _, err := txn.Get(ctx, w.Table, row, "field0"); err != nil {
					return err
				}
			default:
				if err := txn.Put(ctx, w.Table, row, "field0", val); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return err
}

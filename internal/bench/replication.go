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

// Replication quantifies the region-replication subsystem along the three
// axes its design trades on: the commit-latency price of quorum ack (every
// write-set crosses to a majority of region copies before the client's ack),
// the scan-throughput payoff of follower reads (snapshot scans spread over
// all copies instead of hammering the primary), and the availability blip
// when a primary dies (failure detection + follower promotion, measured from
// the client side as the largest gap between successful commits). Phases,
// each on a fresh cluster with zero simulated latency so the numbers are
// pure software cost:
//
//	commit_rf1     paced writers, ReplicationFactor=1 — the no-replication
//	               commit p50/p99 yardstick
//	commit_rf3     the same writers at ReplicationFactor=3: quorum=2 ack on
//	               the commit path
//	scan_primary   RF=3 but follower reads off — every scan hits primaries
//	scan_follower  RF=3 with follower reads on — bounded-staleness scans
//	               admitted by follower copies
//	failover       writers at RF=3 while the primary-heaviest server is
//	               crashed mid-run; reports the client-visible blip and the
//	               master's promotion window
//
// BENCH_PR10.json records a historical reference run; EXPERIMENTS.md
// discusses it.

// ReplicationPhaseResult is one phase's measurements; fields a phase does
// not exercise are zero.
type ReplicationPhaseResult struct {
	Phase           string
	CommitsPerSec   float64
	CommitP50Micros float64
	CommitP99Micros float64
	RowsPerSec      float64
	ScansPerSec     float64
	// FollowerReads counts scans served by follower copies during the scan
	// phases (zero when follower reads are off — the control).
	FollowerReads int64
	// BlipMS is the largest gap between consecutive successful commits
	// across the whole failover phase — the client-visible unavailability
	// window around the crash.
	BlipMS float64
	// FailoverWindowMS is the master's own promotion window (detection
	// excluded): last failover duration from the replica metric family.
	FailoverWindowMS float64
	// CommitErrors counts failed commits during the failover phase (they
	// concentrate inside the blip).
	CommitErrors int64
}

const replBenchTable = "replbench"

// replWriterInterval paces each writer to one commit per interval so the
// percentiles measure the quorum round, not closed-loop queueing.
const replWriterInterval = 5 * time.Millisecond

// Replication runs the region-replication experiment and prints one row per
// phase.
func Replication(o Options) error {
	o = o.withDefaults()
	var phases []ReplicationPhaseResult

	for _, rf := range []int{1, 3} {
		pr, err := replCommitPhase(o, rf)
		if err != nil {
			return err
		}
		phases = append(phases, pr)
		runtime.GC()
	}
	for _, follower := range []bool{false, true} {
		pr, err := replScanPhase(o, follower)
		if err != nil {
			return err
		}
		phases = append(phases, pr)
		runtime.GC()
	}
	pr, err := replFailoverPhase(o)
	if err != nil {
		return err
	}
	phases = append(phases, pr)

	fprintf(o.Out, "# replication: quorum-ack commit price, follower-read scans, failover blip\n")
	fprintf(o.Out, "%-14s %11s %11s %11s %11s %11s %9s %9s %9s %7s\n",
		"phase", "commits/s", "cmt-p50-us", "cmt-p99-us", "rows/s", "scans/s", "flw-reads", "blip-ms", "fo-ms", "errors")
	for _, p := range phases {
		fprintf(o.Out, "%-14s %11.1f %11.1f %11.1f %11.1f %11.1f %9d %9.1f %9.1f %7d\n",
			p.Phase, p.CommitsPerSec, p.CommitP50Micros, p.CommitP99Micros,
			p.RowsPerSec, p.ScansPerSec, p.FollowerReads, p.BlipMS, p.FailoverWindowMS, p.CommitErrors)
	}
	return nil
}

// replCommitPhase measures the paced commit distribution at the given
// replication factor on three servers.
func replCommitPhase(o Options, rf int) (ReplicationPhaseResult, error) {
	pr := ReplicationPhaseResult{Phase: fmt.Sprintf("commit_rf%d", rf)}
	c, err := cluster.New(cluster.Config{Servers: 3, ReplicationFactor: rf})
	if err != nil {
		return pr, err
	}
	defer c.Stop()
	if err := c.CreateTable(replBenchTable, nil); err != nil {
		return pr, err
	}
	hist := &metrics.Histogram{}
	commits, _, err := replRunWriters(c, o, o.Duration, hist, nil)
	if err != nil {
		return pr, err
	}
	if commits == 0 {
		return pr, fmt.Errorf("replication %s completed no commits", pr.Phase)
	}
	pr.CommitsPerSec = float64(commits) / o.Duration.Seconds()
	pr.CommitP50Micros = float64(hist.Quantile(0.50)) / 1e3
	pr.CommitP99Micros = float64(hist.Quantile(0.99)) / 1e3
	return pr, nil
}

// replRunWriters drives o.Threads paced writers against disjoint key spaces
// for d, recording per-commit latency into hist. With blip non-nil it keeps
// running through commit errors, tracking the largest gap between successful
// commits and the error count (the failover phase); otherwise the first
// error aborts the phase.
func replRunWriters(c *cluster.Cluster, o Options, d time.Duration, hist *metrics.Histogram, blip *replBlipTracker) (int64, int64, error) {
	ctx := context.Background()
	var commits, errs atomic.Int64
	var firstErr atomic.Value
	stopAt := time.Now().Add(d)
	var wg sync.WaitGroup
	for th := 0; th < o.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			cl, err := c.NewClient(fmt.Sprintf("repl-writer-%d", th))
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			defer cl.Stop()
			// CommitWait: the ack point is the write-set applied at the
			// region copies — with RF>1 that includes the quorum round,
			// which is exactly the price under measurement.
			commitOnce := func(i int) error {
				txn, err := cl.BeginTxn(cluster.TxnOptions{})
				if err != nil {
					return err
				}
				row := kv.Key(fmt.Sprintf("w%02d-%05d", th, i%2000))
				if err := txn.Put(ctx, replBenchTable, row, "f", []byte(fmt.Sprintf("v%d.%d", th, i))); err != nil {
					txn.Abort()
					return err
				}
				_, err = txn.CommitWait(ctx)
				return err
			}
			for i := 0; time.Now().Before(stopAt); i++ {
				t0 := time.Now()
				if err := commitOnce(i); err != nil {
					if blip == nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					errs.Add(1)
					continue
				}
				hist.Record(time.Since(t0))
				commits.Add(1)
				if blip != nil {
					blip.success(time.Now())
				}
				if rest := replWriterInterval - time.Since(t0); rest > 0 {
					time.Sleep(rest)
				}
			}
		}(th)
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return commits.Load(), errs.Load(), e.(error)
	}
	return commits.Load(), errs.Load(), nil
}

// replBlipTracker tracks the largest gap between successful commits across
// all writers — the client-visible unavailability window.
type replBlipTracker struct {
	mu   sync.Mutex
	last time.Time
	max  time.Duration
}

func (b *replBlipTracker) success(now time.Time) {
	b.mu.Lock()
	if !b.last.IsZero() {
		if gap := now.Sub(b.last); gap > b.max {
			b.max = gap
		}
	}
	if now.After(b.last) {
		b.last = now
	}
	b.mu.Unlock()
}

// replScanPhase loads rows at RF=3, then measures snapshot-scan throughput
// with follower reads on or off (the primary-only control).
func replScanPhase(o Options, follower bool) (ReplicationPhaseResult, error) {
	pr := ReplicationPhaseResult{Phase: "scan_primary"}
	if follower {
		pr.Phase = "scan_follower"
	}
	c, err := cluster.New(cluster.Config{Servers: 3, ReplicationFactor: 3, FollowerReads: follower})
	if err != nil {
		return pr, err
	}
	defer c.Stop()
	if err := c.CreateTable(replBenchTable, nil); err != nil {
		return pr, err
	}
	ctx := context.Background()

	loader, err := c.NewClient("repl-scan-loader")
	if err != nil {
		return pr, err
	}
	rows := o.Records / 4
	if rows > 5000 {
		rows = 5000
	}
	if rows < 500 {
		rows = 500
	}
	val := make([]byte, 100)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	var cts kv.Timestamp
	for lo := 0; lo < rows; lo += 250 {
		hi := lo + 250
		if hi > rows {
			hi = rows
		}
		if cts, err = loader.Update(ctx, func(txn *cluster.Txn) error {
			for i := lo; i < hi; i++ {
				if err := txn.Put(ctx, replBenchTable, kv.Key(fmt.Sprintf("r%08d", i)), "f", val); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return pr, err
		}
	}
	loader.Stop()
	// Follower admission needs the replicated frontier past the snapshot:
	// wait out the flush so the scan loop measures steady state, not
	// catch-up.
	if err := c.WaitFlushed(cts, 10*time.Second); err != nil {
		return pr, err
	}

	var scanned, scans atomic.Int64
	var firstErr atomic.Value
	stopAt := time.Now().Add(o.Duration)
	var wg sync.WaitGroup
	for th := 0; th < o.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			cl, err := c.NewClient(fmt.Sprintf("repl-scanner-%d", th))
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			defer cl.Stop()
			for time.Now().Before(stopAt) {
				err := cl.View(ctx, func(txn *cluster.Txn) error {
					sc := txn.Scan(ctx, replBenchTable, kv.KeyRange{}, cluster.ScanOptions{Batch: 256})
					n := 0
					for sc.Next() {
						n++
					}
					sc.Close()
					if err := sc.Err(); err != nil {
						return err
					}
					scanned.Add(int64(n))
					scans.Add(1)
					return nil
				})
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return pr, e.(error)
	}
	pr.RowsPerSec = float64(scanned.Load()) / o.Duration.Seconds()
	pr.ScansPerSec = float64(scans.Load()) / o.Duration.Seconds()
	pr.FollowerReads = c.Obs().Snapshot().Counters["replica.follower_reads"]
	return pr, nil
}

// replFailoverPhase crashes the primary-heaviest server mid-run while paced
// writers keep committing at RF=3; the phase reports throughput, the p99
// including the blip, the largest client-visible commit gap, and the
// master's promotion window.
func replFailoverPhase(o Options) (ReplicationPhaseResult, error) {
	pr := ReplicationPhaseResult{Phase: "failover"}
	c, err := cluster.New(cluster.Config{
		Servers:                4, // one spare: quorum survives the crash with headroom
		ReplicationFactor:      3,
		HeartbeatInterval:      100 * time.Millisecond,
		MasterHeartbeatTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		return pr, err
	}
	defer c.Stop()
	if err := c.CreateTable(replBenchTable, nil); err != nil {
		return pr, err
	}

	// Crash the server leading the most regions at half time: detection
	// runs on the heartbeat timeout, so the blip includes it.
	crashDone := make(chan error, 1)
	go func() {
		time.Sleep(o.Duration / 2)
		counts := map[string]int{}
		for _, row := range c.ReplicaDebugRows() {
			if row.Role == "primary" && row.Online {
				counts[row.Server]++
			}
		}
		victim, best := "", 0
		for id, n := range counts {
			if n > best {
				victim, best = id, n
			}
		}
		if victim == "" {
			crashDone <- fmt.Errorf("no primary to crash")
			return
		}
		crashDone <- c.CrashServer(victim)
	}()

	hist := &metrics.Histogram{}
	blip := &replBlipTracker{}
	commits, errs, err := replRunWriters(c, o, o.Duration, hist, blip)
	if err != nil {
		return pr, err
	}
	if cerr := <-crashDone; cerr != nil {
		return pr, fmt.Errorf("replication failover: crash: %w", cerr)
	}
	if commits == 0 {
		return pr, fmt.Errorf("replication failover completed no commits")
	}
	snap := c.Obs().Snapshot()
	if snap.Counters["replica.failovers"] == 0 {
		return pr, fmt.Errorf("replication failover: master recorded no failover")
	}
	pr.CommitsPerSec = float64(commits) / o.Duration.Seconds()
	pr.CommitP50Micros = float64(hist.Quantile(0.50)) / 1e3
	pr.CommitP99Micros = float64(hist.Quantile(0.99)) / 1e3
	pr.BlipMS = float64(blip.max.Microseconds()) / 1e3
	pr.FailoverWindowMS = float64(snap.Gauges["replica.failover_last_ms"])
	pr.CommitErrors = errs
	return pr, nil
}

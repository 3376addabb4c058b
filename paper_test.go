// The paper's evaluation (§4) as shape tests: one TestPaper* per claim.
// Each runs the §4.1 workload on a small cluster with the paper's latency
// ratios, logs what it measured, and asserts the figure's shape. The band
// next to each assertion was derived from 20 runs (paperSeed 1-10, twice),
// each alongside the rest of `go test ./...` on a 2-core machine; the
// observed min/max is recorded with it and in EXPERIMENTS.md.
package txkv_test

import (
	"sync"
	"testing"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/txlog"
	"txkv/internal/ycsb"
)

// paperSeed seeds every workload run of the claim tests.
const paperSeed = 1

// benchCluster boots a two-server cluster whose simulated latencies keep
// the paper's testbed ratios (LAN hop ≪ log fsync < DFS pipeline sync) and
// loads the §4.1 workload table, one region per server. mod adjusts the
// configuration before the cluster starts.
func benchCluster(t testing.TB, mod func(*cluster.Config)) (*cluster.Cluster, ycsb.Workload) {
	t.Helper()
	cfg := cluster.Config{
		Servers:                2,
		Replication:            2,
		RPCLatency:             50 * time.Microsecond,
		LogSyncLatency:         500 * time.Microsecond,
		DFSSyncLatency:         1500 * time.Microsecond,
		DFSReadLatency:         150 * time.Microsecond,
		HeartbeatInterval:      time.Second,
		MasterHeartbeatTimeout: time.Second,
		WALSyncInterval:        20 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	w := ycsb.Workload{Table: "usertable", RecordCount: 2000, OpsPerTxn: 10, ReadRatio: 0.5, ValueSize: 100}
	if err := ycsb.Load(c, w, 2, 500, 4); err != nil {
		t.Fatal(err)
	}
	return c, w
}

// Figure 2(a): asynchronous persistence takes the region servers' WAL sync
// off the commit path, so at the same offered load its response time is
// lower, and unthrottled it commits more.
func TestPaperFig2aAsyncBeatsSync(t *testing.T) {
	asyncCluster, w := benchCluster(t, nil)
	syncCluster, _ := benchCluster(t, func(cfg *cluster.Config) { cfg.SyncPersistence = true })
	var rtMs, tps [2]float64 // [async, sync], summed over the rounds
	// Short runs alternate between the modes, so a load change on the
	// machine hits both alike.
	for round := int64(0); round < 2; round++ {
		for i, c := range []*cluster.Cluster{asyncCluster, syncCluster} {
			paced, err := ycsb.Run(c, w, ycsb.RunnerConfig{Threads: 10, Duration: 500 * time.Millisecond, TargetTPS: 100, Seed: paperSeed + 2*round})
			if err != nil {
				t.Fatal(err)
			}
			open, err := ycsb.Run(c, w, ycsb.RunnerConfig{Threads: 50, Duration: 500 * time.Millisecond, Seed: paperSeed + 2*round + 1})
			if err != nil {
				t.Fatal(err)
			}
			rtMs[i] += paced.Latency.Mean().Seconds() * 1000
			tps[i] += open.Throughput()
		}
	}
	rtRatio, tpsRatio := rtMs[1]/rtMs[0], tps[0]/tps[1]
	t.Logf("paced at 100 tps: mean response time async %.2f ms, sync %.2f ms (sync/async %.2fx)", rtMs[0]/2, rtMs[1]/2, rtRatio)
	t.Logf("unthrottled, 50 threads: async %.0f tps, sync %.0f tps (async/sync %.2fx)", tps[0]/2, tps[1]/2, tpsRatio)
	// Band: both ratios > 1.2 (observed over 20 runs: sync/async
	// response time 1.58-2.05x, async/sync throughput 1.65-1.97x).
	if rtRatio < 1.2 {
		t.Errorf("sync/async response time %.2fx at the same paced load, want > 1.2x", rtRatio)
	}
	if tpsRatio < 1.2 {
		t.Errorf("async/sync unthrottled throughput %.2fx, want > 1.2x", tpsRatio)
	}
}

// Figure 2(b): the recovery middleware's tracking — client trackers,
// heartbeats, the recovery manager's threshold polls — costs little once
// the heartbeat interval is at least 250 ms.
func TestPaperFig2bTrackingOverhead(t *testing.T) {
	base, w := benchCluster(t, func(cfg *cluster.Config) { cfg.DisableRecovery = true })
	tracked, _ := benchCluster(t, func(cfg *cluster.Config) { cfg.HeartbeatInterval = 250 * time.Millisecond })
	var committed [2]int64 // [no tracking, tracking]
	var elapsed [2]time.Duration
	for round := int64(0); round < 4; round++ {
		for i, c := range []*cluster.Cluster{base, tracked} {
			res, err := ycsb.Run(c, w, ycsb.RunnerConfig{Threads: 50, Duration: 400 * time.Millisecond, Seed: paperSeed + round})
			if err != nil {
				t.Fatal(err)
			}
			committed[i] += res.Committed
			elapsed[i] += res.Elapsed
		}
	}
	baseTPS := float64(committed[0]) / elapsed[0].Seconds()
	trackedTPS := float64(committed[1]) / elapsed[1].Seconds()
	ratio := trackedTPS / baseTPS
	t.Logf("unthrottled, 50 threads: no tracking %.0f tps, tracking at 250 ms heartbeats %.0f tps (ratio %.3f)", baseTPS, trackedTPS, ratio)
	// Band: 0.8-1.25 (observed over 20 runs: 0.957-1.061).
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("throughput with tracking is %.3f of the DisableRecovery baseline, want within 0.8-1.25", ratio)
	}
}

// Figure 3: a region-server crash stalls throughput at about zero until
// the master's heartbeat timeout declares the server dead; recovery then
// brings it back to the pre-crash level.
func TestPaperFig3CrashStallAndRecovery(t *testing.T) {
	const (
		timeout  = 500 * time.Millisecond
		interval = 100 * time.Millisecond
		target   = 200
	)
	c, w := benchCluster(t, func(cfg *cluster.Config) { cfg.MasterHeartbeatTimeout = timeout })
	var (
		res    ycsb.Result
		runErr error
		done   = make(chan struct{})
	)
	go func() {
		defer close(done)
		res, runErr = ycsb.Run(c, w, ycsb.RunnerConfig{Threads: 20, Duration: 3 * time.Second, TargetTPS: target, SeriesInterval: interval, Seed: paperSeed})
	}()
	time.Sleep(time.Second)
	crashed := time.Now()
	if err := c.CrashServer(c.ServerIDs()[1]); err != nil {
		t.Fatal(err)
	}
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	crashAt := crashed.Sub(res.Series.Start())
	var before, after []float64
	stallEnd, floor := time.Duration(-1), float64(target)
	for _, p := range res.Series.Points() {
		switch {
		case p.Offset+interval <= crashAt:
			before = append(before, p.Throughput)
		case p.Offset < crashAt:
			// The interval the crash falls in: partly before, partly after.
		case stallEnd < 0 && p.Throughput < target/2:
			floor = min(floor, p.Throughput)
		case stallEnd < 0:
			stallEnd = p.Offset
		case p.Offset >= 2*time.Second:
			after = append(after, p.Throughput)
		}
	}
	mean := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(max(len(xs), 1))
	}
	stall := stallEnd - crashAt
	t.Logf("crash at %v: %.0f tps before, floor %.0f tps, stall %v (timeout %v), %.0f tps in the last second",
		crashAt.Round(time.Millisecond), mean(before), floor, stall.Round(time.Millisecond), timeout, mean(after))
	// Band, observed over 20 runs: before and after >= 0.6 x target
	// (observed 175-185 and 177-344 tps; the last second holds the
	// catch-up burst when recovery ends late); floor <= 0.1 x target
	// (observed 0); stall between timeout/2 and timeout+1s (observed
	// 0.80-1.00 s).
	if mean(before) < 0.6*target || mean(after) < 0.6*target {
		t.Errorf("throughput %.0f tps before the crash and %.0f tps after recovery, want both >= %.0f", mean(before), mean(after), 0.6*target)
	}
	if floor > 0.1*target {
		t.Errorf("throughput fell only to %.0f tps after the crash, want near zero (<= %.0f)", floor, 0.1*target)
	}
	if stallEnd < 0 || stall < timeout/2 || stall > timeout+time.Second {
		t.Errorf("stall %v after the crash, want about the %v detection timeout (%v-%v)", stall, timeout, timeout/2, timeout+time.Second)
	}
}

// failureRecorder captures, when the master reports a server failure, the
// write-sets the recovery manager must replay: those committed after the
// failed server's frozen T_P(s) that touch one of its regions. The log
// cannot be truncated past that T_P(s) before the report.
type failureRecorder struct {
	log    *txlog.Log
	mu     sync.Mutex
	tp     kv.Timestamp
	atRisk []kv.Timestamp // one entry per (write-set, region) pair, as replay counts them
	err    error
}

func (f *failureRecorder) OnServerFailure(_ string, tp kv.Timestamp, regions []kvstore.RegionInfo) {
	records, err := f.log.After(tp)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tp, f.err = tp, err
	for _, ws := range records {
		for _, r := range regions {
			for _, u := range ws.Updates {
				if u.Table == r.Table && r.Range.Contains(u.Row) {
					f.atRisk = append(f.atRisk, ws.CommitTS)
					break
				}
			}
		}
	}
}

// §3.1-3.2: a server failure replays exactly the at-risk write-sets, those
// committed after the failed server's persisted threshold T_P(s) and no
// later than the last commit before the crash, and that window grows with
// the heartbeat interval that drives T_P(s) forward.
func TestPaperReplayBound(t *testing.T) {
	var replayed [2]int
	for i, hb := range []time.Duration{100 * time.Millisecond, time.Second} {
		c, w := benchCluster(t, func(cfg *cluster.Config) {
			cfg.HeartbeatInterval = hb
			cfg.MasterHeartbeatTimeout = 300 * time.Millisecond
			// The log keeps every record, so a replay that starts
			// anywhere but T_P(s) shows. Truncated, the log starts at
			// the global T_P, often the failed server's own T_P(s).
			cfg.DisableTruncation = true
		})
		rec := &failureRecorder{log: c.Log()}
		c.Master().AddFailureListener(rec)
		// Paced, so both intervals see the same commit rate; the load stops
		// at the crash, so "the last commit before the crash" is the log's
		// newest record.
		if _, err := ycsb.Run(c, w, ycsb.RunnerConfig{Threads: 10, Duration: 2 * time.Second, TargetTPS: 200, Seed: paperSeed}); err != nil {
			t.Fatal(err)
		}
		last := c.Log().LastTS()
		failed := c.ServerIDs()[1]
		if err := c.CrashServer(failed); err != nil {
			t.Fatal(err)
		}
		// The master counts a failover once every region is back online.
		deadline := time.Now().Add(5 * time.Second)
		for c.Master().FailoverStats().Failovers == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("heartbeat %v: region recovery did not finish", hb)
			}
			time.Sleep(5 * time.Millisecond)
		}
		for _, ev := range c.RecoveryManager().Events() {
			if ev.Kind == "region" && ev.FailedServer == failed {
				replayed[i] += ev.WriteSetsReplayed
			}
		}
		rec.mu.Lock()
		tp, atRisk, err := rec.tp, rec.atRisk, rec.err
		rec.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("heartbeat %v: T_P(s) %d, last commit %d, %d at risk, %d replayed", hb, tp, last, len(atRisk), replayed[i])
		for _, ts := range atRisk {
			if ts <= tp || ts > last {
				t.Errorf("heartbeat %v: at-risk write-set %d outside (T_P(s) %d, last commit %d]", hb, ts, tp, last)
			}
		}
		// Band: exact (equal in all 40 crashes of 20 runs). The recovery
		// manager replays a suffix of each region's commits, so equal
		// counts mean equal sets.
		if replayed[i] != len(atRisk) || len(atRisk) == 0 {
			t.Errorf("heartbeat %v: replayed %d write-sets, want the %d (> 0) committed in (T_P(s) %d, %d]", hb, replayed[i], len(atRisk), tp, last)
		}
	}
	// Band: > 2x (observed over 20 runs: 3.9-7.9x).
	if replayed[1] <= 2*replayed[0] {
		t.Errorf("replay at 1s heartbeats (%d) is not > 2x replay at 100ms (%d)", replayed[1], replayed[0])
	}
}

// §3.2: truncating the log at the global T_P keeps it to a window of
// recent commits; without truncation it holds every commit.
func TestPaperLogTruncation(t *testing.T) {
	for _, truncate := range []bool{true, false} {
		c, w := benchCluster(t, func(cfg *cluster.Config) {
			cfg.HeartbeatInterval = 100 * time.Millisecond
			cfg.DisableTruncation = !truncate
		})
		// After a warm-up step, compare how much the retained log grows
		// with how much was appended.
		var first, final txlog.Stats
		for step := int64(0); step < 4; step++ {
			if _, err := ycsb.Run(c, w, ycsb.RunnerConfig{Threads: 20, Duration: 500 * time.Millisecond, Seed: paperSeed + step}); err != nil {
				t.Fatal(err)
			}
			final = c.Log().Stats()
			if step == 0 {
				first = final
			}
		}
		appended := final.TotalAppends - first.TotalAppends
		grew := int64(final.DurableRecords - first.DurableRecords)
		slope := float64(grew) / float64(appended)
		t.Logf("truncation %v: %d appended, retained %d -> %d (slope %.3f), %d truncated", truncate, appended, first.DurableRecords, final.DurableRecords, slope, final.TruncatedRecords)
		// Band, observed over 20 runs: with truncation, slope < 0.5 and
		// retained < half of all appends (observed slope -0.126 to
		// 0.063); without, the log holds every append (slope 1.000).
		if truncate && (slope >= 0.5 || 2*int64(final.DurableRecords) >= final.TotalAppends) {
			t.Errorf("with truncation the log grew by %d records over %d appends and retains %d of %d: it does not level off", grew, appended, final.DurableRecords, final.TotalAppends)
		}
		if !truncate && (grew != appended || int64(final.DurableRecords) != final.TotalAppends) {
			t.Errorf("without truncation the log retains %d of %d appends", final.DurableRecords, final.TotalAppends)
		}
	}
}

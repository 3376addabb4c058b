package bench

import (
	"context"
	"fmt"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/ycsb"
)

// Fig3FailureTimeline reproduces Figure 3(a)/(b): per-second throughput and
// response time over wall-clock time with a region-server failure induced
// mid-run (paper: 50 threads, ~250 tps target near single-server capacity,
// heartbeat interval 1 s, two region servers; the crash causes a sharp
// throughput drop and response-time spike, the actual recovery takes only
// seconds, and performance returns to pre-failure levels as the survivor's
// block cache warms to the recovered regions).
func Fig3FailureTimeline(o Options) error {
	o = o.withDefaults()
	// The timeline needs some breathing room: thirds = before / around /
	// after the failure.
	total := 3 * o.Duration
	if total < 9*time.Second {
		total = 9 * time.Second
	}
	crashAt := total / 3

	cfg := paperRatioConfig(2, false, time.Second)
	// Give the survivor a cache small enough that it cannot already hold
	// the whole dataset: the post-failure warm-up becomes visible.
	cfg.BlockCacheBytes = 8 << 20
	cfg.MemstoreFlushBytes = 1 << 20

	c, w, err := setup(o, cfg)
	if err != nil {
		return err
	}
	defer c.Stop()
	// Flush memstores so reads touch store files (and hence the caches).
	for _, id := range c.ServerIDs() {
		if srv, ok := c.Server(id); ok {
			_ = srv.FlushAll()
		}
	}
	if err := warmup(c, w, o); err != nil {
		return err
	}

	fprintf(o.Out, "# Figure 3: server failure at t=%v of %v (target 250 tps, %d threads, HB=1s)\n",
		crashAt.Round(time.Second), total.Round(time.Second), o.Threads)

	type result struct {
		res ycsb.Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := ycsb.Run(c, w, ycsb.RunnerConfig{
			Threads:        o.Threads,
			Duration:       total,
			TargetTPS:      250,
			SeriesInterval: time.Second,
			Seed:           o.Seed,
		})
		done <- result{res, err}
	}()

	time.Sleep(crashAt)
	victim := c.ServerIDs()[1]
	if err := c.CrashServer(victim); err != nil {
		return err
	}

	r := <-done
	if r.err != nil {
		return r.err
	}
	fprintf(o.Out, "%-8s %-10s %-12s\n", "t_sec", "tps", "rt_ms")
	for _, p := range r.res.Series.Points() {
		fprintf(o.Out, "%-8.0f %-10.1f %-12.3f\n",
			p.Offset.Seconds(), p.Throughput, float64(p.MeanLat.Microseconds())/1000.0)
	}

	rm := c.RecoveryManager()
	var recoveryTook time.Duration
	replayed := 0
	for _, ev := range rm.Events() {
		if ev.Kind == "region" {
			if ev.Duration > recoveryTook {
				recoveryTook = ev.Duration
			}
			replayed += ev.WriteSetsReplayed
		}
	}
	fprintf(o.Out, "# crash injected at t=%.0fs (%s); region recovery replayed %d write-sets in %v\n",
		crashAt.Seconds(), victim, replayed, recoveryTook.Round(time.Millisecond))
	fprintf(o.Out, "# expectation (paper): sharp throughput drop + rt spike at the crash;\n")
	fprintf(o.Out, "# recovery itself takes seconds; full performance returns as caches warm.\n")
	return nil
}

// ReplayBound quantifies the §3.1/§3.2 claim that the number of write-sets
// replayed on a failure is bounded by throughput x heartbeat interval: with
// a fixed offered load, a longer heartbeat interval leaves a proportionally
// longer unacknowledged window to replay.
func ReplayBound(o Options) error {
	o = o.withDefaults()
	fprintf(o.Out, "# Replay work vs heartbeat interval (claim: replay ~ throughput x interval)\n")
	fprintf(o.Out, "%-12s %-10s %-12s %-16s %-10s\n",
		"interval", "tps", "replayed_ws", "bound(tps*5hb+d)", "within")

	var prevReplayed int
	monotone := true
	for i, hb := range []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second} {
		c, w, err := setup(o, paperRatioConfig(2, false, hb))
		if err != nil {
			return err
		}
		// Each point must reach steady state before the crash: the
		// threshold-propagation chain spans ~5 heartbeat intervals, so
		// the pre-crash phase is at least that long.
		pointDuration := o.Duration
		if min := 2 * (5*hb + time.Second); pointDuration < min {
			pointDuration = min
		}
		// Run load, crash a server mid-run, finish the run.
		type result struct {
			res ycsb.Result
			err error
		}
		done := make(chan result, 1)
		go func() {
			res, err := ycsb.Run(c, w, ycsb.RunnerConfig{
				Threads:  o.Threads,
				Duration: pointDuration,
				Seed:     o.Seed + int64(i),
			})
			done <- result{res, err}
		}()
		time.Sleep(pointDuration / 2)
		_ = c.CrashServer(c.ServerIDs()[1])
		r := <-done
		if r.err != nil {
			c.Stop()
			return r.err
		}
		// Wait for the recovery to complete and count replays.
		rm := c.RecoveryManager()
		deadline := time.Now().Add(30 * time.Second)
		for rm.StatsSnapshot().RegionsRecovered == 0 && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		replayed := 0
		for _, ev := range rm.Events() {
			if ev.Kind == "region" {
				replayed += ev.WriteSetsReplayed
			}
		}
		tps := r.res.Throughput()
		// T_P(s) lags the commit stream by the full propagation chain:
		// client heartbeat (T_F(c) advance) -> RM poll (global T_F) ->
		// server master heartbeat (learn T_F) -> WAL sync -> server
		// master heartbeat (report T_P) -> RM poll. The server hops run
		// on the master heartbeat cadence, not the interval, so that is
		// <= ~5 heartbeat intervals plus fixed slack; the paper states
		// the looser claim "bound by the client's throughput and
		// heartbeat interval".
		slack := 3 * time.Second
		bound := tps * (5*hb.Seconds() + slack.Seconds())
		within := "yes"
		if float64(replayed) > bound {
			within = "NO"
		}
		fprintf(o.Out, "%-12s %-10.1f %-12d %-16.1f %-10s\n", hb, tps, replayed, bound, within)
		if replayed < prevReplayed {
			monotone = false
		}
		prevReplayed = replayed
		c.Stop()
	}
	fprintf(o.Out, "# replay grows monotonically with the interval: %v\n", monotone)
	fprintf(o.Out, "# expectation (paper §3.1): replay work scales with throughput x interval,\n")
	fprintf(o.Out, "# i.e. longer heartbeat intervals replay proportionally more write-sets.\n")
	return nil
}

// LogTruncation quantifies §3.2's global checkpoint: with truncation at
// T_P the TM log stays bounded under steady load; without it the log grows
// linearly with committed transactions.
func LogTruncation(o Options) error {
	o = o.withDefaults()
	fprintf(o.Out, "# TM log growth with and without truncation at T_P\n")
	fprintf(o.Out, "%-14s %-12s %-14s %-12s %-12s\n",
		"mode", "committed", "log_records", "log_bytes", "truncated")

	for _, disable := range []bool{false, true} {
		cfg := paperRatioConfig(2, false, 250*time.Millisecond)
		cfg.DisableTruncation = disable
		c, w, err := setup(o, cfg)
		if err != nil {
			return err
		}
		res, err := ycsb.Run(c, w, ycsb.RunnerConfig{
			Threads:  o.Threads,
			Duration: o.Duration,
			Seed:     o.Seed,
		})
		if err != nil {
			c.Stop()
			return err
		}
		// Let the thresholds catch up one more beat.
		time.Sleep(2 * cfg.HeartbeatInterval)
		s := c.Log().Stats()
		mode := "truncating"
		if disable {
			mode = "unbounded"
		}
		fprintf(o.Out, "%-14s %-12d %-14d %-12d %-12d\n",
			mode, res.Committed, s.DurableRecords, s.DurableBytes, s.TruncatedRecords)
		c.Stop()
	}
	fprintf(o.Out, "# expectation (paper §3.2): with truncation the retained log is a small\n")
	fprintf(o.Out, "# recent window; without it, it holds every committed write-set.\n")
	return nil
}

// ClientFailure exercises §3.1 end to end under load: a client with
// committed-but-unflushed transactions dies; the recovery manager replays
// exactly the unacknowledged suffix and no committed data is lost.
func ClientFailure(o Options) error {
	o = o.withDefaults()
	cfg := paperRatioConfig(2, false, 500*time.Millisecond)
	c, w, err := setup(o, cfg)
	if err != nil {
		return err
	}
	defer c.Stop()

	victim, err := c.NewClient("victim")
	if err != nil {
		return err
	}
	// Commit a burst, then partition the victim so the tail can't flush,
	// commit a few more, and crash.
	ctx := context.Background()
	committed := 0
	for i := 0; i < 50; i++ {
		txn, err := victim.BeginTxn(cluster.TxnOptions{})
		if err != nil {
			return err
		}
		_ = txn.Put(ctx, w.Table, ycsb.RowKey(uint64(i)), "field0", []byte(fmt.Sprintf("pre-%d", i)))
		if _, err := txn.CommitWait(ctx); err == nil {
			committed++
		}
	}
	c.Network().SetPartition("victim", 7)
	unflushed := 0
	for i := 50; i < 60; i++ {
		txn, err := victim.BeginTxn(cluster.TxnOptions{Mode: cluster.SnapshotFrontier})
		if err != nil {
			return err
		}
		_ = txn.Put(ctx, w.Table, ycsb.RowKey(uint64(i)), "field0", []byte(fmt.Sprintf("orphan-%d", i)))
		if _, err := txn.Commit(ctx); err == nil {
			unflushed++
		}
	}
	start := time.Now()
	victim.Crash()

	rm := c.RecoveryManager()
	deadline := time.Now().Add(60 * time.Second)
	for rm.StatsSnapshot().ClientsRecovered == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("client recovery never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	detectAndRecover := time.Since(start)

	// Verify all orphan commits are readable.
	reader, err := c.NewClient("verifier")
	if err != nil {
		return err
	}
	recovered := 0
	for i := 50; i < 60; i++ {
		var (
			v  []byte
			ok bool
		)
		verr := reader.View(ctx, func(txn *cluster.Txn) error {
			var err error
			v, ok, err = txn.Get(ctx, w.Table, ycsb.RowKey(uint64(i)), "field0")
			return err
		})
		if verr == nil && ok && string(v) == fmt.Sprintf("orphan-%d", i) {
			recovered++
		}
	}
	var replayedWS int
	for _, ev := range rm.Events() {
		if ev.Kind == "client" {
			replayedWS += ev.WriteSetsReplayed
		}
	}
	fprintf(o.Out, "# Client-failure recovery (§3.1)\n")
	fprintf(o.Out, "%-24s %v\n", "committed_pre_partition", committed)
	fprintf(o.Out, "%-24s %v\n", "committed_unflushed", unflushed)
	fprintf(o.Out, "%-24s %v\n", "write_sets_replayed", replayedWS)
	fprintf(o.Out, "%-24s %v\n", "orphans_recovered", recovered)
	fprintf(o.Out, "%-24s %v\n", "detect+recover", detectAndRecover.Round(time.Millisecond))
	if recovered != unflushed {
		return fmt.Errorf("lost commits: recovered %d of %d", recovered, unflushed)
	}
	fprintf(o.Out, "# expectation (paper): every committed txn survives its client; replay\n")
	fprintf(o.Out, "# covers at least the unflushed suffix (conservative threshold).\n")
	return nil
}

// RMFailover exercises §3.3: the recovery manager dies under load,
// processing continues, a restarted manager catches up from the
// coordination service, and a subsequent server failure still recovers.
func RMFailover(o Options) error {
	o = o.withDefaults()
	cfg := paperRatioConfig(2, false, 250*time.Millisecond)
	c, w, err := setup(o, cfg)
	if err != nil {
		return err
	}
	defer c.Stop()

	res1, err := ycsb.Run(c, w, ycsb.RunnerConfig{Threads: o.Threads, Duration: o.Duration / 2, Seed: o.Seed})
	if err != nil {
		return err
	}
	tfBefore := c.RecoveryManager().TF()
	c.CrashRecoveryManager()

	// Processing continues while the RM is down.
	res2, err := ycsb.Run(c, w, ycsb.RunnerConfig{Threads: o.Threads, Duration: o.Duration / 2, Seed: o.Seed + 1})
	if err != nil {
		return err
	}
	c.RestartRecoveryManager()
	rm := c.RecoveryManager()
	tfRestored := rm.TF()

	// A server failure after fail-over still recovers.
	_ = c.CrashServer(c.ServerIDs()[0])
	deadline := time.Now().Add(60 * time.Second)
	for rm.StatsSnapshot().RegionsRecovered == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("post-failover recovery never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	fprintf(o.Out, "# Recovery-manager fail-over (§3.3)\n")
	fprintf(o.Out, "%-28s %.1f tps\n", "throughput_with_rm", res1.Throughput())
	fprintf(o.Out, "%-28s %.1f tps\n", "throughput_rm_down", res2.Throughput())
	fprintf(o.Out, "%-28s %d\n", "tf_before_crash", uint64(tfBefore))
	fprintf(o.Out, "%-28s %d\n", "tf_after_restore", uint64(tfRestored))
	fprintf(o.Out, "%-28s %d\n", "regions_recovered_after", rm.StatsSnapshot().RegionsRecovered)
	if tfRestored < tfBefore {
		return fmt.Errorf("checkpoint lost: TF %d -> %d", tfBefore, tfRestored)
	}
	fprintf(o.Out, "# expectation (paper): processing continues while the RM is down; the\n")
	fprintf(o.Out, "# restarted RM resumes from its ZooKeeper state and still recovers failures.\n")
	return nil
}

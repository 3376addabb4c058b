// Command txkvchaos runs a randomized fault-injection campaign against a
// full cluster and verifies the paper's headline guarantee at the end: no
// acknowledged commit is ever lost. Concurrent clients stream transactions
// while servers crash on a schedule, clients die mid-flush, and the
// recovery manager itself is bounced; afterwards every acknowledged write
// is audited against a strict snapshot.
//
// With -datadir the cluster journals durable state to real files, and after
// the campaign the whole cluster is stopped and reopened from that
// directory before the audit — so the audit additionally proves real
// crash-restart recovery, not just in-process fail-over.
//
// With -remote the campaign runs in multi-process shape instead: a
// master-only cluster serves the wire protocol, region-server nodes join
// over TCP behind per-node fault proxies, and the faults become network
// faults — partitions, blackholes, slow links, and process kills against
// real sockets (see remote.go).
//
// Usage:
//
//	txkvchaos -duration 20s -servers 3 -clients 4 -seed 7
//	txkvchaos -duration 20s -datadir /tmp/txkv-chaos
//	txkvchaos -duration 20s -remote
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	"txkv"
	"txkv/internal/obs"
)

// dumpSlow prints the slow-op ring as JSON — the post-mortem trail when the
// campaign fails.
func dumpSlow(c *txkv.Cluster) {
	ops := c.Tracer().SlowOps()
	data, err := json.MarshalIndent(ops, "", "  ")
	if err != nil {
		return
	}
	fmt.Printf("slow-op ring (%d entries):\n%s\n", len(ops), data)
}

func main() {
	log.SetFlags(0)
	var (
		duration = flag.Duration("duration", 15*time.Second, "campaign duration")
		servers  = flag.Int("servers", 3, "initial region servers (>= 2)")
		clients  = flag.Int("clients", 4, "concurrent transactional clients")
		keys     = flag.Int("keys", 500, "key-space size")
		seed     = flag.Int64("seed", 1, "fault-schedule seed")
		dataDir  = flag.String("datadir", "", "journal durable state here and audit across a full stop+reopen")
		compact  = flag.Duration("compact", time.Second, "storage-janitor cadence (WAL rolls, store-file + DFS log compaction) racing the faults; 0 disables")
		remote   = flag.Bool("remote", false, "multi-process campaign: region servers join over the wire protocol behind fault proxies (partition/blackhole/slow-link/kill)")
		repl     = flag.Int("replication", 1, "region replication factor (copies per region, primary included); >1 turns crashes into kill-the-primary failover chaos with follower reads on")
	)
	flag.Parse()
	if *remote {
		runRemote(*duration, *servers, *clients, *keys, *seed, *repl)
		return
	}
	if *servers < 2 {
		log.Fatal("need at least 2 servers to survive crashes")
	}

	cfg := txkv.Config{
		Servers:                *servers,
		HeartbeatInterval:      200 * time.Millisecond,
		MasterHeartbeatTimeout: 500 * time.Millisecond,
		WALSyncInterval:        0, // the servers' default 50ms async sync: a crash loses the unsynced tail
		// The storage janitor races the fault schedule: WAL rolls,
		// store-file compactions, and DFS log compactions run while
		// servers crash around them, so the campaign (and the reopen
		// audit below) exercises interrupted reclamation, not just
		// interrupted commits.
		CompactionInterval:  *compact,
		CompactionThreshold: 4,
		// Trace the campaign: the slow-op ring is dumped on failure, and
		// the registry snapshot is invariant-checked after every fault.
		Tracing: true,
		// With -replication, every region gets repl copies and the fault
		// injector aims crashes at current primaries: each kill must end
		// in a follower promotion, not a WAL-split replay.
		ReplicationFactor: *repl,
		FollowerReads:     *repl > 1,
	}
	if *dataDir != "" {
		cfg.Persistence = txkv.PersistDisk
		cfg.DataDir = *dataDir
	}
	cluster, err := txkv.Open(cfg)
	if err != nil {
		log.Fatalf("open cluster: %v", err)
	}
	defer func() { cluster.Stop() }()

	splits := []txkv.Key{keyOf(*keys / 3), keyOf(2 * *keys / 3)}
	if err := cluster.CreateTable("chaos", splits); err != nil {
		// A persistent data directory from an earlier campaign restores
		// the table on open; keep writing into it.
		if !errors.Is(err, txkv.ErrTableExists) {
			log.Fatalf("create table: %v", err)
		}
		fmt.Printf("reusing restored table from %s\n", *dataDir)
	}

	// The watch audit rides the campaign: a background watcher follows the
	// chaos table's change stream, periodically handing off to a
	// token-resumed successor, and is reconciled against the acks at the
	// end (see watch.go). It starts at the log's current position so a
	// reused -datadir (whose replayable history was truncated on restore)
	// opens inside the retention horizon.
	const sentinelRow = "watch-sentinel"
	wcl, err := cluster.NewClient("watch-audit")
	if err != nil {
		log.Fatalf("watch client: %v", err)
	}
	watcher := startWatchAuditor(wcl, cluster.Log().LastTS(), sentinelRow)

	type ack struct {
		row, val string
	}
	var (
		mu        sync.Mutex
		acks      = make(map[string][]string) // row -> acknowledged values
		committed int
		conflicts int
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers.
	for ci := 0; ci < *clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed*31 + int64(ci)))
			ctx := context.Background()
			var cl *txkv.Client
			var err error
			newClient := func() {
				cl, err = cluster.NewClient(fmt.Sprintf("chaos-%d-%d", ci, rng.Int63()))
				if err != nil {
					cl = nil
				}
			}
			newClient()
			i := 0
			for {
				select {
				case <-stop:
					if cl != nil {
						cl.Stop()
					}
					return
				default:
				}
				if cl == nil {
					newClient()
					continue
				}
				// Occasionally the client itself "dies" mid-stream.
				if rng.Intn(200) == 0 {
					cl.Crash()
					newClient()
					continue
				}
				var batch []ack
				// No automatic conflict retry: the campaign counts SI
				// conflicts explicitly.
				_, err := cl.UpdateWith(ctx, txkv.TxnOptions{MaxRetries: txkv.NoRetry}, func(txn *txkv.Txn) error {
					batch = batch[:0]
					for j := 0; j < 3; j++ {
						row := string(keyOf(rng.Intn(*keys)))
						val := fmt.Sprintf("c%d.%d", ci, i)
						if err := txn.Put(ctx, "chaos", txkv.Key(row), "f", []byte(val)); err != nil {
							return err
						}
						batch = append(batch, ack{row: row, val: val})
					}
					return nil
				})
				i++
				if err != nil {
					if errors.Is(err, txkv.ErrConflict) {
						mu.Lock()
						conflicts++
						mu.Unlock()
					}
					continue
				}
				mu.Lock()
				committed++
				for _, a := range batch {
					acks[a.row] = append(acks[a.row], a.val)
				}
				mu.Unlock()
			}
		}(ci)
	}

	// Observability invariant check, run after every injected fault: no
	// exported counter may go backwards (instance churn must not reset the
	// cluster totals), no gauge may go negative, and the visibility
	// frontier may never pass the newest issued timestamp.
	var prevSnap obs.Snapshot
	checkObs := func(when string) {
		cur := cluster.Obs().Snapshot()
		bad := obs.CheckInvariants(prevSnap, cur)
		if f, li := cur.Gauges["txmgr.frontier"], cur.Gauges["txmgr.last_issued"]; f > li {
			bad = append(bad, fmt.Sprintf("frontier %d ahead of last issued %d", f, li))
		}
		prevSnap = cur
		if len(bad) > 0 {
			dumpSlow(cluster)
			log.Fatalf("observability invariants violated %s:\n  %v", when, bad)
		}
	}
	checkObs("at campaign start")

	// Fault injector.
	rng := rand.New(rand.NewSource(*seed))
	crashes, rmBounces := 0, 0
	faults := 0
	deadline := time.Now().Add(*duration)
	for time.Now().Before(deadline) {
		time.Sleep(*duration / 6)
		switch rng.Intn(3) {
		case 0, 1:
			// Crash a random server, then add a replacement so capacity
			// stays up.
			ids := cluster.ServerIDs()
			live := ids[:0:0]
			for _, id := range ids {
				if srv, ok := cluster.Server(id); ok && !srv.Crashed() {
					live = append(live, id)
				}
			}
			if len(live) < 2 {
				continue
			}
			victim := live[rng.Intn(len(live))]
			if *repl > 1 {
				// Kill-the-primary: aim at a server actually leading
				// regions, so every crash exercises the promotion path.
				if prim := primaryServers(cluster, live); len(prim) > 0 {
					victim = prim[rng.Intn(len(prim))]
				}
			}
			fmt.Printf("[%s] crashing %s\n", time.Now().Format("15:04:05.000"), victim)
			if err := cluster.CrashServer(victim); err == nil {
				crashes++
				if _, err := cluster.AddServer(); err == nil {
					_, _ = cluster.Rebalance()
				}
			}
		case 2:
			fmt.Printf("[%s] bouncing recovery manager\n", time.Now().Format("15:04:05.000"))
			cluster.CrashRecoveryManager()
			time.Sleep(200 * time.Millisecond)
			cluster.RestartRecoveryManager()
			rmBounces++
		}
		faults++
		checkObs(fmt.Sprintf("after fault %d", faults))
	}
	close(stop)
	wg.Wait()
	checkObs("after campaign")
	if *repl > 1 {
		assertFailover(cluster, crashes)
	}

	// End the watcher's feed at a known point: one sentinel commit after
	// the writers are done, then reconcile delivered events against acks.
	if _, err := wcl.Update(context.Background(), func(txn *txkv.Txn) error {
		return txn.Put(context.Background(), "chaos", txkv.Key(sentinelRow), "f", []byte("done"))
	}); err != nil {
		log.Fatalf("sentinel commit: %v", err)
	}
	if err := watcher.wait(30 * time.Second); err != nil {
		dumpSlow(cluster)
		log.Fatalf("watch audit: %v", err)
	}
	watcher.report()
	mu.Lock()
	watchBad := watcher.audit(acks)
	mu.Unlock()

	fmt.Printf("campaign done: %d committed, %d conflicts, %d server crashes, %d RM bounces (%d obs checks passed)\n",
		committed, conflicts, crashes, rmBounces, faults+2)
	if rc := cluster.Obs().Snapshot().Counters; rc["reclaim.compactions"] > 0 {
		size, _ := cluster.DataDirBytes()
		fmt.Printf("reclamation: %d passes, %d store files retired (%d logical bytes), %d segments dropped (%d physical bytes reclaimed); datadir now %d bytes\n",
			rc["reclaim.compactions"], rc["reclaim.files_retired"], rc["reclaim.bytes_retired"], rc["reclaim.segments_dropped"], rc["reclaim.bytes_reclaimed"], size)
	}

	// With a data directory, the real test: stop the whole process-local
	// cluster and reopen it from disk. The audit below then runs against
	// the restarted incarnation — acknowledged commits must have survived
	// the restart, not just the in-campaign crashes.
	if *dataDir != "" {
		fmt.Printf("[%s] restarting cluster from %s\n", time.Now().Format("15:04:05.000"), *dataDir)
		cluster.Stop()
		cluster, err = txkv.Reopen(cfg)
		if err != nil {
			log.Fatalf("reopen cluster: %v", err)
		}

		// The watcher's final token must survive the restart: resume it
		// against the reopened cluster and receive a post-restart commit.
		rcl, err := cluster.NewClient("watch-restart")
		if err != nil {
			log.Fatalf("watch-restart client: %v", err)
		}
		rws, err := rcl.WatchResume(context.Background(), watcher.finalToken())
		if err != nil {
			log.Fatalf("watch resume across restart: %v", err)
		}
		if _, err := rcl.Update(context.Background(), func(txn *txkv.Txn) error {
			return txn.Put(context.Background(), "chaos", "watch-restart-marker", "f", []byte("post-reopen"))
		}); err != nil {
			log.Fatalf("post-restart marker commit: %v", err)
		}
		rctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		for {
			ev, err := rws.Next(rctx)
			if err != nil {
				log.Fatalf("watch across restart: %v", err)
			}
			if string(ev.Key) == "watch-restart-marker" {
				break
			}
		}
		cancel()
		rws.Close()
		fmt.Printf("watch resume token survived the restart\n")
	}

	// Audit: every acknowledged row must hold one of its acknowledged
	// values (later acks may overwrite earlier ones).
	auditor, err := cluster.NewClient("auditor")
	if err != nil {
		log.Fatalf("auditor: %v", err)
	}
	mu.Lock()
	rows := make(map[string][]string, len(acks))
	for r, vs := range acks {
		rows[r] = vs
	}
	mu.Unlock()

	lost := 0
	auditDeadline := time.Now().Add(60 * time.Second)
	for row, vals := range rows {
		for {
			// A frontier view: non-blocking (a fresh snapshot would wait
			// out in-flight recoveries instead of letting the loop poll).
			var (
				v  []byte
				ok bool
			)
			txn, err := auditor.BeginTxn(txkv.TxnOptions{ReadOnly: true, Mode: txkv.SnapshotFrontier})
			if err == nil {
				v, ok, err = txn.Get(context.Background(), "chaos", txkv.Key(row), "f")
				txn.Abort()
			}
			if err == nil && ok && contains(vals, string(v)) {
				break
			}
			if time.Now().After(auditDeadline) {
				fmt.Printf("LOST: row %s acked %d values, store has %q (ok=%v err=%v)\n",
					row, len(vals), v, ok, err)
				lost++
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	if lost > 0 || watchBad > 0 {
		dumpSlow(cluster)
		if lost > 0 {
			fmt.Printf("AUDIT FAILED: %d rows lost acknowledged commits\n", lost)
		}
		if watchBad > 0 {
			fmt.Printf("WATCH AUDIT FAILED: %d exactly-once violations\n", watchBad)
		}
		os.Exit(1)
	}
	fmt.Printf("AUDIT OK: all %d acknowledged rows intact after %d crashes\n", len(rows), crashes)
	fmt.Printf("WATCH AUDIT OK: every acknowledged write delivered exactly once\n")
}

// primaryServers filters ids down to the servers currently leading at least
// one online region — the kill-the-primary targets.
func primaryServers(c *txkv.Cluster, ids []string) []string {
	hosts := make(map[string]bool)
	for _, row := range c.ReplicaDebugRows() {
		if row.Role == "primary" && row.Online {
			hosts[row.Server] = true
		}
	}
	out := ids[:0:0]
	for _, id := range ids {
		if hosts[id] {
			out = append(out, id)
		}
	}
	return out
}

// assertFailover verifies the replication guarantee after a kill-the-primary
// campaign: at least one master-driven failover completed by follower
// promotion (in-flight ones get a settling window), and the average failover
// window stayed bounded. Fatal on violation.
func assertFailover(c *txkv.Cluster, kills int) {
	if kills == 0 {
		return
	}
	const (
		windowBudget = 5 * time.Second  // per-failover orchestration budget
		settle       = 15 * time.Second // grace for failovers still in flight
	)
	// Poll until the failover counters go quiescent: kills near the end of
	// the campaign may still be inside the detection timeout.
	var snap obs.Snapshot
	deadline := time.Now().Add(settle)
	lastChange := time.Now()
	prev := int64(-1)
	for {
		snap = c.Obs().Snapshot()
		fo := snap.Counters["replica.failovers"]
		if fo != prev {
			prev, lastChange = fo, time.Now()
		}
		if fo > 0 && snap.Counters["replica.failover_promotions"] > 0 &&
			(time.Since(lastChange) > 2*time.Second || fo >= int64(kills)) {
			break
		}
		if time.Now().After(deadline) {
			if fo > 0 && snap.Counters["replica.failover_promotions"] > 0 {
				break
			}
			dumpSlow(c)
			log.Fatalf("no promotion-based failover observed after %d primary kills (failovers=%d promotions=%d splits=%d)",
				kills, snap.Counters["replica.failovers"],
				snap.Counters["replica.failover_promotions"], snap.Counters["replica.failover_splits"])
		}
		time.Sleep(50 * time.Millisecond)
	}
	fo := snap.Counters["replica.failovers"]
	avg := time.Duration(snap.Counters["replica.failover_total_ms"]/fo) * time.Millisecond
	fmt.Printf("replication: %d failovers (%d regions promoted, %d WAL-split replayed), avg failover window %v\n",
		fo, snap.Counters["replica.failover_promotions"], snap.Counters["replica.failover_splits"], avg)
	if avg > windowBudget {
		dumpSlow(c)
		log.Fatalf("avg failover window %v exceeds budget %v", avg, windowBudget)
	}
}

func keyOf(i int) txkv.Key { return txkv.Key(fmt.Sprintf("key%06d", i)) }

func contains(vals []string, v string) bool {
	for _, x := range vals {
		if x == v {
			return true
		}
	}
	return false
}

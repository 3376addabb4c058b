package main

// The -remote campaign: the same no-acknowledged-commit-lost audit, but
// run against the wire protocol in multi-process shape. A master-only
// cluster serves rpc; region-server nodes join over TCP, each behind a
// fault proxy that can partition, blackhole, or slow its link; writer
// clients connect through txkv.Connect and commit through the gateway.
// Faults are network faults against real sockets — killed processes,
// severed and degraded links — rather than the in-process crash injection
// of the default campaign, so what is exercised is the transport error
// mapping, the layout-cache invalidation discipline, the gateway's
// session cleanup, and master-driven recovery of remote region servers.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"txkv"
	"txkv/internal/kvstore"
	"txkv/internal/obs"
	"txkv/internal/rpc"
)

// faultProxy is a TCP forwarder with three injectable link faults:
// partition (existing connections severed, new ones refused), blackhole
// (forwarding pauses; no bytes lost, so healed connections resume), and
// slow-link (a fixed delay per forwarded chunk).
type faultProxy struct {
	ln net.Listener

	mu     sync.Mutex
	target string
	delay  time.Duration
	paused bool
	refuse bool
	closed bool
	conns  map[net.Conn]struct{}
}

func startFaultProxy() (*faultProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &faultProxy{ln: ln, conns: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	return p, nil
}

func (p *faultProxy) Addr() string { return p.ln.Addr().String() }

// SetTarget points the proxy at the backend. Connections arriving before
// the target is set are dropped; callers retry through the usual
// transport-error path.
func (p *faultProxy) SetTarget(addr string) {
	p.mu.Lock()
	p.target = addr
	p.mu.Unlock()
}

func (p *faultProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		refuse, target := p.refuse || p.closed, p.target
		if !refuse {
			p.conns[c] = struct{}{}
		}
		p.mu.Unlock()
		if refuse || target == "" {
			c.Close()
			continue
		}
		go p.serve(c, target)
	}
}

func (p *faultProxy) serve(c net.Conn, target string) {
	up, err := net.Dial("tcp", target)
	if err != nil {
		p.drop(c)
		return
	}
	p.mu.Lock()
	if p.refuse || p.closed {
		p.mu.Unlock()
		up.Close()
		p.drop(c)
		return
	}
	p.conns[up] = struct{}{}
	p.mu.Unlock()

	done := make(chan struct{}, 2)
	go p.pipe(up, c, done)
	go p.pipe(c, up, done)
	<-done // either direction failing severs the pair
	p.drop(c)
	p.drop(up)
}

func (p *faultProxy) pipe(dst, src net.Conn, done chan<- struct{}) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			// Hold the chunk while blackholed; delay it on a slow link.
			for {
				p.mu.Lock()
				paused, delay := p.paused, p.delay
				p.mu.Unlock()
				if !paused {
					if delay > 0 {
						time.Sleep(delay)
					}
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	done <- struct{}{}
}

func (p *faultProxy) drop(c net.Conn) {
	c.Close()
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// Partition severs every live connection and refuses new ones until Heal.
func (p *faultProxy) Partition() {
	p.mu.Lock()
	p.refuse = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Blackhole pauses forwarding: calls hang, nothing is lost.
func (p *faultProxy) Blackhole() {
	p.mu.Lock()
	p.paused = true
	p.mu.Unlock()
}

// SlowLink adds a per-chunk forwarding delay.
func (p *faultProxy) SlowLink(d time.Duration) {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
}

// Heal clears every injected fault.
func (p *faultProxy) Heal() {
	p.mu.Lock()
	p.refuse, p.paused, p.delay = false, false, 0
	p.mu.Unlock()
}

func (p *faultProxy) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.Partition()
}

// proxiedNode is one region-server "process" behind its fault proxy.
type proxiedNode struct {
	node  *rpc.RegionNode
	proxy *faultProxy
}

// nodeHostsPrimary reports whether the node currently leads at least one
// online region.
func nodeHostsPrimary(pn *proxiedNode) bool {
	for _, st := range pn.node.Server().ReplicaStates() {
		if st.Role == kvstore.RolePrimary && st.Online {
			return true
		}
	}
	return false
}

// startProxiedNode brings up a region node advertising its proxy: all
// traffic to the node — client reads, master assignment and recovery,
// write-set flushes — crosses the faultable link. Heartbeats run on the
// node's own outbound connection to the master, so link faults degrade
// service without tripping the failure detector; only killNode does that.
func startProxiedNode(id, masterAddr string) (*proxiedNode, error) {
	proxy, err := startFaultProxy()
	if err != nil {
		return nil, err
	}
	node, err := rpc.StartRegionNode(rpc.RegionNodeConfig{
		ID:         id,
		MasterAddr: masterAddr,
		Advertise:  proxy.Addr(),
		Server:     kvstore.ServerConfig{HeartbeatInterval: 200 * time.Millisecond},
	})
	if err != nil {
		proxy.Close()
		return nil, err
	}
	proxy.SetTarget(node.ListenAddr())
	return &proxiedNode{node: node, proxy: proxy}, nil
}

func (pn *proxiedNode) kill() {
	pn.node.Kill()
	pn.proxy.Close()
}

// runRemote is the -remote campaign entry point.
func runRemote(duration time.Duration, servers, clients, keys int, seed int64, repl int) {
	if servers < 2 {
		log.Fatal("need at least 2 region-server processes to survive kills")
	}
	cluster, err := txkv.Open(txkv.Config{
		Servers:                -1, // master-only: all region servers join over rpc
		HeartbeatInterval:      200 * time.Millisecond,
		MasterHeartbeatTimeout: 800 * time.Millisecond,
		Tracing:                true,
		// With -replication, regions are replicated across the remote
		// nodes and process kills aim at primaries: WAL entries cross the
		// wire to followers before ack, and kills must end in promotions.
		ReplicationFactor: repl,
		FollowerReads:     repl > 1,
	})
	if err != nil {
		log.Fatalf("open master: %v", err)
	}
	defer cluster.Stop()
	masterAddr, err := cluster.ServeRPC("127.0.0.1:0")
	if err != nil {
		log.Fatalf("serve rpc: %v", err)
	}
	fmt.Printf("master serving on %s\n", masterAddr)

	var (
		nodeMu  sync.Mutex
		nodes   []*proxiedNode
		nextID  int
		newNode = func() error {
			nextID++
			pn, err := startProxiedNode(fmt.Sprintf("rs%d", nextID), masterAddr)
			if err != nil {
				return err
			}
			nodeMu.Lock()
			nodes = append(nodes, pn)
			nodeMu.Unlock()
			return nil
		}
	)
	for i := 0; i < servers; i++ {
		if err := newNode(); err != nil {
			log.Fatalf("start region node: %v", err)
		}
	}
	defer func() {
		nodeMu.Lock()
		defer nodeMu.Unlock()
		for _, pn := range nodes {
			pn.node.Stop()
			pn.proxy.Close()
		}
	}()

	splits := []txkv.Key{keyOf(keys / 3), keyOf(2 * keys / 3)}
	if err := cluster.CreateTable("chaos", splits); err != nil {
		log.Fatalf("create table: %v", err)
	}

	// The watch audit over the wire: a watcher on its own connection
	// follows the chaos table's change stream through the streaming rpc
	// while links fault around it, handing off to token-resumed successor
	// streams throughout (see watch.go).
	const sentinelRow = "watch-sentinel"
	wremote, err := txkv.Connect(masterAddr)
	if err != nil {
		log.Fatalf("watch connect: %v", err)
	}
	defer wremote.Close()
	wcl, err := wremote.NewClient("watch-audit")
	if err != nil {
		log.Fatalf("watch client: %v", err)
	}
	watcher := startWatchAuditor(wcl, 0, sentinelRow)

	type ack struct {
		row, val string
	}
	var (
		mu        sync.Mutex
		acks      = make(map[string][]string) // row -> acknowledged values
		maybe     = make(map[string][]string) // row -> indeterminate-commit values
		committed int
		conflicts int
		indeterm  int
		reconns   int
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: each owns its own wire connection (its own gateway
	// session), so dropping it exercises the server-side session cleanup.
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(ci)))
			ctx := context.Background()
			var (
				remote *txkv.Remote
				cl     *txkv.Client
			)
			connect := func() {
				if remote != nil {
					remote.Close()
					remote, cl = nil, nil
				}
				r, err := txkv.Connect(masterAddr)
				if err != nil {
					return
				}
				c, err := r.NewClient(fmt.Sprintf("chaos-%d-%d", ci, rng.Int63()))
				if err != nil {
					r.Close()
					return
				}
				remote, cl = r, c
			}
			connect()
			defer func() {
				if remote != nil {
					remote.Close()
				}
			}()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if cl == nil {
					connect()
					continue
				}
				// Occasionally the client "process" dies: its connection
				// drops with transactions possibly open, and the gateway
				// must abort them and reclaim the session.
				if rng.Intn(200) == 0 {
					remote.Close()
					remote, cl = nil, nil
					mu.Lock()
					reconns++
					mu.Unlock()
					continue
				}
				var batch []ack
				_, err := cl.UpdateWith(ctx, txkv.TxnOptions{MaxRetries: txkv.NoRetry}, func(txn *txkv.Txn) error {
					batch = batch[:0]
					for j := 0; j < 3; j++ {
						row := string(keyOf(rng.Intn(keys)))
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
					mu.Lock()
					switch {
					case errors.Is(err, txkv.ErrConflict):
						conflicts++
					case errors.Is(err, txkv.ErrCommitIndeterminate):
						// The commit may have landed: its values are
						// legal storage states but not required ones.
						indeterm++
						for _, a := range batch {
							maybe[a.row] = append(maybe[a.row], a.val)
						}
					}
					mu.Unlock()
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

	// Network-fault injector.
	rng := rand.New(rand.NewSource(seed))
	partitions, blackholes, slowLinks, kills, rmBounces := 0, 0, 0, 0, 0
	faults := 0
	stamp := func() string { return time.Now().Format("15:04:05.000") }
	pickNode := func() *proxiedNode {
		nodeMu.Lock()
		defer nodeMu.Unlock()
		if len(nodes) == 0 {
			return nil
		}
		return nodes[rng.Intn(len(nodes))]
	}
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		time.Sleep(duration / 8)
		fault := rng.Intn(5)
		if repl > 1 && rng.Intn(2) == 0 {
			// Kill-a-replica campaign: half the schedule is process
			// kills, so every run actually exercises promotion.
			fault = 3
		}
		switch fault {
		case 0:
			pn := pickNode()
			if pn == nil {
				continue
			}
			fmt.Printf("[%s] partitioning %s for 500ms\n", stamp(), pn.node.Server().ID())
			pn.proxy.Partition()
			time.Sleep(500 * time.Millisecond)
			pn.proxy.Heal()
			partitions++
		case 1:
			pn := pickNode()
			if pn == nil {
				continue
			}
			fmt.Printf("[%s] blackholing %s for 400ms\n", stamp(), pn.node.Server().ID())
			pn.proxy.Blackhole()
			time.Sleep(400 * time.Millisecond)
			pn.proxy.Heal()
			blackholes++
		case 2:
			pn := pickNode()
			if pn == nil {
				continue
			}
			fmt.Printf("[%s] slowing link to %s (15ms/chunk) for 600ms\n", stamp(), pn.node.Server().ID())
			pn.proxy.SlowLink(15 * time.Millisecond)
			time.Sleep(600 * time.Millisecond)
			pn.proxy.Heal()
			slowLinks++
		case 3:
			// Kill a region-server process and start a replacement; the
			// master must recover its regions onto the survivors.
			nodeMu.Lock()
			if len(nodes) < 2 {
				nodeMu.Unlock()
				continue
			}
			vi := rng.Intn(len(nodes))
			if repl > 1 {
				// Kill-the-primary: prefer a node leading at least one
				// region, so the kill exercises over-the-wire promotion.
				var prim []int
				for i, pn := range nodes {
					if nodeHostsPrimary(pn) {
						prim = append(prim, i)
					}
				}
				if len(prim) > 0 {
					vi = prim[rng.Intn(len(prim))]
				}
			}
			victim := nodes[vi]
			nodes = append(nodes[:vi], nodes[vi+1:]...)
			nodeMu.Unlock()
			fmt.Printf("[%s] killing %s\n", stamp(), victim.node.Server().ID())
			victim.kill()
			kills++
			if err := newNode(); err != nil {
				fmt.Printf("replacement node failed: %v\n", err)
			}
		case 4:
			fmt.Printf("[%s] bouncing recovery manager\n", stamp())
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

	// Heal every surviving link before the audit: the theorem is about
	// durability across faults, not availability during them.
	nodeMu.Lock()
	for _, pn := range nodes {
		pn.proxy.Heal()
	}
	nodeMu.Unlock()
	checkObs("after campaign")
	if repl > 1 {
		assertFailover(cluster, kills)
	}

	// End the watcher's feed at a known point and reconcile against acks.
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

	fmt.Printf("campaign done: %d committed, %d conflicts, %d indeterminate, %d partitions, %d blackholes, %d slow-links, %d process kills, %d RM bounces, %d client reconnects\n",
		committed, conflicts, indeterm, partitions, blackholes, slowLinks, kills, rmBounces, reconns)

	// Audit over the wire: every acknowledged row must hold one of its
	// acknowledged values — or a value from an indeterminate commit that
	// turned out to have landed.
	remote, err := txkv.Connect(masterAddr)
	if err != nil {
		log.Fatalf("auditor connect: %v", err)
	}
	defer remote.Close()
	auditor, err := remote.NewClient("auditor")
	if err != nil {
		log.Fatalf("auditor: %v", err)
	}
	mu.Lock()
	rows := make(map[string][]string, len(acks))
	for r, vs := range acks {
		rows[r] = append(append([]string(nil), vs...), maybe[r]...)
	}
	mu.Unlock()

	lost := 0
	auditDeadline := time.Now().Add(60 * time.Second)
	for row, vals := range rows {
		for {
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
	// The region-server processes report T_P(s) on their master
	// heartbeats, so the global T_P advances and the log is truncated; a
	// log that never shrinks means the recovery manager cannot see them.
	st := cluster.Stats()
	for truncDeadline := time.Now().Add(10 * time.Second); st.GlobalTP == 0 || st.LogTruncated == 0; st = cluster.Stats() {
		if time.Now().After(truncDeadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	truncBad := st.GlobalTP == 0 || st.LogTruncated == 0
	if lost > 0 || watchBad > 0 || truncBad {
		dumpSlow(cluster)
		if lost > 0 {
			fmt.Printf("AUDIT FAILED: %d rows lost acknowledged commits\n", lost)
		}
		if watchBad > 0 {
			fmt.Printf("WATCH AUDIT FAILED: %d exactly-once violations\n", watchBad)
		}
		if truncBad {
			fmt.Printf("TRUNCATION AUDIT FAILED: global T_P %d (T_F %d), %d log records truncated\n",
				st.GlobalTP, st.GlobalTF, st.LogTruncated)
		}
		os.Exit(1)
	}
	fmt.Printf("AUDIT OK: all %d acknowledged rows intact across the wire after %d kills and %d link faults\n",
		len(rows), kills, partitions+blackholes+slowLinks)
	fmt.Printf("TRUNCATION AUDIT OK: global T_P %d (T_F %d), %d log records truncated\n",
		st.GlobalTP, st.GlobalTF, st.LogTruncated)
	fmt.Printf("WATCH AUDIT OK: every acknowledged write delivered exactly once over the wire\n")
}

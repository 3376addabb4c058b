package main

import (
	"fmt"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/obs"
	"txkv/internal/rpc"
)

// wire_rf3: the multi-node deployment over real loopback TCP, in one
// process. A master-only cluster serves the wire protocol, three region
// nodes join it over TCP, every region has three copies (quorum WAL
// shipping), and the load runs through one ConnectRemote handle. RPC
// framing, codecs and syscalls, the transaction gateway, client routing
// and replication dominate; there is no disk and no cold read.

const (
	wireRows    = 50_000
	wireRegions = 6
	wireNodes   = 3
)

// wireEnv is a master, its region nodes and two remote clients.
type wireEnv struct {
	c      *cluster.Cluster
	addr   string            // the master's rpc address
	nodes  []*rpc.RegionNode // live nodes
	regs   []*obs.Registry   // one per live node
	nextID int
	remote *cluster.Remote
	cl     *cluster.Client // load client
	probe  *cluster.Client // failure-phase probes and whole-table checks
	led    *ledger
}

// teardown stops the client side, then the master while its nodes still
// run, then the nodes; each step is time-limited because rpc.Server.Close
// has been seen to block on a master whose nodes had already stopped.
func (e *wireEnv) teardown() {
	if e.remote != nil {
		e.remote.Close()
	}
	stopWithin(10*time.Second, "master Cluster.Stop", e.c.Stop)
	for _, n := range e.nodes {
		stopWithin(10*time.Second, "RegionNode.Stop", n.Stop)
	}
}

func wireRF3(p params) (*report, error) {
	printf("config wire_rf3: %d rows x %dB values in %d regions; master-only cluster serving TCP on loopback, "+
		"%d region nodes (rpc.StartRegionNode), ReplicationFactor 3, in-memory DFS, zero simulated latency; "+
		"one ConnectRemote client shared by 2 closed-loop goroutines, each 60%% get, 10%% %d-row scan, "+
		"30%% Update of 3 puts on its own regions' rows; then %d failover cycles, each on a fresh deployment set up "+
		"the same way (kill the node with the most primaries, start a new one), and %d restarts of every node of the last",
		wireRows, valueSize, wireRegions, wireNodes, scanRows, failoverCycles, reopens)
	var live *wireEnv // the deployment to tear down on the way out
	defer func() {
		if live != nil {
			live.teardown()
		}
	}()
	// setups times every set-up of the run: the window's deployment and
	// the failure phase's, all alike; setup_s is their median.
	var setups []float64
	start := time.Now()
	e, err := startWire(p.seed)
	setups = append(setups, time.Since(start).Seconds())
	live = e
	if err != nil {
		return nil, err
	}

	tr := newTraceCtl(p, e.c.Tracer())
	workers := make([]*worker, 2)
	for g := range workers {
		workers[g] = newWorker(g+1, len(workers), wireRows, e.cl, e.led, p.seed*1000+int64(g), tr)
		workers[g].waitFlushed = func(ts kv.Timestamp) error { return e.c.WaitFlushed(ts, 10*time.Second) }
		workers[g].serverGet = e.serverGet
	}
	step := func(w *worker) {
		switch r := w.rng.Intn(10); {
		case r < 3:
			ops := make([]txnOp, 3)
			for j := range ops {
				ops[j] = txnOp{row: w.writeRow(), put: true}
			}
			w.update(ops)
		case r == 3:
			lo := w.rng.Intn(wireRows - scanRows)
			w.scan(lo, lo+scanRows, seq(lo, lo+scanRows, 1))
		default:
			w.get(w.rng.Intn(wireRows))
		}
	}
	warmUp(workers, step)
	sampleWire := func() sample {
		s := sampleCluster(e.c, e.cl)
		sampleNodes(&s, e.nodes, e.regs)
		return s
	}
	before := sampleWire()
	win := runClosed(workers, p.window(), tr, step)
	after := sampleWire()
	reportBackground(before, after)

	// The failure phase runs on fresh deployments, each set up as the
	// first one was, and crashes one node of each: a node that joins after
	// a failure gets no follower copies, so on one deployment later cycles
	// fell back to WAL replay at random, and failover_ms spread 0.23 of its
	// median across seeds. Fresh deployments also keep the TM log short:
	// region nodes run no recovery agent, so the log is never truncated and
	// every recovery replays it from the start; after the window a failover
	// took as long as the window had written.
	live = nil
	e.teardown()
	var f *failures
	for i := 0; i < failoverCycles; i++ {
		start := time.Now()
		fe, err := startWire(p.seed)
		setups = append(setups, time.Since(start).Seconds())
		live = fe
		if err != nil {
			return nil, fmt.Errorf("failure-phase set-up: %w", err)
		}
		if f == nil {
			f = newFailures(fe, fe.led, wireRows, wireRegions)
		} else {
			f.use(fe, fe.led)
		}
		if err := f.failover(); err != nil {
			return nil, err
		}
		if i < failoverCycles-1 {
			live = nil
			fe.teardown()
		}
	}
	if err := f.reopenAll(); err != nil {
		return nil, err
	}
	printf("set-ups: %s s", fmtFloats(setups))
	wb := written(workers)
	return finish(p, median(setups), &win, f, layerIn{before: before, after: after, windowBytes: wb}), nil
}

// serverGet reads row at ts straight from the node that serves it and
// times that node's Get alone.
func (e *wireEnv) serverGet(row int, ts kv.Timestamp) (time.Duration, error) {
	var last error
	for _, n := range e.nodes {
		t := time.Now()
		_, _, err := n.Server().Get(table, rowKey(row), column, ts)
		if err == nil {
			return time.Since(t), nil
		}
		last = err
	}
	return 0, fmt.Errorf("no node serves row %d: %w", row, last)
}

// startNode starts one more region node and registers it with the master.
func (e *wireEnv) startNode() error {
	reg := obs.NewRegistry()
	n, err := rpc.StartRegionNode(rpc.RegionNodeConfig{
		ID:         fmt.Sprintf("node-%d", e.nextID),
		MasterAddr: e.addr,
		Registry:   reg,
		Server:     kvstore.ServerConfig{HeartbeatInterval: 100 * time.Millisecond},
	})
	if err != nil {
		return err
	}
	e.nextID++
	e.nodes = append(e.nodes, n)
	e.regs = append(e.regs, reg)
	return nil
}

// kill crashes live node i and forgets it.
func (e *wireEnv) kill(i int) {
	e.nodes[i].Kill()
	e.nodes = append(e.nodes[:i], e.nodes[i+1:]...)
	e.regs = append(e.regs[:i], e.regs[i+1:]...)
}

// crashBusiest kills the node serving the most regions as primary.
func (e *wireEnv) crashBusiest() error {
	victim, most := -1, 0
	for i, n := range e.nodes {
		if k := len(n.Server().RegionHeats()); k > most {
			victim, most = i, k
		}
	}
	if victim < 0 {
		return fmt.Errorf("no node serves a region")
	}
	e.kill(victim)
	return nil
}

// replace starts a new node. The master gives a node that joins after a
// failure no follower copies, so each crash leaves fewer copies and later
// cycles fail over by WAL replay instead of promotion: failover_ms grows
// over the cycles. It does not rebalance: a region move at this point can
// fail ("dfs: file not found: .../00000000.sf.tmp").
func (e *wireEnv) replace() error { return e.startNode() }

// stopAll drains pending flushes and kills every node; the master, which
// holds the DFS and the TM log, stays up.
func (e *wireEnv) stopAll() error {
	err := e.c.WaitFlushed(e.c.TM().LastIssued(), 10*time.Second)
	for len(e.nodes) > 0 {
		e.kill(0)
	}
	return err
}

// startAll starts wireNodes fresh nodes; the master recovers every region
// onto them.
func (e *wireEnv) startAll() error {
	for i := 0; i < wireNodes; i++ {
		if err := e.startNode(); err != nil {
			return err
		}
	}
	return nil
}

func (e *wireEnv) prober() *cluster.Client  { return e.probe }
func (e *wireEnv) master() *cluster.Cluster { return e.c }

// startWire brings up the deployment and loads the table through the
// remote client. On error it returns the partial environment for teardown.
func startWire(seed int64) (*wireEnv, error) {
	e := &wireEnv{led: newLedger(wireRows)}
	c, err := cluster.New(cluster.Config{
		Servers:                -1,
		ReplicationFactor:      3,
		HeartbeatInterval:      100 * time.Millisecond,
		MasterHeartbeatTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	e.c = c
	if e.addr, err = c.ServeRPC("127.0.0.1:0"); err != nil {
		return e, err
	}
	for i := 0; i < wireNodes; i++ {
		if err := e.startNode(); err != nil {
			return e, err
		}
	}
	if err := c.CreateTable(table, splitKeys(wireRows, wireRegions)); err != nil {
		return e, err
	}
	if e.remote, err = cluster.ConnectRemote(e.addr); err != nil {
		return e, err
	}
	if e.cl, err = e.remote.NewClient("bench"); err != nil {
		return e, err
	}
	if e.probe, err = e.remote.NewClient("probe"); err != nil {
		return e, err
	}
	if err := loadRows(e.cl, e.led, newFiller(seed), seq(0, wireRows, 1), 1, 500); err != nil {
		return e, err
	}
	return e, c.WaitFlushed(c.TM().LastIssued(), 10*time.Second)
}

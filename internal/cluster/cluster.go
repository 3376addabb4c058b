// Package cluster wires every subsystem into a runnable single-process
// cluster: the DFS, the HBase-like store (master + region servers), the
// ZooKeeper-like coordination service, the transaction manager with its
// recovery log, and the paper's recovery middleware (client agents and the
// recovery manager; region servers track T_P(s) themselves). It also
// provides the transactional client API (Begin/Get/Put/Delete/Commit with
// deferred updates) and fault-injection entry points used by the examples,
// tests, and the benchmark harness.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"txkv/internal/coord"
	"txkv/internal/core"
	"txkv/internal/dfs"
	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/netsim"
	"txkv/internal/obs"
	"txkv/internal/replica"
	"txkv/internal/rpc"
	"txkv/internal/storage"
	"txkv/internal/txlog"
	"txkv/internal/txmgr"
	"txkv/internal/watch"
)

// Cluster errors.
var (
	ErrStopped       = errors.New("cluster: stopped")
	ErrUnknownServer = errors.New("cluster: unknown server")
	ErrRMDown        = errors.New("cluster: recovery manager down")
	// ErrDataDirLocked reports that another live cluster already holds the
	// configured DataDir (matchable with errors.Is on either name).
	ErrDataDirLocked = storage.ErrDirLocked
)

// Config sizes and parameterizes the cluster. Zero values give a sensible
// laptop-scale configuration; latencies default to a mild simulation of the
// paper's testbed ratios (LAN RPC ≪ DFS sync).
type Config struct {
	// Servers is the number of in-process region servers (the paper uses
	// 2; zero defaults to 2). Negative means none: a master-only process
	// that serves the wire protocol (ServeRPC) and waits for region-server
	// processes to register over it.
	Servers int
	// Replication is the DFS replication factor (the paper uses 2).
	Replication int
	// ReplicationFactor is the number of copies per REGION (primary
	// included): the region-replication layer above the DFS. 1 (the
	// default) disables region replication; 3 gives each region one
	// primary and two followers, with writes acknowledged by a majority.
	// Placement is best-effort when fewer servers than copies are live.
	ReplicationFactor int
	// FollowerReads routes clients' snapshot scans to follower copies when
	// the follower's replicated frontier covers the read timestamp (bounded
	// staleness), falling back to the primary otherwise. Needs
	// ReplicationFactor > 1 to have any effect.
	FollowerReads bool

	// RPCLatency is the simulated one-way network latency per message.
	RPCLatency time.Duration
	// DFSSyncLatency is the cost of one WAL/store-file sync to the DFS.
	DFSSyncLatency time.Duration
	// DFSReadLatency is the cost of one block fetch from the DFS (block
	// cache misses pay it).
	DFSReadLatency time.Duration
	// LogSyncLatency is the TM recovery log's group-commit fsync cost.
	LogSyncLatency time.Duration

	// SyncPersistence makes region servers sync their WAL before
	// acknowledging every write — the Figure 2(a) baseline. The paper's
	// system (and the default) persists asynchronously.
	SyncPersistence bool
	// DisableRecovery runs without the recovery middleware (no client
	// agents, client heartbeats, or recovery manager) — the ablation
	// baseline for the tracking-overhead experiment. Region servers still
	// heartbeat the master and track T_P(s), but with no recovery manager
	// publishing T_F it stays at 0 and nothing is truncated.
	DisableRecovery bool
	// DisableTruncation keeps the TM log unbounded (truncation ablation).
	DisableTruncation bool

	// HeartbeatInterval is the clients' recovery-heartbeat cadence (the
	// x-axis of Figure 2(b); the paper's failure experiment uses 1s). It
	// also sets the coordination service's expiry check and the default
	// RMPollInterval. Region servers do not use it: their T_P(s) rides
	// the master heartbeat, every MasterHeartbeatTimeout/4.
	HeartbeatInterval time.Duration
	// SessionTTL is how long missed heartbeats persist before the client
	// is declared dead. Defaults to 4x HeartbeatInterval.
	SessionTTL time.Duration
	// RMPollInterval is the recovery manager's threshold-poll cadence.
	RMPollInterval time.Duration
	// MasterHeartbeatTimeout declares a region server dead.
	MasterHeartbeatTimeout time.Duration

	// MemstoreFlushBytes, BlockCacheBytes and BlockSize tune the store.
	MemstoreFlushBytes int
	BlockCacheBytes    int
	BlockSize          int
	// WALSyncInterval is the region servers' async WAL sync cadence; each
	// sync advances the server's T_P(s). Zero means the server default,
	// 50ms.
	WALSyncInterval time.Duration

	// QueueAlertThreshold arms the clients' flush-queue monitors.
	QueueAlertThreshold int

	// WatchBuffer is the per-watch-stream live queue depth, in commit
	// batches; a consumer that lets it fill falls back to reading the log
	// instead of blocking commits (0 = the watch package default, 256).
	WatchBuffer int
	// WatchLagHorizon caps how many commits a watch consumer may trail the
	// commit frontier before its stream is cancelled with ErrWatchLagging
	// and its log-retention pin released. 0 means unlimited: a paused
	// watcher pins log truncation indefinitely.
	WatchLagHorizon kv.Timestamp

	// CompactionThreshold makes region servers compact a region in the
	// background once it exceeds this many store files (0 disables the
	// trigger; ReclaimStorage and the janitor compact regardless).
	CompactionThreshold int
	// RollFlushMinBytes is the storage janitor's per-region dirty-bytes
	// threshold: a WAL roll skips flushing regions whose in-memory state
	// is smaller, carrying their edits into the fresh WAL generation
	// instead of writing a tiny store file per mostly-idle region per
	// pass. The reclaim.flushes_skipped counter counts the skips. Zero flushes
	// every region on each roll (the conservative default).
	RollFlushMinBytes int
	// CompactionInterval, when non-zero, runs the storage janitor on this
	// cadence: every live server compacts its multi-file regions (with the
	// transaction manager's safe-snapshot version-GC horizon) and the DFS
	// persistence logs are checkpointed, so DataDir plateaus instead of
	// growing with all-time writes. Zero disables the janitor.
	CompactionInterval time.Duration

	// Persistence selects where durable state lives: PersistNone (default)
	// keeps the TM recovery log, the DFS, and table layouts in process
	// memory — the original simulation — while PersistDisk journals them
	// through internal/storage segmented logs under DataDir. A cluster
	// opened with PersistDisk over a directory that already holds state
	// reopens it: table layouts are restored, synced DFS files (store
	// files, WAL segments) come back, and every committed-but-unpersisted
	// write-set is replayed from the recovery log before clients run.
	Persistence PersistenceMode
	// DataDir is the root directory for durable state. Required when
	// Persistence is PersistDisk; ignored otherwise.
	DataDir string
	// StorageSegmentBytes caps one storage-log segment before rotation
	// (0 = the storage engine's default, 4 MiB).
	StorageSegmentBytes int64

	// MaxInflightPerConn caps concurrently-executing requests per wire
	// connection when this cluster serves the RPC protocol (ServeRPC).
	// Past the cap the connection's read loop stalls, pushing back on the
	// peer through TCP; streaming and flow-control frames are exempt so
	// established streams keep draining. 0 means unlimited.
	MaxInflightPerConn int

	// Tracing enables per-operation span tracing at Open: commit-pipeline
	// and read-path stages feed per-stage histograms, and operations
	// slower than SlowOpThreshold retain their full span tree in the
	// slow-op ring (/debug/slow). Off by default — the metric registry
	// and per-region heat counters are always on (pure atomic adds), only
	// span creation is gated. Toggle later with Tracer().SetEnabled.
	Tracing bool
	// SlowOpThreshold is the slow-op retention bar (0 = 25ms default;
	// negative retains every traced op — useful in tests).
	SlowOpThreshold time.Duration
	// SlowLogSize is the slow-op ring capacity (0 = 128).
	SlowLogSize int
}

func (c Config) withDefaults() Config {
	switch {
	case c.Servers == 0:
		c.Servers = 2
	case c.Servers < 0:
		c.Servers = 0 // master-only: region servers join over RPC
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	// The DFS runs Servers+1 data nodes; replication cannot exceed them.
	if n := c.Servers + 1; c.Replication > n {
		c.Replication = n
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 4 * c.HeartbeatInterval
	}
	if c.RMPollInterval == 0 {
		c.RMPollInterval = c.HeartbeatInterval / 2
	}
	if c.MasterHeartbeatTimeout == 0 {
		c.MasterHeartbeatTimeout = 500 * time.Millisecond
	}
	if c.MemstoreFlushBytes == 0 {
		c.MemstoreFlushBytes = 8 << 20
	}
	if c.BlockCacheBytes == 0 {
		c.BlockCacheBytes = 64 << 20
	}
	return c
}

// serverUnit bundles a region server with its replication shipping engine.
type serverUnit struct {
	srv     *kvstore.RegionServer
	shipper *replica.Shipper
}

// Cluster is a running integrated system.
type Cluster struct {
	cfg Config

	fs        *dfs.FS
	net       *netsim.Network
	svc       *coord.Service
	log       *txlog.Log
	hub       *watch.Hub
	tm        *txmgr.Manager
	master    *kvstore.Master
	gate      *rmProxy
	layoutLog *storage.Log     // nil without persistence
	dirLock   *storage.DirLock // nil without persistence

	janitorStop chan struct{} // non-nil while the janitor runs
	janitorWG   sync.WaitGroup

	// obs is the cluster's one registry: the DFS, the log, every region
	// server, shipper and routing client record into it.
	obs    *obs.Registry
	tracer *obs.Tracer
	// Cluster-wide managed-retry counters: shared across client handles so
	// the exported totals stay monotonic when chaos churns clients.
	updateCommitsTotal *obs.Counter
	updateRetriesTotal *obs.Counter

	mu         sync.Mutex
	rpcSrv     *rpc.Server            // non-nil while serving the wire protocol
	rpcPool    *rpc.Pool              // outbound connections to region-server processes
	rpcLn      net.Listener           // the wire-protocol listener
	remoteDial kvstore.EndpointDialer // dialer retrofitted onto routing clients while serving
	rmKV       *kvstore.Client        // current recovery manager's routing client
	rm         *core.Manager
	rmEpoch    int
	servers    map[string]*serverUnit
	serverIDs  []string
	clients    map[string]*Client
	clientSeq  int
	serverSeq  int
	stopped    bool
}

// rmProxy is a stable indirection to the current recovery manager: the
// master holds the proxy, so a restarted manager (paper §3.3) transparently
// serves gate calls and failure notifications that arrive after fail-over.
type rmProxy struct {
	mu sync.Mutex
	rm *core.Manager
}

func (p *rmProxy) get() *core.Manager {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rm
}

func (p *rmProxy) set(rm *core.Manager) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rm = rm
}

// RecoverRegion implements kvstore.RecoveryGate.
func (p *rmProxy) RecoverRegion(r kvstore.RegionInfo, failed string, host kvstore.RegionHost) error {
	rm := p.get()
	if rm == nil {
		return ErrRMDown // master retries until the RM is back
	}
	return rm.RecoverRegion(r, failed, host)
}

// OnServerFailure implements kvstore.ServerFailureListener.
func (p *rmProxy) OnServerFailure(serverID string, tp kv.Timestamp, regions []kvstore.RegionInfo) {
	if rm := p.get(); rm != nil {
		rm.OnServerFailure(serverID, tp, regions)
	}
}

// OnServerRecoveryComplete implements
// kvstore.ServerRecoveryCompleteListener.
func (p *rmProxy) OnServerRecoveryComplete(serverID string) {
	if rm := p.get(); rm != nil {
		rm.OnServerRecoveryComplete(serverID)
	}
}

// New assembles and starts a cluster. With Config.Persistence set to
// PersistDisk, a DataDir that already holds state is reopened: every
// committed transaction of the previous incarnation is readable once New
// returns (see Reopen).
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, obs.TracerConfig{
		Enabled:       cfg.Tracing,
		SlowThreshold: cfg.SlowOpThreshold,
		SlowLogSize:   cfg.SlowLogSize,
	})
	var (
		txBackend  storage.Backend
		dfsOpenLog func(name string) (*storage.Log, error)
		layoutLog  *storage.Log
		dirLock    *storage.DirLock
	)
	if cfg.Persistence == PersistDisk {
		if cfg.DataDir == "" {
			return nil, ErrNoDataDir
		}
		// Exclusive DataDir lock: a second live cluster on the same
		// directory would interleave journal writes; reject it up front.
		var err error
		if dirLock, err = storage.LockDir(cfg.DataDir); err != nil {
			return nil, err
		}
		be, err := storage.NewDiskBackend(dataSubdir(cfg.DataDir, "txlog"))
		if err != nil {
			_ = dirLock.Unlock()
			return nil, err
		}
		txBackend = be
		dfsOpenLog = func(name string) (*storage.Log, error) {
			return diskLog(dataSubdir(cfg.DataDir, "dfs", name), cfg.StorageSegmentBytes)
		}
		if layoutLog, err = diskLog(dataSubdir(cfg.DataDir, "cluster"), cfg.StorageSegmentBytes); err != nil {
			_ = dirLock.Unlock()
			return nil, err
		}
	}

	fs, err := dfs.Open(dfs.Config{
		Replication: cfg.Replication,
		DataNodes:   cfg.Servers + 1,
		SyncLatency: cfg.DFSSyncLatency,
		ReadLatency: cfg.DFSReadLatency,
		OpenLog:     dfsOpenLog,
		Registry:    reg,
	})
	if err != nil {
		if layoutLog != nil {
			_ = layoutLog.Close()
		}
		_ = dirLock.Unlock()
		return nil, err
	}
	log, err := txlog.Open(txlog.Config{
		SyncLatency:  cfg.LogSyncLatency,
		Backend:      txBackend,
		SegmentBytes: cfg.StorageSegmentBytes,
		Registry:     reg,
	})
	if err != nil {
		if layoutLog != nil {
			_ = layoutLog.Close()
		}
		_ = fs.Close()
		_ = dirLock.Unlock()
		return nil, err
	}

	c := &Cluster{
		cfg: cfg,
		fs:  fs,
		net: netsim.New(netsim.Config{RPCLatency: cfg.RPCLatency}),
		svc: coord.New(coord.Config{
			DefaultTTL:    cfg.SessionTTL,
			CheckInterval: cfg.HeartbeatInterval / 2,
		}),
		log:       log,
		layoutLog: layoutLog,
		dirLock:   dirLock,
		obs:       reg,
		tracer:    tracer,
		servers:   make(map[string]*serverUnit),
		clients:   make(map[string]*Client),
		gate:      &rmProxy{},
	}
	c.updateCommitsTotal = reg.Counter("txn.update_commits")
	c.updateRetriesTotal = reg.Counter("txn.update_retries")
	// The watch hub rides the log's durable-ordered commit sink: installed
	// before any client can commit, seeded with the reopened log's frontier
	// so restored history is served by catch-up reads.
	c.hub = watch.NewHub(log, watch.Config{
		Buffer:     cfg.WatchBuffer,
		LagHorizon: cfg.WatchLagHorizon,
	})
	log.SetCommitSink(c.hub.Publish)
	c.tm = txmgr.New(c.log) // oracle seeded past every recovered commit
	c.registerPullMetrics()
	c.master = kvstore.NewMaster(kvstore.MasterConfig{
		HeartbeatTimeout:  cfg.MasterHeartbeatTimeout,
		ReplicationFactor: cfg.ReplicationFactor,
	}, c.fs)
	c.registerReplicaMetrics()

	// Detect prior state before anything writes to the reopened logs.
	var (
		layouts   map[string][]kvstore.RegionInfo
		order     []string
		reopening bool
	)
	if layoutLog != nil {
		if layouts, order, err = replayLayouts(layoutLog); err != nil {
			c.Stop()
			return nil, err
		}
		reopening = len(order) > 0 || c.log.LastTS() > 0
	}

	if !cfg.DisableRecovery {
		rm := c.newRecoveryManager()
		c.rm = rm
		c.gate.set(rm)
		c.master.SetRecoveryGate(c.gate)
		c.master.AddFailureListener(c.gate)
		rm.Start()
	}
	c.master.Start()
	c.tm.AddCommitObserver(commitRouter{c})

	// The previous incarnation's server WALs must be swept (their durable
	// entries harvested as recovered edits) before fresh servers create
	// logs at the same paths.
	var edits map[string][]kvstore.WALEntry
	if reopening {
		edits = c.harvestWALEdits()
	}
	for i := 0; i < cfg.Servers; i++ {
		if _, err := c.AddServer(); err != nil {
			c.Stop()
			return nil, err
		}
	}
	if reopening {
		if err := c.restoreState(layouts, order, edits); err != nil {
			c.Stop()
			return nil, err
		}
	}
	// Journal layout changes from here on. Restoration itself does not
	// re-journal: the restored layouts are already the journal's last
	// records.
	if layoutLog != nil {
		c.master.SetLayoutSink(c)
	}
	if cfg.CompactionInterval > 0 {
		c.janitorStop = make(chan struct{})
		c.janitorWG.Add(1)
		go c.janitorLoop()
	}
	return c, nil
}

// registerPullMetrics exposes, as pull-style metrics, the state that has
// one source in the cluster (transaction manager, recovery log, watch hub)
// and the levels summed over the live servers. Every counter of the
// servers, shippers, clients and the DFS is a registry instrument already.
func (c *Cluster) registerPullMetrics() {
	reg := c.obs
	reg.CounterFunc("txmgr.commits", func() int64 {
		commits, _ := c.tm.Stats()
		return int64(commits)
	})
	reg.CounterFunc("txmgr.aborts", func() int64 {
		_, aborts := c.tm.Stats()
		return int64(aborts)
	})
	reg.GaugeFunc("txmgr.frontier", func() int64 { return int64(c.tm.Frontier()) })
	reg.GaugeFunc("txmgr.last_issued", func() int64 { return int64(c.tm.LastIssued()) })
	reg.GaugeFunc("txmgr.safe_snapshot", func() int64 { return int64(c.tm.SafeSnapshot()) })

	reg.CounterFunc("txlog.appends", func() int64 { return c.log.Stats().TotalAppends })
	reg.CounterFunc("txlog.appended_bytes", func() int64 { return c.log.Stats().TotalBytes })
	reg.CounterFunc("txlog.syncs", func() int64 { return c.log.Stats().Syncs })
	reg.CounterFunc("txlog.truncated_records", func() int64 { return c.log.Stats().TruncatedRecords })
	reg.GaugeFunc("txlog.durable_records", func() int64 { return int64(c.log.Stats().DurableRecords) })
	reg.GaugeFunc("txlog.durable_bytes", func() int64 { return c.log.Stats().DurableBytes })
	reg.GaugeFunc("txlog.segments", func() int64 { return int64(c.log.Stats().Segments) })

	reg.GaugeFunc("cluster.live_servers", func() int64 { return int64(len(c.master.LiveServers())) })
	reg.GaugeFunc("cluster.clients", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.clients))
	})
	reg.GaugeFunc("blockcache.used_bytes", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		var used int64
		for _, u := range c.servers {
			if !u.srv.Crashed() {
				used += int64(u.srv.Cache().Used())
			}
		}
		return used
	})
	hits, misses := reg.Counter("blockcache.hits"), reg.Counter("blockcache.misses")
	reg.GaugeFunc("blockcache.hit_rate_pct", func() int64 {
		h, m := hits.Load(), misses.Load()
		if h+m == 0 {
			return 0
		}
		return h * 100 / (h + m)
	})

	// Change streams: hub-wide watcher gauges and delivery counters, pulled
	// from the same snapshot /debug/watchers serves.
	reg.GaugeFunc("watch.watchers", func() int64 { return int64(c.hub.Stats().Watchers) })
	reg.GaugeFunc("watch.live", func() int64 { return int64(c.hub.Stats().Live) })
	reg.GaugeFunc("watch.catching_up", func() int64 { return int64(c.hub.Stats().CatchingUp) })
	reg.GaugeFunc("watch.queued_batches", func() int64 { return int64(c.hub.Stats().QueuedBatches) })
	reg.CounterFunc("watch.events_delivered", func() int64 { return c.hub.Stats().EventsDelivered })
	reg.CounterFunc("watch.batches_delivered", func() int64 { return c.hub.Stats().BatchesDelivered })
	reg.CounterFunc("watch.overflows", func() int64 { return c.hub.Stats().Overflows })
	reg.CounterFunc("watch.lag_cancels", func() int64 { return c.hub.Stats().LagCancels })
	reg.CounterFunc("watch.horizon_failures", func() int64 { return c.hub.Stats().HorizonFailures })
	reg.CounterFunc("watch.opened", func() int64 { return c.hub.Stats().Opened })
}

// Obs returns the cluster's metric registry.
func (c *Cluster) Obs() *obs.Registry { return c.obs }

// Tracer returns the cluster's operation tracer (enable/disable tracing at
// runtime, read the slow-op ring).
func (c *Cluster) Tracer() *obs.Tracer { return c.tracer }

// RegionHeat describes one hosted region's load for /debug/regions and the
// future placement loop.
type RegionHeat struct {
	Server string `json:"server"`
	Table  string `json:"table"`
	Region string `json:"region"`
	Start  string `json:"start"`
	End    string `json:"end"`
	kvstore.RegionHeat
}

// RegionHeats snapshots per-region heat across all live servers.
func (c *Cluster) RegionHeats() []RegionHeat {
	c.mu.Lock()
	units := make(map[string]*serverUnit, len(c.servers))
	for id, u := range c.servers {
		units[id] = u
	}
	c.mu.Unlock()
	var out []RegionHeat
	for id, u := range units {
		if u.srv.Crashed() {
			continue
		}
		for _, rh := range u.srv.RegionHeats() {
			out = append(out, RegionHeat{
				Server:     id,
				Table:      rh.Info.Table,
				Region:     rh.Info.ID,
				Start:      string(rh.Info.Range.Start),
				End:        string(rh.Info.Range.End),
				RegionHeat: rh.Heat,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Server < out[j].Server
	})
	return out
}

// Reopen opens a cluster over an existing data directory, restoring every
// committed transaction of the previous incarnation. It is New with the
// persistence configuration made explicit and validated.
func Reopen(cfg Config) (*Cluster, error) {
	if cfg.Persistence != PersistDisk {
		return nil, errors.New("cluster: Reopen requires Persistence == PersistDisk")
	}
	return New(cfg)
}

func (c *Cluster) newRecoveryManager() *core.Manager {
	c.rmEpoch++
	rc := kvstore.NewClient(kvstore.ClientConfig{
		ID:       fmt.Sprintf("recovery-client-%d", c.rmEpoch),
		Registry: c.obs,
	}, c.net, c.master)
	// Field access without c.mu: New calls this before the cluster is
	// shared, RestartRecoveryManager calls it with c.mu held.
	c.rmKV = rc
	installDial(rc, c.remoteDial) // replay must reach remote region servers too
	rm := core.NewManager(core.ManagerConfig{
		PollInterval:      c.cfg.RMPollInterval,
		DisableTruncation: c.cfg.DisableTruncation,
	}, c.svc, c.master, c.log, rc, c.net)
	rm.SetFlushNotifier(c.tm)
	return rm
}

// commitRouter forwards the TM's ordered commit notifications to the
// issuing client's tracker (so FQ fills in commit order, paper §3.1).
type commitRouter struct{ c *Cluster }

func (r commitRouter) OnCommitAssigned(clientID string, ts kv.Timestamp) {
	r.c.mu.Lock()
	cl := r.c.clients[clientID]
	r.c.mu.Unlock()
	if cl != nil && cl.agent != nil {
		cl.agent.OnCommitted(ts)
	}
}

// AddServer starts one more region server and registers it with the
// master. Returns the new server's ID.
func (c *Cluster) AddServer() (string, error) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return "", ErrStopped
	}
	id := fmt.Sprintf("server-%d", c.serverSeq)
	c.serverSeq++
	c.mu.Unlock()

	srv := kvstore.NewRegionServer(kvstore.ServerConfig{
		ID:                  id,
		SyncWrites:          c.cfg.SyncPersistence,
		WALSyncInterval:     c.cfg.WALSyncInterval,
		MemstoreFlushBytes:  c.cfg.MemstoreFlushBytes,
		BlockCacheBytes:     c.cfg.BlockCacheBytes,
		BlockSize:           c.cfg.BlockSize,
		HeartbeatInterval:   c.cfg.MasterHeartbeatTimeout / 4,
		CompactionThreshold: c.cfg.CompactionThreshold,
		RollFlushMinBytes:   c.cfg.RollFlushMinBytes,
		HorizonSource:       c.tm.SafeSnapshot,
		Registry:            c.obs,
	}, c.fs)

	unit := &serverUnit{srv: srv, shipper: c.newShipper(id)}
	srv.SetReplicator(unit.shipper)
	if err := c.master.AddServer(srv); err != nil {
		return "", err
	}
	c.mu.Lock()
	c.servers[id] = unit
	c.serverIDs = append(c.serverIDs, id)
	c.mu.Unlock()
	return id, nil
}

func (c *Cluster) onQueueAlert(id string, n int) {
	c.mu.Lock()
	rm := c.rm
	c.mu.Unlock()
	if rm != nil {
		rm.NoteQueueAlert(id, n)
	}
}

// CreateTable creates a table pre-split at the given keys.
func (c *Cluster) CreateTable(name string, splits []kv.Key) error {
	return c.master.CreateTable(name, splits)
}

// CrashServer kills a region server: background loops stop, the unsynced
// WAL tail and all memstores are lost, and the node drops off the network.
// The master will detect the failure and drive recovery.
func (c *Cluster) CrashServer(id string) error {
	c.mu.Lock()
	unit, ok := c.servers[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownServer, id)
	}
	unit.srv.Crash()
	if unit.shipper != nil {
		unit.shipper.Close() // its primaries stop shipping with it
	}
	c.net.SetDown(id, true)
	return nil
}

// ServerIDs returns the IDs of all servers ever added, in creation order.
func (c *Cluster) ServerIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.serverIDs...)
}

// Server returns a server's store handle (benchmark introspection).
func (c *Cluster) Server(id string) (*kvstore.RegionServer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	u, ok := c.servers[id]
	if !ok {
		return nil, false
	}
	return u.srv, true
}

// CrashRecoveryManager kills the recovery manager. Transaction processing
// continues; region recoveries block until a new manager starts.
func (c *Cluster) CrashRecoveryManager() {
	c.mu.Lock()
	rm := c.rm
	c.rm = nil
	c.mu.Unlock()
	c.gate.set(nil)
	if rm != nil {
		rm.Stop()
	}
}

// RestartRecoveryManager starts a fresh recovery manager, which catches up
// from the coordination-service checkpoint (paper §3.3).
func (c *Cluster) RestartRecoveryManager() {
	c.mu.Lock()
	if c.rm != nil {
		c.mu.Unlock()
		return
	}
	rm := c.newRecoveryManager()
	c.rm = rm
	c.mu.Unlock()
	rm.Start()
	c.gate.set(rm)
}

// RecoveryManager returns the current recovery manager (nil while down).
func (c *Cluster) RecoveryManager() *core.Manager {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rm
}

// TM returns the transaction manager.
func (c *Cluster) TM() *txmgr.Manager { return c.tm }

// WatchHub returns the change-stream hub (stats, watcher introspection).
func (c *Cluster) WatchHub() *watch.Hub { return c.hub }

// Log returns the TM recovery log.
func (c *Cluster) Log() *txlog.Log { return c.log }

// DFS returns the distributed filesystem.
func (c *Cluster) DFS() *dfs.FS { return c.fs }

// Network returns the simulated network (partition injection).
func (c *Cluster) Network() *netsim.Network { return c.net }

// Master returns the store master.
func (c *Cluster) Master() *kvstore.Master { return c.master }

// WaitFlushed blocks until every commit at or below ts has been flushed to
// the store (the TM's visibility frontier reaches ts) or the timeout
// elapses.
func (c *Cluster) WaitFlushed(ts kv.Timestamp, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.tm.Frontier() >= ts {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("cluster: commits <= %d not flushed within %v (frontier %d)",
		ts, timeout, c.tm.Frontier())
}

// Stop shuts the whole cluster down: clients first (clean unregister),
// then servers, master, recovery manager, log, and coordination service.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	clients := make([]*Client, 0, len(c.clients))
	for _, cl := range c.clients {
		clients = append(clients, cl)
	}
	units := make([]*serverUnit, 0, len(c.servers))
	for _, u := range c.servers {
		units = append(units, u)
	}
	rm := c.rm
	c.rm = nil
	c.mu.Unlock()

	// Stop serving the wire protocol first: closing the connections runs
	// the gateway session cleanups (aborting remote transactions) while
	// the rest of the cluster is still up to process them.
	c.stopRPC()
	if c.janitorStop != nil {
		close(c.janitorStop)
		c.janitorWG.Wait()
	}
	for _, cl := range clients {
		cl.stop(false)
	}
	c.master.Stop()
	for _, u := range units {
		if !u.srv.Crashed() {
			u.srv.Stop()
		}
		if u.shipper != nil {
			u.shipper.Close()
		}
	}
	if rm != nil {
		rm.Stop()
	}
	// Cancel every watch stream (they fail with ErrWatchClosed and release
	// their retention pins) before the log they read from goes away.
	c.hub.Close()
	c.log.Close()
	c.svc.Stop()
	if c.layoutLog != nil {
		_ = c.layoutLog.Close()
	}
	_ = c.fs.Close()
	_ = c.dirLock.Unlock()
}

// Rebalance spreads regions evenly across live servers (used after
// AddServer to exploit the elastic scalability the paper motivates).
// Returns the number of region moves performed.
func (c *Cluster) Rebalance() (int, error) {
	n, err := c.master.Rebalance()
	c.obs.Counter("master.rebalances").Add(1)
	c.obs.Counter("master.region_moves").Add(int64(n))
	return n, err
}

// ClusterStats aggregates health/throughput counters across subsystems for
// tooling and operators.
type ClusterStats struct {
	Commits           uint64
	Aborts            uint64
	VisibilityFront   kv.Timestamp
	GlobalTF          kv.Timestamp
	GlobalTP          kv.Timestamp
	LogDurableRecords int
	LogDurableBytes   int64
	LogTruncated      int64
	ClientsRecovered  int
	RegionsRecovered  int
	WriteSetsReplayed int
	LiveServers       int
	// Space reclamation (the reclaim.* counters hold the rest).
	BytesReclaimed int64
	FilesRetired   int64
}

// Stats returns a snapshot of cluster-wide counters.
func (c *Cluster) Stats() ClusterStats {
	var s ClusterStats
	s.Commits, s.Aborts = c.tm.Stats()
	s.VisibilityFront = c.tm.Frontier()
	ls := c.log.Stats()
	s.LogDurableRecords = ls.DurableRecords
	s.LogDurableBytes = ls.DurableBytes
	s.LogTruncated = ls.TruncatedRecords
	s.LiveServers = len(c.master.LiveServers())
	s.BytesReclaimed = c.obs.Counter("reclaim.bytes_reclaimed").Load()
	s.FilesRetired = c.obs.Counter("reclaim.files_retired").Load()
	c.mu.Lock()
	rm := c.rm
	c.mu.Unlock()
	if rm != nil {
		rs := rm.StatsSnapshot()
		s.GlobalTF, s.GlobalTP = rs.TF, rs.TP
		s.ClientsRecovered = rs.ClientsRecovered
		s.RegionsRecovered = rs.RegionsRecovered
		s.WriteSetsReplayed = rs.WriteSetsReplayed
	}
	return s
}

package kvstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"txkv/internal/dfs"
	"txkv/internal/kv"
	"txkv/internal/wal"
)

// ServerFailureListener is notified when the master declares a region
// server dead, before any region recovery starts (paper §3.2: "We added a
// hook in the master server that notifies our recovery manager whenever a
// server fails"). tp is the server's frozen T_P(s): its last heartbeat
// report, or its registration seed if it never reported.
type ServerFailureListener interface {
	OnServerFailure(serverID string, tp kv.Timestamp, regions []RegionInfo)
}

// ServerRecoveryCompleteListener is notified when every region of a failed
// server is back online. Failure listeners may optionally implement it; the
// recovery manager uses it to retire the dead server's frozen threshold
// (which until then holds back the global T_P and log truncation).
type ServerRecoveryCompleteListener interface {
	OnServerRecoveryComplete(serverID string)
}

// LayoutSink observes every change to a table's region layout (creation and
// splits). The cluster registers a sink that journals layouts to stable
// storage, so a reopened cluster can restore each table's exact region set
// (including regions created by runtime splits, whose store files would
// otherwise be orphaned). A sink error fails the layout change's caller:
// acknowledging a layout that is not durable would lose data at reopen.
type LayoutSink interface {
	RecordLayout(table string, regions []RegionInfo) error
}

// RecoveryGate blocks a recovered region from going online until the
// transactional recovery (replay of committed-but-unpersisted write-sets
// from the transaction manager's log) has completed — the paper's second
// hook, in the region initialization path.
type RecoveryGate interface {
	// RecoverRegion replays into the recovering region (hosted, not yet
	// online, on host) every write-set committed after the failed
	// server's T_P whose updates fall within r, then returns; the region
	// goes online afterwards.
	RecoverRegion(r RegionInfo, failedServer string, host RegionHost) error
}

// MasterConfig configures failure detection and replication policy.
type MasterConfig struct {
	// HeartbeatTimeout declares a server dead after this much silence.
	HeartbeatTimeout time.Duration
	// CheckInterval is the liveness scan cadence.
	CheckInterval time.Duration
	// ReplicationFactor is the total number of copies per region (primary
	// included). 1 (the default) disables replication entirely.
	ReplicationFactor int
	// LeaseTTL is the leader-lease duration granted to primaries; leases
	// are renewed from the liveness loop. Default: HeartbeatTimeout, so a
	// partitioned primary's lease self-expires before the master, having
	// waited out the same timeout, promotes a successor.
	LeaseTTL time.Duration
}

func (c MasterConfig) withDefaults() MasterConfig {
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 500 * time.Millisecond
	}
	if c.CheckInterval == 0 {
		c.CheckInterval = c.HeartbeatTimeout / 4
	}
	if c.ReplicationFactor == 0 {
		c.ReplicationFactor = 1
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = leaseTTLDefault(c.HeartbeatTimeout)
	}
	return c
}

type serverRec struct {
	host          RegionHost
	addr          string       // client-dialable address ("" = in-process only)
	tp            kv.Timestamp // T_P(s): last heartbeat report, frozen once dead
	lastHB        time.Time
	alive         bool
	leaseInFlight bool // a RenewLeases batch is outstanding
}

// Master coordinates region assignment, detects server failures via
// heartbeats, splits dead servers' write-ahead logs by region, and
// re-assigns and re-opens affected regions on live servers — the HBase
// master, with the two recovery-manager hooks the paper adds. The region
// servers' heartbeats also carry their persisted thresholds T_P(s) (paper
// Alg. 3), which the master keeps for the recovery manager, and the replies
// carry back the global T_F the recovery manager last published.
type Master struct {
	cfg MasterConfig
	fs  dfs.FileSystem

	mu         sync.Mutex
	servers    map[string]*serverRec
	order      []string // assignment round-robin order
	rrCursor   int
	tables     map[string][]RegionInfo // sorted by start key
	assign     map[string]string       // region ID -> server ID
	replicas   map[string]*replicaSet  // region ID -> replication group
	recovering map[string]bool         // region ID currently offline
	deadDone   map[string]bool         // failed servers whose regions are all back
	tf, tp     kv.Timestamp            // global thresholds last published by the recovery manager
	splitSeq   int                     // monotonically increasing split counter
	gate       RecoveryGate
	listeners  []ServerFailureListener
	layoutSink LayoutSink
	layoutMu   sync.Mutex // orders layout snapshots into the sink
	refillMu   sync.Mutex // serializes refillReplicas passes

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Failover accounting (atomic: read by metrics pulls mid-failover).
	failovers          atomic.Int64
	regionsPromoted    atomic.Int64
	regionsSplit       atomic.Int64
	lastFailoverNanos  atomic.Int64
	totalFailoverNanos atomic.Int64
}

// FailoverStats counts master-driven failover outcomes.
type FailoverStats struct {
	Failovers       int64 // server failures fully processed
	RegionsPromoted int64 // regions recovered by in-place follower promotion
	RegionsSplit    int64 // regions recovered via the WAL-split fallback
	LastFailover    time.Duration
	TotalFailover   time.Duration
}

// FailoverStats snapshots the master's failover counters.
func (m *Master) FailoverStats() FailoverStats {
	return FailoverStats{
		Failovers:       m.failovers.Load(),
		RegionsPromoted: m.regionsPromoted.Load(),
		RegionsSplit:    m.regionsSplit.Load(),
		LastFailover:    time.Duration(m.lastFailoverNanos.Load()),
		TotalFailover:   time.Duration(m.totalFailoverNanos.Load()),
	}
}

// NewMaster creates a master over the given DFS.
func NewMaster(cfg MasterConfig, fs dfs.FileSystem) *Master {
	return &Master{
		cfg:        cfg.withDefaults(),
		fs:         fs,
		servers:    make(map[string]*serverRec),
		tables:     make(map[string][]RegionInfo),
		assign:     make(map[string]string),
		replicas:   make(map[string]*replicaSet),
		recovering: make(map[string]bool),
		deadDone:   make(map[string]bool),
		stop:       make(chan struct{}),
	}
}

// SetRecoveryGate attaches the recovery manager's region gate. Must be set
// before any failure is processed to guarantee gated recovery.
func (m *Master) SetRecoveryGate(g RecoveryGate) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gate = g
}

// AddFailureListener registers a server-failure hook.
func (m *Master) AddFailureListener(l ServerFailureListener) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.listeners = append(m.listeners, l)
}

// SetLayoutSink attaches the layout journal hook.
func (m *Master) SetLayoutSink(s LayoutSink) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.layoutSink = s
}

// recordLayout publishes a table's current region set to the sink. Must be
// called without m.mu held. layoutMu spans the snapshot and the journal
// append, so concurrent layout changes cannot journal an older snapshot
// after a newer one (replay is last-record-wins).
func (m *Master) recordLayout(table string) error {
	m.layoutMu.Lock()
	defer m.layoutMu.Unlock()
	m.mu.Lock()
	sink := m.layoutSink
	regions := append([]RegionInfo(nil), m.tables[table]...)
	m.mu.Unlock()
	if sink == nil || regions == nil {
		return nil
	}
	if err := sink.RecordLayout(table, regions); err != nil {
		return fmt.Errorf("kvstore: journal layout of %s: %w", table, err)
	}
	return nil
}

// Start launches the liveness checker.
func (m *Master) Start() {
	m.wg.Add(1)
	go m.checkLoop()
}

// Stop halts the master's background work.
func (m *Master) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// AddServer registers and starts an in-process region server.
func (m *Master) AddServer(s *RegionServer) error {
	if err := s.Start(m); err != nil {
		return err
	}
	return m.AddServerHost(s, "")
}

// AddServerHost registers an already-running region server by its host
// handle — the registration path for region-server processes, whose host is
// internal/rpc's proxy and whose addr is the address clients dial for
// reads. The server is expected to already be started and heartbeating.
// Replication groups a failure left short take follower copies on it in the
// background, so registration does not wait for them.
func (m *Master) AddServerHost(host RegionHost, addr string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.servers[host.ID()]; ok {
		return fmt.Errorf("kvstore: server %s already registered", host.ID())
	}
	// Alg. 4 "On register": T_P(s) starts at the global T_P, which holds
	// until the server's first report.
	m.servers[host.ID()] = &serverRec{host: host, addr: addr, tp: m.tp, lastHB: time.Now(), alive: true}
	m.order = append(m.order, host.ID())
	go m.refillReplicas()
	return nil
}

// Heartbeat records a heartbeat from a live server carrying its T_P(s), and
// returns the global T_F for the server's next persist. A server the master
// does not count as live gets ErrServerStopped.
func (m *Master) Heartbeat(serverID string, tp kv.Timestamp) (kv.Timestamp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.servers[serverID]
	if !ok || !rec.alive {
		return 0, fmt.Errorf("%w: %s is not a live server", ErrServerStopped, serverID)
	}
	rec.lastHB = time.Now()
	rec.tp = tp
	return m.tf, nil
}

// PublishThresholds records the recovery manager's global thresholds: T_F
// goes back to servers on heartbeat replies, T_P seeds the T_P(s) of servers
// that register from now on.
func (m *Master) PublishThresholds(tf, tp kv.Timestamp) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tf, m.tp = tf, tp
}

// ServerThresholds returns T_P(s) of every server whose data the log may
// still have to replay: the live ones, and the failed ones whose regions
// are not all back online yet (frozen at their last report).
func (m *Master) ServerThresholds() map[string]kv.Timestamp {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]kv.Timestamp, len(m.servers))
	for id, rec := range m.servers {
		if rec.alive || !m.deadDone[id] {
			out[id] = rec.tp
		}
	}
	return out
}

// LiveServers returns the IDs of servers currently considered alive.
func (m *Master) LiveServers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for id, rec := range m.servers {
		if rec.alive {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// pickServerLocked returns the next live server round-robin, preferring
// servers heard from within HeartbeatTimeout/2. Servers that die together
// but whose last heartbeats straddle a liveness check are declared in
// consecutive checks; until then the later ones are still alive here, and
// each region offered to one costs its recovery a failed open and a
// CheckInterval sleep. Any live server is taken when none is fresh.
func (m *Master) pickServerLocked() (*serverRec, error) {
	fresh := time.Now().Add(-m.cfg.HeartbeatTimeout / 2)
	n := len(m.order)
	for _, needFresh := range []bool{true, false} {
		for i := 0; i < n; i++ {
			id := m.order[(m.rrCursor+i)%n]
			if rec := m.servers[id]; rec != nil && rec.alive && (!needFresh || rec.lastHB.After(fresh)) {
				m.rrCursor = (m.rrCursor + i + 1) % n
				return rec, nil
			}
		}
	}
	return nil, ErrNoLiveServers
}

// CreateTable creates a table pre-split at the given keys: splits k1<k2<...
// produce regions [..k1), [k1,k2), ..., [kn,..). Regions are assigned
// round-robin across live servers and opened immediately.
func (m *Master) CreateTable(name string, splits []kv.Key) error {
	m.mu.Lock()
	if _, ok := m.tables[name]; ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	sorted := append([]kv.Key(nil), splits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	bounds := append([]kv.Key{""}, sorted...)
	regions := make([]RegionInfo, 0, len(bounds))
	for i, start := range bounds {
		var end kv.Key
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		regions = append(regions, RegionInfo{
			ID:    fmt.Sprintf("%s-r%03d", name, i),
			Table: name,
			Range: kv.KeyRange{Start: start, End: end},
		})
	}
	m.tables[name] = regions
	type placement struct {
		rec  *serverRec
		info RegionInfo
	}
	placements := make([]placement, 0, len(regions))
	for _, info := range regions {
		rec, err := m.pickServerLocked()
		if err != nil {
			delete(m.tables, name)
			m.mu.Unlock()
			return err
		}
		m.assign[info.ID] = rec.host.ID()
		placements = append(placements, placement{rec: rec, info: info})
	}
	m.mu.Unlock()

	for _, p := range placements {
		if err := p.rec.host.OpenRegion(p.info, nil, false); err != nil {
			return fmt.Errorf("open region %s: %w", p.info.ID, err)
		}
	}
	for _, p := range placements {
		m.ensureReplicated(p.info, p.rec.host.ID(), true)
	}
	return m.recordLayout(name)
}

// RestoreTable re-registers a table with an explicit region set — the
// cluster-reopen path. The regions' store files are discovered from the DFS
// as each region opens; edits carries per-region recovered WAL entries
// harvested from the previous incarnation's server logs.
func (m *Master) RestoreTable(name string, regions []RegionInfo, edits map[string][]WALEntry) error {
	m.mu.Lock()
	if _, ok := m.tables[name]; ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	m.tables[name] = append([]RegionInfo(nil), regions...)
	type placement struct {
		rec  *serverRec
		info RegionInfo
	}
	placements := make([]placement, 0, len(regions))
	for _, info := range regions {
		rec, err := m.pickServerLocked()
		if err != nil {
			delete(m.tables, name)
			m.mu.Unlock()
			return err
		}
		m.assign[info.ID] = rec.host.ID()
		placements = append(placements, placement{rec: rec, info: info})
	}
	m.mu.Unlock()

	for _, p := range placements {
		if err := p.rec.host.OpenRegion(p.info, edits[p.info.ID], false); err != nil {
			return fmt.Errorf("restore region %s: %w", p.info.ID, err)
		}
	}
	for _, p := range placements {
		m.ensureReplicated(p.info, p.rec.host.ID(), true)
	}
	return m.recordLayout(name)
}

// TableRegions returns the region metadata of a table, sorted by start key.
func (m *Master) TableRegions(table string) ([]RegionInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	regions, ok := m.tables[table]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	return append([]RegionInfo(nil), regions...), nil
}

// RegionLocation pairs a region's metadata with the server currently
// hosting it — one entry of a table's layout snapshot. Host is the
// in-process handle (a *RegionServer for local servers, an RPC proxy for
// remote ones); Addr, when non-empty, is the address remote clients dial to
// reach the hosting server directly.
type RegionLocation struct {
	Info RegionInfo
	Host RegionHost
	Addr string
	// Followers lists the region's live follower copies; clients with
	// follower reads enabled may serve bounded-staleness scans from them.
	Followers []FollowerLocation
}

// LocateAll resolves a table's full region layout in one call: every region
// currently assigned to a live server, sorted by start key. Regions that are
// offline (recovering, unassigned, or on a dead server) are simply omitted —
// a client caching the layout will miss on their ranges and refresh. One
// LocateAll costs the master the same lock acquisition as one Locate, so a
// layout-caching client turns O(regions) master lookups per table into one.
func (m *Master) LocateAll(table string) ([]RegionLocation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	regions, ok := m.tables[table]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	out := make([]RegionLocation, 0, len(regions))
	for _, info := range regions {
		if m.recovering[info.ID] {
			continue
		}
		sid, ok := m.assign[info.ID]
		if !ok {
			continue
		}
		rec := m.servers[sid]
		if rec == nil || !rec.alive {
			continue
		}
		loc := RegionLocation{Info: info, Host: rec.host, Addr: rec.addr}
		if rs := m.replicas[info.ID]; rs != nil {
			for _, fid := range rs.followers {
				frec := m.servers[fid]
				if frec == nil || !frec.alive {
					continue
				}
				loc.Followers = append(loc.Followers, FollowerLocation{
					ServerID: fid, Host: frec.host, Addr: frec.addr,
				})
			}
		}
		out = append(out, loc)
	}
	return out, nil
}

// Locate resolves (table, row) to its region and the server currently
// hosting it. While a region is offline for recovery it returns
// ErrRegionNotServing; clients back off and retry.
func (m *Master) Locate(table string, row kv.Key) (RegionInfo, RegionHost, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	regions, ok := m.tables[table]
	if !ok {
		return RegionInfo{}, nil, fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	for _, info := range regions {
		if !info.Range.Contains(row) {
			continue
		}
		if m.recovering[info.ID] {
			return RegionInfo{}, nil, fmt.Errorf("%w: %s recovering", ErrRegionNotServing, info.ID)
		}
		sid, ok := m.assign[info.ID]
		if !ok {
			return RegionInfo{}, nil, fmt.Errorf("%w: %s unassigned", ErrRegionNotServing, info.ID)
		}
		rec := m.servers[sid]
		if rec == nil || !rec.alive {
			return RegionInfo{}, nil, fmt.Errorf("%w: %s host %s down", ErrRegionNotServing, info.ID, sid)
		}
		return info, rec.host, nil
	}
	return RegionInfo{}, nil, fmt.Errorf("%w: no region for %s/%s", ErrNoSuchTable, table, row)
}

func (m *Master) checkLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.CheckInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.checkOnce()
		}
	}
}

func (m *Master) checkOnce() {
	now := time.Now()
	// Declare every silent server dead, and take its regions offline,
	// before recovering any of them: no region may be offered to a server
	// that is dead but not yet declared. Then recover them in parallel.
	var recoveries []func()
	m.mu.Lock()
	for id, rec := range m.servers {
		if rec.alive && now.Sub(rec.lastHB) > m.cfg.HeartbeatTimeout {
			recoveries = append(recoveries, m.failLocked(id, rec))
		}
	}
	m.mu.Unlock()
	var wg sync.WaitGroup
	for _, run := range recoveries {
		wg.Add(1)
		go func(run func()) {
			defer wg.Done()
			run()
		}(run)
	}
	wg.Wait()
	m.renewLeases()
}

// FailServer forcibly triggers failure handling for a server (fault
// injection entry point; identical to heartbeat-timeout detection but
// immediate).
func (m *Master) FailServer(serverID string) {
	var recovery func()
	m.mu.Lock()
	if rec, ok := m.servers[serverID]; ok && rec.alive {
		recovery = m.failLocked(serverID, rec)
	}
	m.mu.Unlock()
	if recovery != nil {
		recovery()
	}
}

// failLocked declares a live server dead and takes its regions offline. The
// returned function brings them back online.
func (m *Master) failLocked(serverID string, rec *serverRec) func() {
	start := time.Now()
	rec.alive = false
	var affected []RegionInfo
	for _, regions := range m.tables {
		for _, info := range regions {
			if m.assign[info.ID] == serverID {
				affected = append(affected, info)
				m.recovering[info.ID] = true
				delete(m.assign, info.ID)
			}
		}
	}
	tp := rec.tp
	return func() { m.recoverServer(serverID, tp, affected, start) }
}

// recoverServer brings every region of a failed server back online.
func (m *Master) recoverServer(serverID string, tp kv.Timestamp, affected []RegionInfo, start time.Time) {
	m.mu.Lock()
	listeners := append([]ServerFailureListener(nil), m.listeners...)
	m.mu.Unlock()

	// Hook 1: notify the recovery manager before region recovery begins.
	for _, l := range listeners {
		l.OnServerFailure(serverID, tp, affected)
	}

	// Promotion-first failover: a region with a live, caught-up follower
	// skips WAL splitting entirely — the follower already holds every
	// quorum-acknowledged write and is promoted in place at a fresh epoch.
	// Regions without a promotable follower fall back to the WAL-split
	// reassignment path below.
	var (
		fallbackMu sync.Mutex
		fallback   []RegionInfo
	)
	var wg sync.WaitGroup
	for _, info := range affected {
		wg.Add(1)
		go func(info RegionInfo) {
			defer wg.Done()
			if !m.promoteViaReplica(info, serverID) {
				fallbackMu.Lock()
				fallback = append(fallback, info)
				fallbackMu.Unlock()
			}
		}(info)
	}
	wg.Wait()

	if len(fallback) > 0 {
		// Split the dead server's WAL by region (only durable, i.e. synced,
		// entries exist on the DFS — the unsynced tail died with the server).
		edits := m.splitWAL(serverID)

		// Reassign and reopen each affected region; regions recover in
		// parallel (paper §3.2: "different regions can be assigned to
		// different servers leading to parallel recovery").
		for _, info := range fallback {
			wg.Add(1)
			go func(info RegionInfo) {
				defer wg.Done()
				m.reassignRegion(info, serverID, edits[info.ID])
			}(info)
		}
		wg.Wait()
	}

	// The dead server may also have carried follower copies of regions
	// whose primaries are alive: refill those groups.
	m.refillReplicas()

	m.failovers.Add(1)
	m.regionsPromoted.Add(int64(len(affected) - len(fallback)))
	m.regionsSplit.Add(int64(len(fallback)))
	d := time.Since(start).Nanoseconds()
	m.lastFailoverNanos.Store(d)
	m.totalFailoverNanos.Add(d)

	// Every region is back online: the failed server's recovery is
	// complete. Record it and tell the (possibly restarted) recovery
	// manager so it can retire the frozen threshold.
	m.mu.Lock()
	m.deadDone[serverID] = true
	listeners = append([]ServerFailureListener(nil), m.listeners...)
	m.mu.Unlock()
	for _, l := range listeners {
		if done, ok := l.(ServerRecoveryCompleteListener); ok {
			done.OnServerRecoveryComplete(serverID)
		}
	}
}

// splitWAL reads the durable WAL of a dead server and groups its entries by
// region — HBase's log-splitting step. The output is kept only in memory:
// the dead server's WAL is not deleted, so a failed split can be redone.
func (m *Master) splitWAL(serverID string) map[string][]WALEntry {
	out := make(map[string][]WALEntry)
	// A region's recovered edits are journaled again by the server that
	// opens it, so a later split of that server returns them again — once
	// per time the region was recovered onto it. Drop repeated cells, or
	// the edits multiply across failures.
	seen := make(map[string]map[kv.Cell]bool)
	// Every surviving WAL generation of the dead server, oldest first
	// (zero-padded generation numbers keep List's sort chronological).
	// Replay across generations is idempotent: entries carry their commit
	// timestamps, so versioned puts land identically in any order.
	for _, path := range m.fs.List(walPrefix(serverID)) {
		records, err := wal.ReadAll(m.fs, path)
		if err != nil && records == nil {
			continue // no durable bytes in this generation
		}
		for _, rec := range records {
			e, err := DecodeWALEntry(rec)
			if err != nil {
				continue // torn or foreign record: skip, TM-log replay covers it
			}
			cells := seen[e.RegionID]
			if cells == nil {
				cells = make(map[kv.Cell]bool)
				seen[e.RegionID] = cells
			}
			kvs := e.KVs[:0]
			for _, x := range e.KVs {
				if !cells[x.Cell] {
					cells[x.Cell] = true
					kvs = append(kvs, x)
				}
			}
			if len(kvs) > 0 {
				e.KVs = kvs
				out[e.RegionID] = append(out[e.RegionID], e)
			}
		}
	}
	return out
}

// reassignRegion keeps trying live servers until the region is online.
func (m *Master) reassignRegion(info RegionInfo, failedServer string, edits []WALEntry) {
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		m.mu.Lock()
		rec, err := m.pickServerLocked()
		m.mu.Unlock()
		if err == nil {
			if err = rec.host.OpenRegion(info, edits, true); err == nil {
				err = m.bringOnline(rec.host, info, failedServer)
			}
		}
		if err != nil {
			// No live server, or the chosen one died or failed the gate:
			// try another.
			time.Sleep(m.cfg.CheckInterval)
			continue
		}
		m.mu.Lock()
		m.assign[info.ID] = rec.host.ID()
		delete(m.recovering, info.ID)
		m.mu.Unlock()
		// A reassigned primary gets a fresh epoch: stale follower copies
		// re-anchor on the new incarnation's checkpoint stream.
		m.ensureReplicated(info, rec.host.ID(), true)
		return
	}
}

// bringOnline resolves a recovering region copy on host, opened by a log
// split or promoted from a follower: the recovery gate (paper §3.2) replays
// into it every write-set committed after the failed server's T_P, and only
// then does the copy start serving, so no client reads a partially
// recovered region. If either step fails the copy is closed.
func (m *Master) bringOnline(host RegionHost, info RegionInfo, failedServer string) error {
	m.mu.Lock()
	gate := m.gate
	m.mu.Unlock()
	var err error
	if gate != nil {
		err = gate.RecoverRegion(info, failedServer, host)
	}
	if err == nil {
		err = host.MarkRegionOnline(info.ID)
	}
	if err != nil {
		host.CloseRegion(info.ID)
		return fmt.Errorf("region %s recovery gate: %w", info.ID, err)
	}
	return nil
}

package kvstore

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"txkv/internal/dfs"
	"txkv/internal/kv"
	"txkv/internal/obs"
	"txkv/internal/wal"
)

// ServerConfig configures a region server.
type ServerConfig struct {
	// ID is the server's node name, unique per incarnation.
	ID string
	// SyncWrites forces a WAL sync to the DFS before acknowledging each
	// write — the "synchronous persistence" baseline of Figure 2(a). The
	// paper's system runs with SyncWrites=false: the WAL buffer is synced
	// asynchronously.
	SyncWrites bool
	// WALSyncInterval is the cadence of the asynchronous WAL syncer, the
	// paper's Algorithm 3 "persist": each sync advances the server's
	// persisted threshold T_P(s) to the global T_F learned before it.
	// Zero means the default, 50ms.
	WALSyncInterval time.Duration
	// MemstoreFlushBytes triggers a memstore flush when a region's active
	// memstore exceeds this size.
	MemstoreFlushBytes int
	// FlushCheckInterval is how often the flusher scans regions.
	FlushCheckInterval time.Duration
	// BlockCacheBytes sizes the server's LRU block cache.
	BlockCacheBytes int
	// BlockSize is the store-file block size.
	BlockSize int
	// HeartbeatInterval is the heartbeat cadence to the master: liveness,
	// plus T_P(s) out and the global T_F back. Zero means the default,
	// 100ms.
	HeartbeatInterval time.Duration
	// CompactionThreshold triggers a background compaction when a region
	// accumulates more than this many store files. Zero disables
	// automatic compaction.
	CompactionThreshold int
	// CompactionHorizon is the version-GC horizon passed to compactions
	// triggered by the threshold (0 keeps every version). When
	// HorizonSource is set it takes precedence.
	CompactionHorizon kv.Timestamp
	// HorizonSource, when set, supplies the version-GC horizon at each
	// compaction — the cluster wires the transaction manager's safe
	// snapshot here so background compactions never GC a version an
	// in-flight transaction could still read.
	HorizonSource func() kv.Timestamp
	// RollFlushMinBytes is the per-region dirty-bytes threshold of a WAL
	// roll: a region whose entire in-memory state is smaller skips the
	// flush (no tiny store file); its edits are re-journaled into the
	// fresh WAL generation and synced, so the old generations remain
	// deletable. Zero flushes every region on each roll.
	RollFlushMinBytes int
	// Registry receives the server's instruments: write-set application,
	// scan pages, replication, block cache, bloom, block bytes and
	// reclamation, for the server and every region it opens. Servers of
	// one cluster share it, so each counter is one cluster-wide total. Nil
	// records nothing.
	Registry *obs.Registry
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.WALSyncInterval <= 0 {
		c.WALSyncInterval = 50 * time.Millisecond
	}
	if c.MemstoreFlushBytes <= 0 {
		c.MemstoreFlushBytes = 4 << 20
	}
	if c.FlushCheckInterval == 0 {
		c.FlushCheckInterval = 100 * time.Millisecond
	}
	if c.BlockCacheBytes <= 0 {
		c.BlockCacheBytes = 32 << 20
	}
	if c.BlockSize <= 0 {
		c.BlockSize = defaultBlockSize
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	return c
}

// RegionServer hosts regions and serves reads and writes. Its write path
// reproduces the paper's Algorithm 3: append the update batch to the WAL
// buffer, apply it to the memstore, and return — persistence to the DFS
// happens asynchronously, and each WAL sync advances the server's persisted
// threshold T_P(s), which rides the heartbeat to the master.
type RegionServer struct {
	cfg     ServerConfig
	fs      dfs.FileSystem
	hb      HeartbeatSink
	cache   *BlockCache
	tracker serverTracker

	// syncMu serializes WAL syncs: the DFS writer's Sync may return while
	// an earlier, concurrent one still ships the buffer, and T_P(s) may
	// only advance once everything appended before the sync is durable.
	syncMu sync.Mutex
	// reportMu makes reading T_P(s) and sending it one step, so a value
	// read before a replay lowered T_P(s) never reaches the master after
	// the lowered one.
	reportMu sync.Mutex

	// repl is the replication shipping engine (nil = replication off).
	// Set before Start; replicated primaries block their write acks on
	// repl.Replicate's quorum.
	repl Replicator

	m serverMetrics

	mu      sync.RWMutex
	regions map[string]*regionEntry
	wal     *wal.Writer
	walGen  int // current WAL generation (RollWAL advances it)
	crashed bool

	rollMu sync.Mutex // serializes RollWAL passes
	// walMu is the roll barrier: writers hold it shared across WAL append
	// + memstore apply (and syncs hold it across the sync), so once
	// RollWAL's exclusive acquisition returns, every edit that reached the
	// old generation is already applied to a memstore — the flush that
	// follows covers it before the old files are deleted. Acquired before
	// s.mu when both are held.
	walMu sync.RWMutex

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	inflight drain // in-progress ApplyWriteSet calls
}

// drain counts in-progress operations and lets a caller wait until none is
// left. Unlike a sync.WaitGroup it lets operations start while a caller
// waits: applies keep arriving while a region move drains them, and a
// WaitGroup forbids an Add from zero concurrent with Wait.
type drain struct {
	mu   sync.Mutex
	n    int
	zero sync.Cond // L is mu; signalled when n drops to zero
}

func (d *drain) add() {
	d.mu.Lock()
	d.n++
	d.mu.Unlock()
}

func (d *drain) done() {
	d.mu.Lock()
	d.n--
	if d.n == 0 {
		d.zero.Broadcast()
	}
	d.mu.Unlock()
}

// wait returns once no operation is in progress.
func (d *drain) wait() {
	d.mu.Lock()
	for d.n > 0 {
		d.zero.Wait()
	}
	d.mu.Unlock()
}

// NewRegionServer creates a (not yet started) region server.
func NewRegionServer(cfg ServerConfig, fs dfs.FileSystem) *RegionServer {
	cfg = cfg.withDefaults()
	s := &RegionServer{
		cfg:     cfg,
		fs:      fs,
		cache:   NewBlockCache(cfg.BlockCacheBytes, cfg.Registry),
		regions: make(map[string]*regionEntry),
		stop:    make(chan struct{}),
		m:       newServerMetrics(cfg.Registry),
	}
	s.inflight.zero.L = &s.inflight.mu
	return s
}

// ID returns the server's node name.
func (s *RegionServer) ID() string { return s.cfg.ID }

// Cache returns the server's block cache.
func (s *RegionServer) Cache() *BlockCache { return s.cache }

// walPath names one WAL generation; walPrefix matches every generation of
// a server (the trailing dot keeps "server-1" from matching "server-10").
func walPath(id string, gen int) string { return fmt.Sprintf("/wal/%s.%08d.log", id, gen) }
func walPrefix(id string) string        { return fmt.Sprintf("/wal/%s.", id) }

// WALPath returns the DFS path of this server's current write-ahead log
// generation. RollWAL replaces it.
func (s *RegionServer) WALPath() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return walPath(s.cfg.ID, s.walGen)
}

// Start creates the WAL and starts the background loops, heartbeating into
// hb. For in-process servers hb is the master itself (Master.AddServer
// calls back into Start); for region-server processes it is internal/rpc's
// master client, whose heartbeats cross the wire.
func (s *RegionServer) Start(hb HeartbeatSink) error {
	w, err := wal.Create(s.fs, walPath(s.cfg.ID, 0))
	if err != nil {
		return fmt.Errorf("server %s: %w", s.cfg.ID, err)
	}
	s.mu.Lock()
	s.wal = w
	s.hb = hb
	s.mu.Unlock()

	s.wg.Add(3)
	go s.heartbeatLoop()
	go s.flushLoop()
	go s.walSyncLoop()
	return nil
}

func (s *RegionServer) heartbeatLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			// A missed beat only delays T_F and T_P; the master's failure
			// detector tolerates several.
			_ = s.report()
		}
	}
}

// report sends one heartbeat carrying T_P(s) and learns the global T_F from
// the reply (Alg. 3 "heartbeat").
func (s *RegionServer) report() error {
	s.reportMu.Lock()
	defer s.reportMu.Unlock()
	s.mu.RLock()
	hb, crashed := s.hb, s.crashed
	s.mu.RUnlock()
	if hb == nil || crashed {
		return ErrServerStopped
	}
	tp := s.tracker.sending()
	tf, err := hb.Heartbeat(s.cfg.ID, tp)
	if err != nil {
		return err
	}
	s.tracker.landed(tp)
	s.tracker.learnTF(tf)
	return nil
}

func (s *RegionServer) walSyncLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.WALSyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			_ = s.SyncWAL() // errors here surface on the next client op
		}
	}
}

func (s *RegionServer) flushLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.FlushCheckInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			for _, r := range s.hostedRegions(false) {
				if r.MemSize() >= s.cfg.MemstoreFlushBytes {
					_ = s.flushRegion(r)
				}
				if th := s.cfg.CompactionThreshold; th > 0 && r.Files() > th {
					_, _ = r.CompactTiered(s.cfg.BlockSize, s.compactionHorizon())
				}
			}
		}
	}
}

// regionEntry tracks a hosted region copy and whether it is online. A
// region in transactional recovery is hosted but NOT online: only the
// recovery client's replays (hasPiggy) may touch it (HBase's "recovering
// region" state). Follower copies are hosted, never online, and carry their
// stream position in rep; they are reachable only through the replication
// entry points and the bounded-staleness follower-read path.
type regionEntry struct {
	r      *Region
	online bool
	rep    replState
}

// hostedRegions returns the online regions, and with includeRecovering
// also the primary copies still behind their recovery gate.
func (s *RegionServer) hostedRegions(includeRecovering bool) []*Region {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Region, 0, len(s.regions))
	for _, e := range s.regions {
		if e.online || includeRecovering && e.rep.getRole() != RoleFollower {
			out = append(out, e.r)
		}
	}
	return out
}

// followerEntries returns the hosted follower copies.
func (s *RegionServer) followerEntries() []*regionEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*regionEntry
	for _, e := range s.regions {
		if e.rep.getRole() == RoleFollower {
			out = append(out, e)
		}
	}
	return out
}

// HostedRegionInfos returns the RegionInfo of every online region.
func (s *RegionServer) HostedRegionInfos() []RegionInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]RegionInfo, 0, len(s.regions))
	for _, e := range s.regions {
		if e.online {
			out = append(out, e.r.Info)
		}
	}
	return out
}

// SyncWAL persists the WAL buffer to the DFS and advances T_P(s) (Algorithm
// 3: "persist"). Called by the async syncer loop and on clean shutdown.
func (s *RegionServer) SyncWAL() error {
	// The shared barrier keeps the writer from being closed by a
	// concurrent roll while the sync is in flight.
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	s.mu.RLock()
	w, crashed := s.wal, s.crashed
	s.mu.RUnlock()
	if crashed || w == nil {
		return ErrServerStopped
	}
	return s.syncWAL(w)
}

// syncWAL syncs w, the current WAL generation, and on success advances
// T_P(s) to the global T_F known before the sync began. The caller holds
// walMu.
func (s *RegionServer) syncWAL(w *wal.Writer) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	tf, pins := s.tracker.beginSync()
	if err := w.Sync(); err != nil {
		return err
	}
	s.tracker.synced(tf, pins)
	return nil
}

// findRegion returns the online region containing (table, row) for a read,
// with the read registered on it: the caller calls r.readDone once the read
// no longer touches the region's files. The read registers under s.mu, so
// once CloseAndFlushRegion has removed the region no read can start on it,
// and its wait covers every read that did.
func (s *RegionServer) findRegion(table string, row kv.Key) (*Region, bool) {
	s.mu.RLock()
	e, ok := s.lookupLocked(table, row, false)
	if ok {
		e.r.readers.Add(1)
	}
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	// A deposed primary must not keep serving snapshot reads off its stale
	// copy: once its lease lapses (the master renews only the current
	// primary's), reads bounce as not-serving and the client re-locates to
	// the promoted primary.
	if e.rep.getRole() == RolePrimary && !e.rep.leaseValid(time.Now()) {
		e.r.readDone()
		s.m.leaseRejects.Add(1)
		return nil, false
	}
	return e.r, true
}

// findRegionEntry returns the hosted primary (or unreplicated) copy
// containing (table, row). When includeRecovering is false only online
// regions match.
func (s *RegionServer) findRegionEntry(table string, row kv.Key, includeRecovering bool) (*regionEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lookupLocked(table, row, includeRecovering)
}

// lookupLocked is findRegionEntry with s.mu held.
func (s *RegionServer) lookupLocked(table string, row kv.Key, includeRecovering bool) (*regionEntry, bool) {
	for _, e := range s.regions {
		if !e.online && !includeRecovering {
			continue
		}
		// Follower copies never match: they are not writable, and even
		// recovery replays must land on the assigned (primary) copy.
		if e.rep.getRole() == RoleFollower {
			continue
		}
		if e.r.Info.Table == table && e.r.Info.Range.Contains(row) {
			return e, true
		}
	}
	return nil, false
}

// ApplyWriteSet applies one transaction's write-set portion: every update
// must fall in a region hosted by this server, otherwise nothing is applied
// and ErrRegionNotServing is returned so the client re-locates and retries
// (replay is idempotent, so duplicate application after a retry is safe).
//
// hasPiggy marks a replayed write from the recovery client carrying the
// failed server's T_P (paper Alg. 3 "On receive from recovery client").
func (s *RegionServer) ApplyWriteSet(ws kv.WriteSet, piggy kv.Timestamp, hasPiggy bool) error {
	applyStart := time.Now()
	// Shared roll barrier: held across the WAL append AND the memstore
	// apply, so a WAL roll (exclusive acquisition) never observes an edit
	// in the old generation that is not yet in a memstore.
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	s.mu.RLock()
	if s.crashed || s.wal == nil {
		s.mu.RUnlock()
		return ErrServerStopped
	}
	w := s.wal
	s.mu.RUnlock()
	s.inflight.add()
	defer s.inflight.done()

	// Group updates by hosted region; reject if any update is misrouted.
	// Replays from the recovery client (hasPiggy) may target regions that
	// are still in the recovering state — that is the whole point of the
	// pre-online recovery gate.
	byRegion := make(map[*regionEntry][]kv.KeyValue)
	for _, u := range ws.Updates {
		e, ok := s.findRegionEntry(u.Table, u.Row, hasPiggy)
		if !ok {
			return fmt.Errorf("%w: %s/%s on %s", ErrRegionNotServing, u.Table, u.Row, s.cfg.ID)
		}
		byRegion[e] = append(byRegion[e], u.ToKeyValue(ws.CommitTS))
	}
	// A replicated primary whose master-granted lease lapsed must stop
	// acknowledging before the master can promote a follower; recovery
	// replays (hasPiggy) are exempt — the gate itself runs during the
	// window when the fresh lease may not have arrived yet.
	if !hasPiggy {
		now := time.Now()
		for e := range byRegion {
			if e.rep.getRole() == RolePrimary && !e.rep.leaseValid(now) {
				s.m.leaseRejects.Add(1)
				return fmt.Errorf("%w: %s on %s", ErrLeaseExpired, e.r.Info.ID, s.cfg.ID)
			}
		}
	}

	// 1. Append to the WAL buffer (in the server's memory, not durable).
	for e, kvs := range byRegion {
		if err := w.Append(EncodeWALEntry(WALEntry{RegionID: e.r.Info.ID, KVs: kvs})); err != nil {
			return err
		}
	}
	// 2. Apply to the memstores.
	for e, kvs := range byRegion {
		e.r.Apply(kvs)
	}
	// 3. A replay from the recovery client carries the failed server's
	// T_P: inherit it, and report a lowered T_P(s) to the master before
	// acknowledging (Alg. 3 lines 18-22). A report that does not land
	// fails the replay, which the recovery manager retries.
	if hasPiggy && s.tracker.inherit(piggy) {
		if err := s.report(); err != nil {
			return err
		}
	}
	// 4. Replicated primaries journal the batch to their followers and
	// block here until a majority of the replica set holds it. A fenced
	// region (a newer primary was elected) surfaces ErrStaleEpoch: the
	// write is NOT acknowledged, the client re-locates, and the idempotent
	// re-apply lands on the new primary.
	if s.repl != nil {
		for e, kvs := range byRegion {
			if e.rep.getRole() != RolePrimary {
				continue
			}
			if err := s.repl.Replicate(e.r.Info.ID, kvs); err != nil {
				return err
			}
		}
	}
	// Synchronous-persistence baseline: pay the DFS sync before the ack.
	if s.cfg.SyncWrites {
		if err := s.syncWAL(w); err != nil {
			return err
		}
	}
	s.m.appliedWriteSets.Add(1)
	s.m.appliedCells.Add(int64(len(ws.Updates)))
	s.m.applyLatency.Record(time.Since(applyStart))
	return nil
}

// ReplayWriteSet applies a recovered write-set portion straight to the
// hosted regions' memstores: no WAL append and no tracker notification.
// This is the cluster-reopen replay path — the write-set is already durable
// in the transaction manager's recovery log, and the reopen sequence
// flushes every memstore before the cluster goes live, so journaling it
// again would only double the bytes. Application is idempotent (versioned
// puts overwrite in place).
func (s *RegionServer) ReplayWriteSet(ws kv.WriteSet) error {
	s.mu.RLock()
	crashed := s.crashed
	s.mu.RUnlock()
	if crashed {
		return ErrServerStopped
	}
	byRegion := make(map[*Region][]kv.KeyValue)
	for _, u := range ws.Updates {
		e, ok := s.findRegionEntry(u.Table, u.Row, true)
		if !ok {
			return fmt.Errorf("%w: %s/%s on %s", ErrRegionNotServing, u.Table, u.Row, s.cfg.ID)
		}
		byRegion[e.r] = append(byRegion[e.r], u.ToKeyValue(ws.CommitTS))
	}
	for r, kvs := range byRegion {
		r.Apply(kvs)
	}
	return nil
}

// Get serves a point read at the given snapshot timestamp.
func (s *RegionServer) Get(table string, row kv.Key, column string, maxTS kv.Timestamp) (kv.KeyValue, bool, error) {
	s.mu.RLock()
	crashed := s.crashed
	s.mu.RUnlock()
	if crashed {
		return kv.KeyValue{}, false, ErrServerStopped
	}
	r, ok := s.findRegion(table, row)
	if !ok {
		return kv.KeyValue{}, false, fmt.Errorf("%w: %s/%s on %s", ErrRegionNotServing, table, row, s.cfg.ID)
	}
	defer r.readDone()
	return r.Get(row, column, maxTS)
}

// OpenRegion opens a region on this server (see RegionHost): store files
// are recovered from the DFS listing and the recovered WAL edits of a log
// split are replayed. With recovering the region is hosted but not online:
// only the recovery client's replays reach it until MarkRegionOnline.
func (s *RegionServer) OpenRegion(info RegionInfo, recoveredEdits []WALEntry, recovering bool) error {
	return s.openRegion(info, nil, false, recoveredEdits, recovering)
}

// OpenRegionFiles is OpenRegion with the store-file set given explicitly
// instead of discovered by listing — the region-move path, where the
// source's data directory can still hold retired files awaiting a reader
// drain that must not become part of the new incarnation.
func (s *RegionServer) OpenRegionFiles(info RegionInfo, files []string, recoveredEdits []WALEntry) error {
	return s.openRegion(info, files, true, recoveredEdits, false)
}

func (s *RegionServer) openRegion(info RegionInfo, files []string, hasFiles bool, recoveredEdits []WALEntry, recovering bool) error {
	if s.Crashed() {
		return ErrServerStopped
	}
	r, err := s.loadRegion(info, files, hasFiles)
	if err != nil {
		return err
	}
	// HBase-internal recovery: replay the split WAL edits into the fresh
	// memstore.
	for _, e := range recoveredEdits {
		r.Apply(e.KVs)
	}
	// The region is published before its edits are journaled, so a WAL
	// roll carries them.
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return ErrServerStopped
	}
	s.regions[info.ID] = &regionEntry{r: r}
	s.mu.Unlock()
	if err := s.journalRecoveredEdits(recoveredEdits); err != nil {
		s.CloseRegion(info.ID)
		return err
	}
	if recovering {
		return nil
	}
	return s.MarkRegionOnline(info.ID)
}

// loadRegion opens a region's store files, from the DFS listing or, with
// hasFiles, from files, wired to this server's counters.
func (s *RegionServer) loadRegion(info RegionInfo, files []string, hasFiles bool) (*Region, error) {
	var (
		r   *Region
		err error
	)
	if hasFiles {
		r, err = OpenRegionFiles(s.fs, s.cache, info, files)
	} else {
		r, err = OpenRegion(s.fs, s.cache, info)
	}
	if err != nil {
		return nil, err
	}
	r.m = s.m.store
	return r, nil
}

// journalRecoveredEdits makes a recovering region's split-WAL edits durable
// in this server's own WAL before the region can go online. Otherwise they
// live only in its memstore: once the failed server's recovery completes,
// its frozen T_P no longer holds back truncation, this server's T_P(s)
// passes them, and its own failure would find them in no WAL (the failed
// server's is not split again) and no log.
func (s *RegionServer) journalRecoveredEdits(edits []WALEntry) error {
	if len(edits) == 0 {
		return nil
	}
	for _, e := range edits {
		if err := s.appendWALEntry(e); err != nil {
			return err
		}
	}
	return s.SyncWAL()
}

// MarkRegionOnline completes a recovering open or promotion: the region
// starts serving.
func (s *RegionServer) MarkRegionOnline(regionID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrServerStopped
	}
	entry, ok := s.regions[regionID]
	if !ok {
		return fmt.Errorf("%w: %s not hosted", ErrRegionNotServing, regionID)
	}
	entry.online = true
	return nil
}

// CloseRegion removes a region copy from this server (rebalancing, or a
// follower copy being dropped).
func (s *RegionServer) CloseRegion(regionID string) {
	s.mu.Lock()
	e, ok := s.regions[regionID]
	delete(s.regions, regionID)
	s.mu.Unlock()
	if !ok {
		return
	}
	if e.rep.getRole() == RoleFollower {
		// Follower copies never own the store files they serve.
		e.r.abandoned.Store(true)
	}
	if s.repl != nil && e.rep.getRole() == RolePrimary {
		s.repl.DropRegion(regionID)
	}
}

// CloseAndFlushRegion takes a region offline on this server and flushes its
// memstore so that the store files carry the region's full state — the
// source half of a region move. It waits for in-flight writes to drain
// before flushing, so no acknowledged update is left behind in memory.
// It returns the region's final live store-file paths (region-owned files
// only, not split reference markers): the directory listing is NOT a safe
// substitute, because it can still contain compaction inputs that are
// retired but waiting for a slow reader's view to drain before deletion.
func (s *RegionServer) CloseAndFlushRegion(regionID string) ([]string, error) {
	s.mu.Lock()
	entry, ok := s.regions[regionID]
	delete(s.regions, regionID)
	crashed := s.crashed
	s.mu.Unlock()
	if crashed {
		return nil, ErrServerStopped
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s not hosted", ErrRegionNotServing, regionID)
	}
	s.inflight.wait()     // writes that found the region before removal finish
	entry.r.waitReaders() // and reads: the target may unlink what they read
	if err := entry.r.Flush(s.cfg.BlockSize); err != nil {
		return nil, err
	}
	if s.repl != nil && entry.rep.getRole() == RolePrimary {
		s.repl.DropRegion(regionID)
	}
	return entry.r.storeFilePaths(), nil
}

// FlushAll flushes every hosted region's memstore (test/benchmark helper).
func (s *RegionServer) FlushAll() error {
	for _, r := range s.hostedRegions(false) {
		if err := s.flushRegion(r); err != nil {
			return err
		}
	}
	return nil
}

// flushRegion flushes one hosted region and — when the region is a
// replicated primary — brackets the flush with a replication checkpoint.
// The sequence is captured under an exclusive roll-barrier acquisition, so
// every replicated append at or below it has fully reached a memstore and
// is therefore covered by the store file the flush writes; the retained log
// can be pruned through it and followers re-anchored on the files. The
// capture itself is lock-only (no I/O, no network), so writers stall for
// nanoseconds, and the follower notifications ride the shipper's sender
// loops asynchronously.
func (s *RegionServer) flushRegion(r *Region) error {
	e, ok := s.entryFor(r.Info.ID)
	replicated := ok && s.repl != nil && e.rep.getRole() == RolePrimary
	var seq uint64
	if replicated {
		s.walMu.Lock()
		seq = s.repl.LastSeq(r.Info.ID)
		s.walMu.Unlock()
	}
	if err := r.Flush(s.cfg.BlockSize); err != nil {
		return err
	}
	if replicated {
		s.repl.Checkpoint(r.Info.ID, seq)
	}
	return nil
}

// RollWAL bounds the write-ahead log: it starts a fresh WAL generation,
// flushes every hosted region (so the old generations' edits are fully
// covered by store files), and only then deletes the old generation files.
// Without rolling, the live WAL grows with all-time writes and pins its
// blocks in the DFS journals forever — the one growth vector log compaction
// alone cannot reclaim.
//
// Crash safety: the old generations are deleted only after a successful
// flush with the server still live, so at every instant either the WAL
// entries or the store files cover each acknowledged edit; a crash
// mid-roll at worst leaves an extra (already-covered) generation for the
// master's log split to read.
func (s *RegionServer) RollWAL() error {
	s.rollMu.Lock()
	defer s.rollMu.Unlock()

	s.walMu.Lock()
	s.mu.RLock()
	old, crashed := s.wal, s.crashed
	s.mu.RUnlock()
	if crashed || old == nil {
		s.walMu.Unlock()
		return ErrServerStopped
	}
	// Persist the old generation's tail while writers are held off: once
	// the fresh generation is current, its syncs advance T_P(s), which must
	// not run past edits buffered in the old one.
	if err := s.syncWAL(old); err != nil {
		s.walMu.Unlock()
		return fmt.Errorf("server %s: roll wal: %w", s.cfg.ID, err)
	}
	s.mu.Lock()
	if s.crashed || s.wal == nil {
		s.mu.Unlock()
		s.walMu.Unlock()
		return ErrServerStopped
	}
	oldPath := walPath(s.cfg.ID, s.walGen)
	if n, err := s.fs.Size(oldPath); err == nil && n == 0 {
		s.mu.Unlock()
		s.walMu.Unlock()
		return nil // nothing logged since the last roll
	}
	nw, err := wal.Create(s.fs, walPath(s.cfg.ID, s.walGen+1))
	if err != nil {
		s.mu.Unlock()
		s.walMu.Unlock()
		return fmt.Errorf("server %s: roll wal: %w", s.cfg.ID, err)
	}
	s.wal = nw
	s.walGen++
	cur := walPath(s.cfg.ID, s.walGen)
	s.mu.Unlock()
	s.walMu.Unlock()

	_ = old.Close() // synced above, nothing buffered to drop

	// Flush regions with enough dirt to be worth a store file; carry the
	// mostly-idle ones' few edits into the fresh generation instead (a
	// skewed workload would otherwise pay a tiny store file per idle
	// region per roll, compacted away immediately — pure churn).
	// Recovering regions too: their split edits and replays are in the old
	// generations and, until they go online and flush, nowhere else.
	carried := false
	for _, r := range s.hostedRegions(true) {
		dirty, small := r.dirtyForRoll(s.cfg.RollFlushMinBytes)
		if !small {
			if err := s.flushRegion(r); err != nil {
				return err // old generations stay; the next roll retries
			}
			continue
		}
		if len(dirty) == 0 {
			continue
		}
		if err := s.appendWALEntry(WALEntry{RegionID: r.Info.ID, KVs: dirty}); err != nil {
			return err
		}
		carried = true
		s.m.flushesSkipped.Add(1)
	}
	// Follower copies journal the replicated stream too, and the entries
	// above their last checkpoint are in no store file: carry them as well,
	// or a promoted follower's later crash would find them in no WAL.
	for _, e := range s.followerEntries() {
		e.rep.mu.Lock()
		var kvs []kv.KeyValue
		for _, en := range e.rep.tail {
			kvs = append(kvs, en.KVs...)
		}
		e.rep.mu.Unlock()
		if len(kvs) == 0 {
			continue
		}
		if err := s.appendWALEntry(WALEntry{RegionID: e.r.Info.ID, KVs: kvs}); err != nil {
			return err
		}
		carried = true
	}
	// Carried edits must be durable in the new generation before the old
	// ones — until now their only durable copy — can go.
	if carried {
		if err := s.SyncWAL(); err != nil {
			return err
		}
	}
	// A crash can clear the region map mid-FlushAll, turning it into a
	// no-op — the old WAL would then be the only copy of the memstore
	// edits below the persisted threshold, so keep it for the log split.
	if s.Crashed() {
		return ErrServerStopped
	}
	for _, p := range s.fs.List(walPrefix(s.cfg.ID)) {
		if p != cur {
			_ = s.fs.Delete(p)
		}
	}
	return nil
}

// appendWALEntry appends one entry to the current WAL generation under the
// shared roll barrier (the carry-forward path of RollWAL; concurrent with
// writers, never with a roll's generation swap).
func (s *RegionServer) appendWALEntry(e WALEntry) error {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	s.mu.RLock()
	w, crashed := s.wal, s.crashed
	s.mu.RUnlock()
	if crashed || w == nil {
		return ErrServerStopped
	}
	return w.Append(EncodeWALEntry(e))
}

// compactionHorizon resolves the version-GC horizon for a compaction.
func (s *RegionServer) compactionHorizon() kv.Timestamp {
	if s.cfg.HorizonSource != nil {
		return s.cfg.HorizonSource()
	}
	return s.cfg.CompactionHorizon
}

// CompactAll runs one size-tiered compaction round over every hosted
// region, hottest first, using the configured version-GC horizon. It is the
// storage janitor's entry point: together with dfs.CompactLogs it bounds
// steady-state disk usage (retired store files free their DFS blocks, and
// the next log compaction reclaims the block-journal bytes). Heat ordering
// means the regions whose reads benefit most from a smaller file fan-out
// (and from v1 files gaining bloom filters) are rewritten before cold ones.
func (s *RegionServer) CompactAll() error {
	regions := s.hostedRegions(false)
	sort.SliceStable(regions, func(i, j int) bool {
		return regionHotness(regions[i]) > regionHotness(regions[j])
	})
	for _, r := range regions {
		if _, err := r.CompactTiered(s.cfg.BlockSize, s.compactionHorizon()); err != nil {
			return err
		}
	}
	return nil
}

// regionHotness scores a region for compaction priority: reads served from
// files and outright misses are exactly the operations a compaction (fewer
// files, bloom filters) speeds up; scans weigh in for fan-out reduction.
func regionHotness(r *Region) int64 {
	h := r.Heat()
	return h.FileHits + h.Misses + h.Scans
}

// Crash simulates a crash failure: background loops stop, the WAL buffer
// (unsynced tail) is lost, and all in-memory region state is dropped.
func (s *RegionServer) Crash() {
	s.mu.Lock()
	s.crashed = true
	w := s.wal
	s.wal = nil
	// Late view drains from this incarnation must not unlink store files:
	// the regions reassign to live servers that rediscover the files by
	// listing, retired-but-undrained ones included.
	for _, e := range s.regions {
		e.r.abandoned.Store(true)
	}
	s.regions = make(map[string]*regionEntry)
	s.mu.Unlock()
	if w != nil {
		w.Close() // drops the unsynced buffer
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// Stop shuts the server down cleanly: the WAL is synced first, so no data
// is lost and no recovery is needed.
func (s *RegionServer) Stop() {
	_ = s.SyncWAL()
	s.mu.Lock()
	s.crashed = true
	w := s.wal
	s.wal = nil
	s.mu.Unlock()
	if w != nil {
		w.Close()
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// Crashed reports whether the server has crashed or stopped.
func (s *RegionServer) Crashed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.crashed
}

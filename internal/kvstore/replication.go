package kvstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"txkv/internal/kv"
)

// Region replication (primary/backup). A replicated region has one primary
// copy — the assigned, online region every existing code path already knows —
// plus N-1 follower copies on other servers. The primary journals every
// applied write-set portion to its followers as a per-region, epoch-stamped,
// monotonically sequenced stream and waits for a majority of the replica set
// (itself included) to acknowledge before the write is acknowledged upstream.
// Followers apply the stream into their own memstore replica (journaling it
// in their own WAL, so a promoted follower's subsequent death is covered by
// the ordinary log split) and serve bounded-staleness snapshot reads off the
// replicated frontier. The master grants epoch-numbered leader leases,
// detects primary death via the existing heartbeat machinery, promotes the
// most-caught-up follower with a bumped epoch, and the epoch check below
// fences the deposed primary: it can never again reach quorum, so it can
// never acknowledge a write after the promotion.
//
// The engine that ships the stream (fan-out, quorum accounting, retained-log
// pruning, catch-up) lives in internal/replica; this file defines the seam —
// the interfaces the server calls out through and the follower-side entry
// points the master and the shipper call in through.

// RegionRole is a hosted region copy's replication role.
type RegionRole int32

const (
	// RoleNone is an unreplicated region — the ReplicationFactor<=1
	// fast path; nothing in the write path changes.
	RoleNone RegionRole = iota
	// RolePrimary serves reads and writes and ships its WAL stream.
	RolePrimary
	// RoleFollower applies the replicated stream and serves only
	// bounded-staleness reads; it is never online in the assignment sense.
	RoleFollower
)

func (r RegionRole) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	default:
		return "none"
	}
}

// ReplEntry is one record of a region's replicated stream: the versioned
// cells of one write-set portion, stamped with the per-region sequence
// number the primary's shipper assigned. The epoch travels per call, not per
// entry — a single append batch is always from one primary incarnation.
type ReplEntry struct {
	Seq uint64
	KVs []kv.KeyValue
}

// ReplicaTarget identifies one follower server: its ID (to resolve
// in-process servers) and its client-dialable address ("" = in-process
// only).
type ReplicaTarget struct {
	ServerID string
	Addr     string
}

// ReplicaPosition is a replica's place in the stream: the epoch it last
// accepted, the last contiguously applied sequence number, the checkpoint it
// is anchored on (entries <= Checkpoint are covered by store files), and the
// bounded-staleness read frontier. The master's re-election compares
// (Epoch, LastSeq) to pick the most-caught-up follower.
type ReplicaPosition struct {
	Epoch      uint64
	LastSeq    uint64
	Checkpoint uint64
	FrontierTS kv.Timestamp
}

// LeaseGrant is one region's leader-lease renewal: valid only for the
// primary currently holding the given epoch, for TTL from receipt. TTLs
// (not absolute deadlines) cross the wire so the grant never depends on
// clock agreement between master and server.
type LeaseGrant struct {
	Epoch uint64
	TTL   time.Duration
}

// Replicator is the primary-side shipping engine (internal/replica.Shipper).
// The region server calls out through this interface so kvstore never
// imports the replica package.
type Replicator interface {
	// SetFollowers installs (or repairs) the follower set of a region this
	// server primaries, at the given epoch. Senders start shipping from
	// each follower's acknowledged position; a brand-new region is created
	// with an empty retained log.
	SetFollowers(regionID string, epoch uint64, followers []ReplicaTarget)
	// Replicate assigns the next sequence number, appends the entry to the
	// retained log, and blocks until a majority of the replica set (the
	// primary counts as one) has acknowledged it. ErrStaleEpoch reports
	// the region was fenced by a newer primary.
	Replicate(regionID string, kvs []kv.KeyValue) error
	// LastSeq returns the last sequence number assigned to the region's
	// stream (0 if the region is unknown). Flush checkpoints capture it
	// under the roll barrier, when no append is in flight.
	LastSeq(regionID string) uint64
	// Checkpoint records that the primary's store files now cover every
	// entry <= seq: the retained log is pruned through seq and followers
	// are told to re-anchor on the files.
	Checkpoint(regionID string, seq uint64)
	// AdoptRegion seeds the shipper with a promoted follower's stream
	// state: its epoch, position, checkpoint anchor, and retained tail.
	AdoptRegion(regionID string, epoch, lastSeq, checkpoint uint64, tail []ReplEntry)
	// DropRegion discards a region's shipping state (close/move).
	DropRegion(regionID string)
}

// FollowerLink is the primary's handle to one follower server — the
// transport seam of the shipping path. In-process links call the follower
// *RegionServer directly through the simulated network; internal/rpc's link
// speaks RAppendEntries/RCheckpoint over TCP.
type FollowerLink interface {
	ServerID() string
	// AppendEntries applies a contiguous batch to the follower's copy of
	// the region and returns the follower's last applied sequence number.
	// tipSeq is the primary's latest assigned sequence at send time; when
	// the batch brings the follower up to tipSeq, safeTS advances its
	// bounded-staleness read frontier (the primary's safe-snapshot horizon
	// is only meaningful on a fully caught-up follower). An empty batch is
	// a frontier heartbeat.
	AppendEntries(regionID string, epoch uint64, entries []ReplEntry, tipSeq uint64, safeTS kv.Timestamp) (uint64, error)
	// Checkpoint re-anchors the follower on the primary's store files:
	// everything <= seq is durable there, so the follower reopens its copy
	// from the DFS listing and drops its retained tail through seq.
	Checkpoint(regionID string, epoch, seq uint64) error
	Close()
}

// LinkDialer resolves a follower target into a live link.
type LinkDialer func(t ReplicaTarget) (FollowerLink, error)

// replState is a hosted region copy's replication state, embedded in its
// regionEntry. The atomics are read on hot paths (role on every findRegion,
// frontier on every follower read) without taking locks; mu serializes the
// follower-side stream operations (append, checkpoint re-anchor, promote),
// which the shipper already orders per (region, follower) but which promotion
// and repair can race against.
type replState struct {
	role       atomic.Int32
	epoch      atomic.Uint64
	lastSeq    atomic.Uint64 // follower: last contiguously applied seq
	checkpoint atomic.Uint64 // follower: store-file anchor
	frontier   atomic.Uint64 // follower: max readable snapshot TS
	leaseUntil atomic.Int64  // primary: lease expiry, unixnano (0 = no lease)

	mu   sync.Mutex
	tail []ReplEntry // follower: retained entries since checkpoint (mu)
}

func (rs *replState) getRole() RegionRole { return RegionRole(rs.role.Load()) }

func (rs *replState) advanceFrontier(ts kv.Timestamp) {
	for {
		cur := rs.frontier.Load()
		if uint64(ts) <= cur || rs.frontier.CompareAndSwap(cur, uint64(ts)) {
			return
		}
	}
}

// leaseValid reports whether the primary's lease covers now. A region that
// never received a lease (leaseUntil 0) is not lease-gated — the
// unreplicated and in-process paths never grant one.
func (rs *replState) leaseValid(now time.Time) bool {
	until := rs.leaseUntil.Load()
	return until == 0 || now.UnixNano() <= until
}

// SetReplicator attaches the shipping engine. Must be called before the
// server hosts any replicated primary.
func (s *RegionServer) SetReplicator(r Replicator) { s.repl = r }

// entryFor returns the hosted entry of a region ID.
func (s *RegionServer) entryFor(regionID string) (*regionEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.regions[regionID]
	return e, ok
}

// OpenRegionFollower opens a follower copy of a region on this server (see
// RegionHost). An existing follower copy is replaced (idempotent re-open);
// an existing primary or unreplicated copy is an error — the master never
// places a follower where the primary lives.
func (s *RegionServer) OpenRegionFollower(info RegionInfo, epoch uint64) error {
	if s.Crashed() {
		return ErrServerStopped
	}
	r, err := s.loadRegion(info, nil, false)
	if err != nil {
		return err
	}
	entry := &regionEntry{r: r}
	entry.rep.role.Store(int32(RoleFollower))
	entry.rep.epoch.Store(epoch)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrServerStopped
	}
	if old, ok := s.regions[info.ID]; ok {
		if old.rep.getRole() != RoleFollower {
			return fmt.Errorf("kvstore: %s already hosts %s copy of %s", s.cfg.ID, old.rep.getRole(), info.ID)
		}
		old.r.abandoned.Store(true)
	}
	s.regions[info.ID] = entry
	return nil
}

// followerEntry fetches a hosted follower copy by region ID.
func (s *RegionServer) followerEntry(regionID string) (*regionEntry, error) {
	e, ok := s.entryFor(regionID)
	if !ok {
		return nil, fmt.Errorf("%w: %s not hosted on %s", ErrRegionNotServing, regionID, s.cfg.ID)
	}
	if e.rep.getRole() != RoleFollower {
		return nil, fmt.Errorf("%w: %s is %s on %s, not follower", ErrRegionNotServing, regionID, e.rep.getRole(), s.cfg.ID)
	}
	return e, nil
}

// followerEntryAt fetches the follower copy for a stream operation at the
// given epoch. A primary copy at the same or a newer epoch means the caller
// is a deposed primary shipping to the region's new leader: that is
// ErrStaleEpoch — the caller must fence, not retry.
func (s *RegionServer) followerEntryAt(regionID string, epoch uint64) (*regionEntry, error) {
	e, ok := s.entryFor(regionID)
	if !ok {
		return nil, fmt.Errorf("%w: %s not hosted on %s", ErrRegionNotServing, regionID, s.cfg.ID)
	}
	if role := e.rep.getRole(); role != RoleFollower {
		if role == RolePrimary && e.rep.epoch.Load() >= epoch {
			s.m.staleEpochRejects.Add(1)
			return nil, fmt.Errorf("%w: %s is primary at epoch %d on %s",
				ErrStaleEpoch, regionID, e.rep.epoch.Load(), s.cfg.ID)
		}
		return nil, fmt.Errorf("%w: %s is %s on %s, not follower", ErrRegionNotServing, regionID, role, s.cfg.ID)
	}
	return e, nil
}

// AppendReplicated applies a contiguous batch of the region's replicated
// stream to this server's follower copy: journal each entry in the local WAL
// (so a promoted follower's later death is covered by the ordinary log
// split), apply it to the memstore replica, retain it in the tail for the
// next checkpoint re-anchor, and advance the read frontier. Returns the
// follower's last applied sequence number — on ErrReplicaGap the shipper
// rewinds to it and resends.
func (s *RegionServer) AppendReplicated(regionID string, epoch uint64, entries []ReplEntry, tipSeq uint64, safeTS kv.Timestamp) (uint64, error) {
	// Shared roll barrier, exactly like the primary write path: the WAL
	// append and the memstore apply stay on one side of any roll.
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	s.mu.RLock()
	w, crashed := s.wal, s.crashed
	s.mu.RUnlock()
	if crashed || w == nil {
		return 0, ErrServerStopped
	}
	e, err := s.followerEntryAt(regionID, epoch)
	if err != nil {
		return 0, err
	}
	rep := &e.rep
	rep.mu.Lock()
	defer rep.mu.Unlock()
	cur := rep.epoch.Load()
	if epoch < cur {
		s.m.staleEpochRejects.Add(1)
		return rep.lastSeq.Load(), fmt.Errorf("%w: %s epoch %d < %d", ErrStaleEpoch, regionID, epoch, cur)
	}
	if epoch > cur {
		rep.epoch.Store(epoch)
	}
	last := rep.lastSeq.Load()
	applied := 0
	for _, en := range entries {
		if en.Seq <= last {
			continue // duplicate resend; application is idempotent anyway
		}
		if en.Seq != last+1 {
			return last, fmt.Errorf("%w: %s expects %d, got %d", ErrReplicaGap, regionID, last+1, en.Seq)
		}
		if err := w.Append(EncodeWALEntry(WALEntry{RegionID: regionID, KVs: en.KVs})); err != nil {
			return last, err
		}
		e.r.Apply(en.KVs)
		rep.tail = append(rep.tail, en)
		last = en.Seq
		rep.lastSeq.Store(last)
		for _, x := range en.KVs {
			rep.advanceFrontier(x.TS)
		}
		applied++
	}
	// The primary's safe-snapshot horizon only bounds this copy's staleness
	// once it holds everything the primary assigned up to that horizon.
	if safeTS > 0 && last == tipSeq {
		rep.advanceFrontier(safeTS)
	}
	s.m.replAppends.Add(1)
	s.m.replEntriesApplied.Add(int64(applied))
	return last, nil
}

// ApplyReplCheckpoint re-anchors this server's follower copy on the
// primary's store files: entries <= seq are durable there, so the copy
// reopens from the DFS listing and re-applies only the retained tail beyond
// seq. A higher epoch resets the stream entirely (a new primary incarnation
// numbers from its own origin — the region-move path).
func (s *RegionServer) ApplyReplCheckpoint(regionID string, epoch, seq uint64) error {
	e, err := s.followerEntryAt(regionID, epoch)
	if err != nil {
		return err
	}
	rep := &e.rep
	rep.mu.Lock()
	defer rep.mu.Unlock()
	cur := rep.epoch.Load()
	if epoch < cur {
		s.m.staleEpochRejects.Add(1)
		return fmt.Errorf("%w: %s epoch %d < %d", ErrStaleEpoch, regionID, epoch, cur)
	}
	reset := epoch > cur
	if !reset && seq <= rep.checkpoint.Load() && rep.lastSeq.Load() >= seq {
		return nil // already anchored at or past this point
	}
	fresh, err := s.loadRegion(e.r.Info, nil, false)
	if err != nil {
		return err
	}
	var kept []ReplEntry
	if !reset {
		for _, en := range rep.tail {
			if en.Seq > seq {
				fresh.Apply(en.KVs)
				kept = append(kept, en)
			}
		}
	}
	old := e.r
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return ErrServerStopped
	}
	e.r = fresh
	s.mu.Unlock()
	// The old copy's views must never unlink store files as they drain —
	// the primary owns them.
	old.abandoned.Store(true)
	if reset {
		rep.epoch.Store(epoch)
		rep.lastSeq.Store(seq)
	} else if rep.lastSeq.Load() < seq {
		rep.lastSeq.Store(seq)
	}
	rep.checkpoint.Store(seq)
	rep.tail = kept
	s.m.replCheckpoints.Add(1)
	return nil
}

// PromoteRegion flips this server's follower copy into the region's primary
// at a strictly higher epoch (see RegionHost): epoch check, role and lease
// install, and stream-state adoption into the shipper, so surviving
// followers resume from the new primary's stream. The region stays
// recovering until MarkRegionOnline.
func (s *RegionServer) PromoteRegion(regionID string, epoch uint64, leaseTTL time.Duration) error {
	e, err := s.followerEntry(regionID)
	if err != nil {
		return err
	}
	// The copy's stream is journaled in this server's WAL, but a lagging
	// follower may hold entries its last sync missed although T_P(s)
	// already passed them. Once primary it is their only holder (the old
	// primary's WAL is not split), so make them durable first.
	if err := s.SyncWAL(); err != nil {
		return err
	}
	rep := &e.rep
	rep.mu.Lock()
	cur := rep.epoch.Load()
	if epoch <= cur {
		rep.mu.Unlock()
		s.m.staleEpochRejects.Add(1)
		return fmt.Errorf("%w: promote %s at epoch %d <= %d", ErrStaleEpoch, regionID, epoch, cur)
	}
	rep.epoch.Store(epoch)
	rep.role.Store(int32(RolePrimary))
	if leaseTTL > 0 {
		rep.leaseUntil.Store(time.Now().Add(leaseTTL).UnixNano())
	}
	tail := rep.tail
	rep.tail = nil
	lastSeq, checkpoint := rep.lastSeq.Load(), rep.checkpoint.Load()
	rep.mu.Unlock()
	if s.repl != nil {
		s.repl.AdoptRegion(regionID, epoch, lastSeq, checkpoint, tail)
	}
	s.m.replPromotions.Add(1)
	return nil
}

// SetReplication marks a hosted region as the replicated primary at the
// given epoch, installs its follower set in the shipper, and grants/extends
// its leader lease (see RegionHost).
func (s *RegionServer) SetReplication(regionID string, epoch uint64, followers []ReplicaTarget, leaseTTL time.Duration) error {
	e, ok := s.entryFor(regionID)
	if !ok {
		return fmt.Errorf("%w: %s not hosted on %s", ErrRegionNotServing, regionID, s.cfg.ID)
	}
	rep := &e.rep
	rep.mu.Lock()
	if rep.getRole() == RoleFollower {
		rep.mu.Unlock()
		return fmt.Errorf("%w: %s is a follower copy on %s", ErrRegionNotServing, regionID, s.cfg.ID)
	}
	cur := rep.epoch.Load()
	if epoch < cur {
		rep.mu.Unlock()
		s.m.staleEpochRejects.Add(1)
		return fmt.Errorf("%w: set-replication %s at epoch %d < %d", ErrStaleEpoch, regionID, epoch, cur)
	}
	rep.epoch.Store(epoch)
	rep.role.Store(int32(RolePrimary))
	if leaseTTL > 0 {
		rep.leaseUntil.Store(time.Now().Add(leaseTTL).UnixNano())
	}
	rep.mu.Unlock()
	if s.repl == nil {
		return fmt.Errorf("kvstore: server %s has no replicator", s.cfg.ID)
	}
	s.repl.SetFollowers(regionID, epoch, followers)
	return nil
}

// RenewLeases extends the leader leases of this server's replicated
// primaries (see RegionHost). A grant whose epoch does not match the copy's
// current epoch is ignored — it was issued for a deposed incarnation.
func (s *RegionServer) RenewLeases(grants map[string]LeaseGrant) error {
	s.mu.RLock()
	crashed := s.crashed
	s.mu.RUnlock()
	if crashed {
		return ErrServerStopped
	}
	for regionID, g := range grants {
		e, ok := s.entryFor(regionID)
		if !ok || e.rep.getRole() != RolePrimary || e.rep.epoch.Load() != g.Epoch {
			continue
		}
		e.rep.leaseUntil.Store(time.Now().Add(g.TTL).UnixNano())
	}
	return nil
}

// ReplicaPos reports a hosted copy's stream position (see RegionHost).
// Works for both roles: followers report their applied position, primaries
// report the shipper's assigned position.
func (s *RegionServer) ReplicaPos(regionID string) (ReplicaPosition, error) {
	e, ok := s.entryFor(regionID)
	if !ok {
		return ReplicaPosition{}, fmt.Errorf("%w: %s not hosted on %s", ErrRegionNotServing, regionID, s.cfg.ID)
	}
	rep := &e.rep
	pos := ReplicaPosition{
		Epoch:      rep.epoch.Load(),
		LastSeq:    rep.lastSeq.Load(),
		Checkpoint: rep.checkpoint.Load(),
		FrontierTS: kv.Timestamp(rep.frontier.Load()),
	}
	if rep.getRole() == RolePrimary && s.repl != nil {
		pos.LastSeq = s.repl.LastSeq(regionID)
	}
	return pos, nil
}

// ReplicaState is one hosted copy's replication status — the /debug/regions
// role/lag surface.
type ReplicaState struct {
	Info       RegionInfo
	Role       RegionRole
	Online     bool
	Epoch      uint64
	LastSeq    uint64
	Checkpoint uint64
	FrontierTS kv.Timestamp
	// LeaseRemaining is the primary's remaining lease (negative =
	// expired, 0 = not lease-gated).
	LeaseRemaining time.Duration
}

// ReplicaStates snapshots every hosted copy's replication status, follower
// copies included (RegionHeats deliberately covers online regions only).
func (s *RegionServer) ReplicaStates() []ReplicaState {
	s.mu.RLock()
	entries := make([]*regionEntry, 0, len(s.regions))
	for _, e := range s.regions {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	now := time.Now()
	out := make([]ReplicaState, 0, len(entries))
	for _, e := range entries {
		rep := &e.rep
		st := ReplicaState{
			Info:       e.r.Info,
			Role:       rep.getRole(),
			Online:     e.online,
			Epoch:      rep.epoch.Load(),
			LastSeq:    rep.lastSeq.Load(),
			Checkpoint: rep.checkpoint.Load(),
			FrontierTS: kv.Timestamp(rep.frontier.Load()),
		}
		if st.Role == RolePrimary {
			if s.repl != nil {
				st.LastSeq = s.repl.LastSeq(e.r.Info.ID)
			}
			if until := rep.leaseUntil.Load(); until != 0 {
				st.LeaseRemaining = time.Unix(0, until).Sub(now)
			}
		}
		out = append(out, st)
	}
	return out
}

// followerFor returns the follower copy containing (table, row), if any.
func (s *RegionServer) followerFor(table string, row kv.Key) (*regionEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, e := range s.regions {
		if e.rep.getRole() != RoleFollower {
			continue
		}
		if e.r.Info.Table == table && e.r.Info.Range.Contains(row) {
			return e, true
		}
	}
	return nil, false
}

package kvstore

import (
	"sort"
	"time"
)

// Master-side replication orchestration: follower placement, leader leases,
// and promotion-first failover. The master is the sole epoch authority — a
// region's epoch increases exactly when its primary (re)locates, so a
// deposed primary's epoch is always stale and every follower it can still
// reach rejects it (fencing). Follower membership changes under an
// unchanged primary keep the epoch.

// replicaSet is the master's record of one region's replication group.
type replicaSet struct {
	epoch     uint64
	primary   string
	followers []string
}

// FollowerLocation names one live follower copy of a region: the in-process
// host handle plus the address remote clients dial for follower reads.
type FollowerLocation struct {
	ServerID string
	Host     RegionHost
	Addr     string
}

// replicaHostLocked returns the server's host as a ReplicaHost when the
// server is alive and replication-capable. Caller holds m.mu.
func (m *Master) replicaHostLocked(serverID string) (ReplicaHost, *serverRec, bool) {
	rec := m.servers[serverID]
	if rec == nil || !rec.alive {
		return nil, nil, false
	}
	rh, ok := rec.host.(ReplicaHost)
	return rh, rec, ok
}

// ensureReplicated brings a region's replication group up to the configured
// factor around its primary. With bumpEpoch the primary was (re)opened and
// gets a fresh epoch, so followers re-anchor instead of silently dup-skipping
// a renumbered stream; without it the call only repairs the group of the
// primary the master records, and returns if the primary moved meanwhile. A
// dead primary changes nothing: its own failure handling rebuilds the group.
// Follower copies open on distinct live servers. Best-effort — a short
// cluster runs degraded and a later call completes the group. Must be called
// without m.mu held, with the primary copy already open.
func (m *Master) ensureReplicated(info RegionInfo, primaryID string, bumpEpoch bool) {
	rf := m.cfg.ReplicationFactor
	if rf <= 1 {
		return
	}
	m.mu.Lock()
	prh, _, ok := m.replicaHostLocked(primaryID)
	if !ok {
		m.mu.Unlock()
		return
	}
	rs := m.replicas[info.ID]
	if rs == nil {
		rs = &replicaSet{}
		m.replicas[info.ID] = rs
	}
	if bumpEpoch {
		rs.epoch++ // new primary incarnation: fence every older one
		rs.primary = primaryID
	} else if rs.primary != primaryID {
		m.mu.Unlock()
		return
	}
	epoch := rs.epoch
	// Keep surviving followers, then fill up to rf-1 with fresh picks.
	taken := map[string]bool{primaryID: true}
	var keep []string
	for _, id := range rs.followers {
		if _, _, ok := m.replicaHostLocked(id); ok && !taken[id] && len(keep) < rf-1 {
			keep = append(keep, id)
			taken[id] = true
		}
	}
	type pick struct {
		id   string
		rh   ReplicaHost
		addr string
	}
	var fresh []pick
	for _, id := range m.order {
		if len(keep)+len(fresh) >= rf-1 {
			break
		}
		if taken[id] {
			continue
		}
		if rh, rec, ok := m.replicaHostLocked(id); ok {
			fresh = append(fresh, pick{id: id, rh: rh, addr: rec.addr})
			taken[id] = true
		}
	}
	targets := make([]ReplicaTarget, 0, rf-1)
	for _, id := range keep {
		targets = append(targets, ReplicaTarget{ServerID: id, Addr: m.servers[id].addr})
	}
	ttl := m.cfg.LeaseTTL
	m.mu.Unlock()

	// Open the new follower copies (outside the lock: these are host calls).
	for _, p := range fresh {
		if err := p.rh.OpenRegionFollower(info, epoch); err != nil {
			continue // placement is best-effort; the group runs degraded
		}
		targets = append(targets, ReplicaTarget{ServerID: p.id, Addr: p.addr})
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ServerID < targets[j].ServerID })

	if err := prh.SetReplication(info.ID, epoch, targets, ttl); err != nil {
		return // primary just died: failure handling rebuilds the group
	}
	m.mu.Lock()
	if rs.primary == primaryID && rs.epoch == epoch {
		rs.followers = rs.followers[:0]
		for _, t := range targets {
			rs.followers = append(rs.followers, t.ServerID)
		}
	}
	m.mu.Unlock()
}

// promoteViaReplica attempts promotion-first failover for one region of a
// failed server: query every live follower's replicated position, promote
// the most-caught-up one at a fresh epoch (recovery-gated, like any region
// open), and repair the follower set around it. Returns false when no
// follower can be promoted — the caller falls back to WAL-split reassignment.
func (m *Master) promoteViaReplica(info RegionInfo, failedServer string, gate RecoveryGate) bool {
	m.mu.Lock()
	rs := m.replicas[info.ID]
	if rs == nil || len(rs.followers) == 0 {
		m.mu.Unlock()
		return false
	}
	type cand struct {
		id string
		rh ReplicaHost
	}
	var cands []cand
	for _, id := range rs.followers {
		if id == failedServer {
			continue
		}
		if rh, _, ok := m.replicaHostLocked(id); ok {
			cands = append(cands, cand{id: id, rh: rh})
		}
	}
	knownEpoch := rs.epoch
	ttl := m.cfg.LeaseTTL
	m.mu.Unlock()

	// Pick the follower with the highest (epoch, lastSeq): entries of one
	// epoch form a single contiguous stream, so the longest follower holds a
	// superset of every quorum-acknowledged write.
	var (
		best    cand
		bestPos ReplicaPosition
		have    bool
	)
	for _, c := range cands {
		pos, err := c.rh.ReplicaPos(info.ID)
		if err != nil {
			continue
		}
		if pos.Epoch > knownEpoch {
			knownEpoch = pos.Epoch
		}
		if !have || pos.Epoch > bestPos.Epoch ||
			(pos.Epoch == bestPos.Epoch && pos.LastSeq > bestPos.LastSeq) {
			best, bestPos, have = c, pos, true
		}
	}
	if !have {
		return false
	}
	newEpoch := knownEpoch + 1
	var preOnline func() error
	if gate != nil {
		host, _ := best.rh.(RegionHost)
		preOnline = func() error { return gate.RecoverRegion(info, failedServer, host) }
	}
	if err := best.rh.PromoteRegion(info.ID, newEpoch, ttl, preOnline); err != nil {
		return false
	}
	m.mu.Lock()
	m.assign[info.ID] = best.id
	delete(m.recovering, info.ID)
	rs.epoch = newEpoch
	rs.primary = best.id
	kept := rs.followers[:0]
	for _, id := range rs.followers {
		if id != best.id && id != failedServer {
			kept = append(kept, id)
		}
	}
	rs.followers = kept
	m.mu.Unlock()

	m.ensureReplicated(info, best.id, false)
	return true
}

// repairFollowerLoss rebuilds every replication group that lost a follower
// (not its primary) to the failed server: the dead member is dropped and
// ensureReplicated refills the group — under the same epoch, since the
// primary did not move.
func (m *Master) repairFollowerLoss(failedServer string) {
	type job struct {
		info    RegionInfo
		primary string
	}
	var jobs []job
	m.mu.Lock()
	for regionID, rs := range m.replicas {
		hit := false
		kept := rs.followers[:0]
		for _, id := range rs.followers {
			if id == failedServer {
				hit = true
				continue
			}
			kept = append(kept, id)
		}
		rs.followers = kept
		if _, _, ok := m.replicaHostLocked(rs.primary); !hit || !ok {
			continue // a dead primary's own failure handling rebuilds the group
		}
		if info, ok := m.regionInfoLocked(regionID); ok {
			jobs = append(jobs, job{info: info, primary: rs.primary})
		}
	}
	m.mu.Unlock()
	for _, j := range jobs {
		m.ensureReplicated(j.info, j.primary, false)
	}
}

// regionInfoLocked resolves a region ID to its metadata. Caller holds m.mu.
func (m *Master) regionInfoLocked(regionID string) (RegionInfo, bool) {
	for _, regions := range m.tables {
		for _, info := range regions {
			if info.ID == regionID {
				return info, true
			}
		}
	}
	return RegionInfo{}, false
}

// dropReplicaGroup forgets a region's replication group and closes its
// follower copies — the region is being retired (split into daughters).
// Must be called without m.mu held.
func (m *Master) dropReplicaGroup(regionID string) {
	m.mu.Lock()
	rs := m.replicas[regionID]
	if rs == nil {
		m.mu.Unlock()
		return
	}
	delete(m.replicas, regionID)
	var hosts []RegionHost
	for _, id := range rs.followers {
		if rec := m.servers[id]; rec != nil && rec.alive {
			hosts = append(hosts, rec.host)
		}
	}
	m.mu.Unlock()
	for _, h := range hosts {
		h.CloseRegion(regionID)
	}
}

// renewLeases pushes fresh leader leases to every live primary, batched per
// server, from the liveness loop. Sends are asynchronous with a per-server
// in-flight guard so one stuck server cannot stall failure detection.
func (m *Master) renewLeases() {
	if m.cfg.ReplicationFactor <= 1 {
		return
	}
	ttl := m.cfg.LeaseTTL
	m.mu.Lock()
	grants := make(map[string]map[string]LeaseGrant)
	for regionID, rs := range m.replicas {
		if rs.primary == "" || m.assign[regionID] != rs.primary {
			continue
		}
		g := grants[rs.primary]
		if g == nil {
			g = make(map[string]LeaseGrant)
			grants[rs.primary] = g
		}
		g[regionID] = LeaseGrant{Epoch: rs.epoch, TTL: ttl}
	}
	type send struct {
		rh  ReplicaHost
		rec *serverRec
		g   map[string]LeaseGrant
	}
	var sends []send
	for sid, g := range grants {
		rh, rec, ok := m.replicaHostLocked(sid)
		if !ok || rec.leaseInFlight {
			continue
		}
		rec.leaseInFlight = true
		sends = append(sends, send{rh: rh, rec: rec, g: g})
	}
	m.mu.Unlock()
	for _, s := range sends {
		s := s
		go func() {
			_ = s.rh.RenewLeases(s.g)
			m.mu.Lock()
			s.rec.leaseInFlight = false
			m.mu.Unlock()
		}()
	}
}

// ReplicaEpoch reports the master's current epoch for a region (0 when the
// region has no replication group). Fault-injection tests use it to assert
// fencing boundaries.
func (m *Master) ReplicaEpoch(regionID string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rs := m.replicas[regionID]; rs != nil {
		return rs.epoch
	}
	return 0
}

// leaseTTLDefault ties the default lease to failure detection: the TTL
// equals the heartbeat timeout, and renewals arrive every CheckInterval
// (several per TTL). Under a partition both flows stop together, so the
// deposed primary's lease self-expires no later than the moment the master
// has waited out the heartbeat timeout and begun promoting a successor —
// reads off a deposed primary are bounded by one TTL, and writes are fenced
// by epoch the instant the promotion lands.
func leaseTTLDefault(hb time.Duration) time.Duration { return hb }

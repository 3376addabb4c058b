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

// liveLocked returns a server's record when the server is alive. Caller
// holds m.mu.
func (m *Master) liveLocked(serverID string) (*serverRec, bool) {
	rec := m.servers[serverID]
	return rec, rec != nil && rec.alive
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
	prec, ok := m.liveLocked(primaryID)
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
		if _, ok := m.liveLocked(id); ok && !taken[id] && len(keep) < rf-1 {
			keep = append(keep, id)
			taken[id] = true
		}
	}
	var fresh []*serverRec
	for _, id := range m.order {
		if len(keep)+len(fresh) >= rf-1 {
			break
		}
		if rec, ok := m.liveLocked(id); ok && !taken[id] {
			fresh = append(fresh, rec)
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
	for _, rec := range fresh {
		if err := rec.host.OpenRegionFollower(info, epoch); err != nil {
			continue // placement is best-effort; the group runs degraded
		}
		targets = append(targets, ReplicaTarget{ServerID: rec.host.ID(), Addr: rec.addr})
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ServerID < targets[j].ServerID })

	if err := prec.host.SetReplication(info.ID, epoch, targets, ttl); err != nil {
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
// the most-caught-up one at a fresh epoch, bring it online through the
// recovery gate like any recovered region, and repair the follower set
// around it. Returns false when no follower can be promoted — the caller
// falls back to WAL-split reassignment.
func (m *Master) promoteViaReplica(info RegionInfo, failedServer string) bool {
	m.mu.Lock()
	rs := m.replicas[info.ID]
	if rs == nil || len(rs.followers) == 0 {
		m.mu.Unlock()
		return false
	}
	var cands []RegionHost
	for _, id := range rs.followers {
		if rec, ok := m.liveLocked(id); ok && id != failedServer {
			cands = append(cands, rec.host)
		}
	}
	knownEpoch := rs.epoch
	ttl := m.cfg.LeaseTTL
	m.mu.Unlock()

	// Pick the follower with the highest (epoch, lastSeq): entries of one
	// epoch form a single contiguous stream, so the longest follower holds a
	// superset of every quorum-acknowledged write.
	var (
		best    RegionHost
		bestPos ReplicaPosition
	)
	for _, c := range cands {
		pos, err := c.ReplicaPos(info.ID)
		if err != nil {
			continue
		}
		if pos.Epoch > knownEpoch {
			knownEpoch = pos.Epoch
		}
		if best == nil || pos.Epoch > bestPos.Epoch ||
			(pos.Epoch == bestPos.Epoch && pos.LastSeq > bestPos.LastSeq) {
			best, bestPos = c, pos
		}
	}
	if best == nil {
		return false
	}
	newEpoch := knownEpoch + 1
	if err := best.PromoteRegion(info.ID, newEpoch, ttl); err != nil {
		return false
	}
	err := m.bringOnline(best, info, failedServer)
	bestID := best.ID()
	m.mu.Lock()
	// The promoted copy is no follower any more: either it is the primary
	// or, after a failed gate, closed, and the fallback's group repair
	// places a fresh follower.
	kept := rs.followers[:0]
	for _, id := range rs.followers {
		if id != bestID && id != failedServer {
			kept = append(kept, id)
		}
	}
	rs.followers = kept
	if err == nil {
		m.assign[info.ID] = bestID
		delete(m.recovering, info.ID)
		rs.epoch = newEpoch
		rs.primary = bestID
	}
	m.mu.Unlock()
	if err != nil {
		return false
	}
	m.ensureReplicated(info, bestID, false)
	return true
}

// refillReplicas brings every replication group whose primary is alive back
// to the replication factor: ensureReplicated drops its dead followers and
// places fresh copies on live servers, under the same epoch, since the
// primary did not move. A dead primary's group is left to that server's
// failure handling. It runs after every failure and every registration, so
// a server that joins later takes the copies a failure left short.
func (m *Master) refillReplicas() {
	rf := m.cfg.ReplicationFactor
	if rf <= 1 {
		return
	}
	m.refillMu.Lock()
	defer m.refillMu.Unlock()
	type job struct {
		info    RegionInfo
		primary string
	}
	var jobs []job
	m.mu.Lock()
	live := 0
	for _, rec := range m.servers {
		if rec.alive {
			live++
		}
	}
	for _, regions := range m.tables {
		for _, info := range regions {
			rs := m.replicas[info.ID]
			if rs == nil {
				continue
			}
			if _, ok := m.liveLocked(rs.primary); !ok {
				continue
			}
			up := 0
			for _, id := range rs.followers {
				if _, ok := m.liveLocked(id); ok {
					up++
				}
			}
			// Short of a live follower, or of one that a free live server
			// could add.
			if up < len(rs.followers) || up < rf-1 && up+1 < live {
				jobs = append(jobs, job{info: info, primary: rs.primary})
			}
		}
	}
	m.mu.Unlock()
	for _, j := range jobs {
		m.ensureReplicated(j.info, j.primary, false)
	}
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
		rec *serverRec
		g   map[string]LeaseGrant
	}
	var sends []send
	for sid, g := range grants {
		rec, ok := m.liveLocked(sid)
		if !ok || rec.leaseInFlight {
			continue
		}
		rec.leaseInFlight = true
		sends = append(sends, send{rec: rec, g: g})
	}
	m.mu.Unlock()
	for _, s := range sends {
		s := s
		go func() {
			_ = s.rec.host.RenewLeases(s.g)
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

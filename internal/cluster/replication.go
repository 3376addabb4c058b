package cluster

import (
	"fmt"
	"sort"

	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/replica"
	"txkv/internal/rpc"
)

// Region replication in the integrated cluster: every region server gets a
// shipping engine (internal/replica) whose follower links resolve through
// the cluster — in-process servers get direct calls, region-server
// processes that registered over the wire get rpc links through the shared
// outbound pool. The master drives membership, leases, and failover; this
// file only wires the plumbing and the replica_* metric families.

// directFollowerLink calls a co-resident region server's replication
// surface in-process.
type directFollowerLink struct {
	id  string
	srv *kvstore.RegionServer
}

func (l directFollowerLink) ServerID() string { return l.id }

func (l directFollowerLink) AppendEntries(regionID string, epoch uint64, entries []kvstore.ReplEntry, tipSeq uint64, safeTS kv.Timestamp) (uint64, error) {
	return l.srv.AppendReplicated(regionID, epoch, entries, tipSeq, safeTS)
}

func (l directFollowerLink) Checkpoint(regionID string, epoch, seq uint64) error {
	return l.srv.ApplyReplCheckpoint(regionID, epoch, seq)
}

func (l directFollowerLink) Close() {}

// dialFollower resolves a follower target: in-process servers directly,
// remote region-server processes over the wire-protocol pool.
func (c *Cluster) dialFollower(t kvstore.ReplicaTarget) (kvstore.FollowerLink, error) {
	c.mu.Lock()
	u := c.servers[t.ServerID]
	pool := c.rpcPool
	c.mu.Unlock()
	if u != nil {
		return directFollowerLink{id: t.ServerID, srv: u.srv}, nil
	}
	if pool != nil && t.Addr != "" {
		return rpc.NewFollowerLink(pool, t.ServerID, t.Addr), nil
	}
	return nil, fmt.Errorf("cluster: no route to follower %s", t.ServerID)
}

// newShipper builds one region server's shipping engine: the quorum wait is
// bounded well under the master's failure detection, and the frontier
// heartbeats carry the TM's safe snapshot so follower reads stay fresh on
// idle regions.
func (c *Cluster) newShipper(serverID string) *replica.Shipper {
	return replica.NewShipper(replica.Config{
		ServerID: serverID,
		Dial:     c.dialFollower,
		SafeTS:   c.tm.SafeSnapshot,
		Registry: c.obs,
	})
}

// ReplicaDebug is one /debug/regions replica row: a hosted region copy's
// role, position, and (for primaries) worst follower lag.
type ReplicaDebug struct {
	Server     string `json:"server"`
	Table      string `json:"table"`
	Region     string `json:"region"`
	Role       string `json:"role"`
	Online     bool   `json:"online"`
	Epoch      uint64 `json:"epoch"`
	LastSeq    uint64 `json:"last_seq"`
	Checkpoint uint64 `json:"checkpoint"`
	FrontierTS int64  `json:"frontier_ts"`
	LeaseMS    int64  `json:"lease_remaining_ms"`
	LagEntries int64  `json:"lag_entries"`
}

// ReplicaDebugRows snapshots every hosted region copy across live servers,
// follower copies included.
func (c *Cluster) ReplicaDebugRows() []ReplicaDebug {
	c.mu.Lock()
	units := make(map[string]*serverUnit, len(c.servers))
	for id, u := range c.servers {
		units[id] = u
	}
	c.mu.Unlock()
	var out []ReplicaDebug
	for id, u := range units {
		if u.srv.Crashed() {
			continue
		}
		for _, st := range u.srv.ReplicaStates() {
			row := ReplicaDebug{
				Server:     id,
				Table:      st.Info.Table,
				Region:     st.Info.ID,
				Role:       st.Role.String(),
				Online:     st.Online,
				Epoch:      st.Epoch,
				LastSeq:    st.LastSeq,
				Checkpoint: st.Checkpoint,
				FrontierTS: int64(st.FrontierTS),
				LeaseMS:    st.LeaseRemaining.Milliseconds(),
			}
			if st.Role == kvstore.RolePrimary && u.shipper != nil {
				row.LagEntries = u.shipper.RegionLag(st.Info.ID)
			}
			out = append(out, row)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Region != out[j].Region {
			return out[i].Region < out[j].Region
		}
		return out[i].Server < out[j].Server
	})
	return out
}

// registerReplicaMetrics exposes what the replica_* families cannot count
// as registry instruments: the lag levels over the live shippers, and the
// master's failover outcomes. The shipping, apply, fencing and read
// counters are the shippers' and servers' own instruments.
func (c *Cluster) registerReplicaMetrics() {
	reg := c.obs
	levels := func() (st replica.Stats) {
		c.mu.Lock()
		units := make([]*serverUnit, 0, len(c.servers))
		for _, u := range c.servers {
			units = append(units, u)
		}
		c.mu.Unlock()
		for _, u := range units {
			s := u.shipper.Stats()
			st.LagEntries = max(st.LagEntries, s.LagEntries)
			st.LagBytes += s.LagBytes
			st.RetainedEntries += s.RetainedEntries
		}
		return st
	}
	reg.GaugeFunc("replica.lag_entries", func() int64 { return levels().LagEntries })
	reg.GaugeFunc("replica.lag_bytes", func() int64 { return levels().LagBytes })
	reg.GaugeFunc("replica.retained_entries", func() int64 { return levels().RetainedEntries })

	reg.CounterFunc("replica.failovers", func() int64 { return c.master.FailoverStats().Failovers })
	reg.CounterFunc("replica.failover_promotions", func() int64 { return c.master.FailoverStats().RegionsPromoted })
	reg.CounterFunc("replica.failover_splits", func() int64 { return c.master.FailoverStats().RegionsSplit })
	reg.GaugeFunc("replica.failover_last_ms", func() int64 { return c.master.FailoverStats().LastFailover.Milliseconds() })
	reg.CounterFunc("replica.failover_total_ms", func() int64 { return c.master.FailoverStats().TotalFailover.Milliseconds() })
}

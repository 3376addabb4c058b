package rpc

import (
	"context"
	"time"

	"txkv/internal/kv"
	"txkv/internal/kvstore"
)

// The region-server surface: RegisterRegionService exposes one
// *kvstore.RegionServer on an rpc Server; Endpoint is the client half
// (kvstore.RegionEndpoint) the routing client reads and flushes through;
// HostProxy is the master's half (kvstore.RegionHost) driving assignment,
// splits, moves, and recovery on a region-server process.

// RegisterRegionService wires a region server's methods onto s.
func RegisterRegionService(s *Server, rs *kvstore.RegionServer) {
	s.Handle(RGet, func(ctx context.Context, _ *Session, body []byte) ([]byte, error) {
		table, row, column, maxTS, err := decGetReq(body)
		if err != nil {
			return nil, err
		}
		e, found, err := rs.Get(table, row, column, maxTS)
		if err != nil {
			return nil, err
		}
		return encGetResp(e, found), nil
	})
	s.Handle(RGetBatch, func(ctx context.Context, _ *Session, body []byte) ([]byte, error) {
		table, keys, maxTS, err := decGetBatchReq(body)
		if err != nil {
			return nil, err
		}
		kvs, found, err := rs.GetBatch(ctx, table, keys, maxTS)
		if err != nil {
			return nil, err
		}
		return encGetBatchResp(kvs, found), nil
	})
	s.Handle(RScanBatch, func(ctx context.Context, _ *Session, body []byte) ([]byte, error) {
		req, err := decScanReq(body)
		if err != nil {
			return nil, err
		}
		resp, err := rs.ScanBatch(ctx, req)
		if err != nil {
			return nil, err
		}
		return encScanResp(resp), nil
	})
	s.Handle(RApply, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		ws, piggy, hasPiggy, err := decApplyReq(body)
		if err != nil {
			return nil, err
		}
		return nil, rs.ApplyWriteSet(ws, piggy, hasPiggy)
	})
	s.Handle(ROpenRegion, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		info, files, hasFiles, edits, recovering, err := decOpenRegionReq(body)
		if err != nil {
			return nil, err
		}
		if hasFiles {
			return nil, rs.OpenRegionFiles(info, files, edits)
		}
		return nil, rs.OpenRegion(info, edits, recovering)
	})
	s.Handle(RMarkOnline, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		id, err := decStringMsg(body)
		if err != nil {
			return nil, err
		}
		return nil, rs.MarkRegionOnline(id)
	})
	s.Handle(RCloseRegion, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		id, err := decStringMsg(body)
		if err != nil {
			return nil, err
		}
		rs.CloseRegion(id)
		return nil, nil
	})
	s.Handle(RCloseFlush, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		id, err := decStringMsg(body)
		if err != nil {
			return nil, err
		}
		files, err := rs.CloseAndFlushRegion(id)
		if err != nil {
			return nil, err
		}
		return encStringsMsg(files), nil
	})
	s.Handle(RSyncWAL, func(_ context.Context, _ *Session, _ []byte) ([]byte, error) {
		return nil, rs.SyncWAL()
	})
	registerReplicationService(s, rs)
}

// registerReplicationService wires the replication surface: the master's
// replica-control calls and the primary→follower shipping calls.
func registerReplicationService(s *Server, rs *kvstore.RegionServer) {
	s.Handle(RSetReplication, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		regionID, epoch, targets, ttl, err := decSetReplicationReq(body)
		if err != nil {
			return nil, err
		}
		return nil, rs.SetReplication(regionID, epoch, targets, ttl)
	})
	s.Handle(RAppendEntries, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		regionID, epoch, entries, tipSeq, safeTS, err := decAppendEntriesReq(body)
		if err != nil {
			return nil, err
		}
		// The follower's position crosses back even on rejection (gap
		// rewind, stale-epoch fencing), so the outcome rides the response
		// frame in-band rather than as a bare error frame.
		last, aerr := rs.AppendReplicated(regionID, epoch, entries, tipSeq, safeTS)
		if aerr != nil {
			return encAppendEntriesResp(last, CodeFor(aerr), aerr.Error()), nil
		}
		return encAppendEntriesResp(last, 0, ""), nil
	})
	s.Handle(RPromote, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		regionID, epoch, ttl, err := decPromoteReq(body)
		if err != nil {
			return nil, err
		}
		return nil, rs.PromoteRegion(regionID, epoch, ttl)
	})
	s.Handle(RReplicaPos, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		regionID, err := decStringMsg(body)
		if err != nil {
			return nil, err
		}
		pos, err := rs.ReplicaPos(regionID)
		if err != nil {
			return nil, err
		}
		return encReplicaPos(pos), nil
	})
	s.Handle(ROpenFollower, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		info, epoch, err := decOpenFollowerReq(body)
		if err != nil {
			return nil, err
		}
		return nil, rs.OpenRegionFollower(info, epoch)
	})
	s.Handle(RCheckpoint, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		regionID, epoch, seq, err := decCheckpointReq(body)
		if err != nil {
			return nil, err
		}
		return nil, rs.ApplyReplCheckpoint(regionID, epoch, seq)
	})
	s.Handle(RLease, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		grants, err := decLeaseReq(body)
		if err != nil {
			return nil, err
		}
		return nil, rs.RenewLeases(grants)
	})
}

// Endpoint reaches one region-server process over TCP: the remote
// implementation of kvstore.RegionEndpoint. Connection-level failures wrap
// kvstore.ErrTransport (via Conn), which is what makes the routing client
// invalidate its layout cache and re-resolve through the master instead of
// retrying the dead address.
type Endpoint struct {
	pool *Pool
	addr string
}

// NewEndpoint returns the endpoint for a region server at addr, sharing
// the pool's connections.
func NewEndpoint(pool *Pool, addr string) *Endpoint {
	return &Endpoint{pool: pool, addr: addr}
}

// Addr returns the endpoint's routing key: the server's "host:port".
func (e *Endpoint) Addr() string { return e.addr }

func (e *Endpoint) Get(ctx context.Context, table string, row kv.Key, column string, maxTS kv.Timestamp) (kv.KeyValue, bool, error) {
	resp, err := e.pool.Call(ctx, e.addr, RGet, encGetReq(table, row, column, maxTS))
	if err != nil {
		return kv.KeyValue{}, false, err
	}
	return decGetResp(resp)
}

func (e *Endpoint) GetBatch(ctx context.Context, table string, keys []kv.CellKey, maxTS kv.Timestamp) ([]kv.KeyValue, []bool, error) {
	resp, err := e.pool.Call(ctx, e.addr, RGetBatch, encGetBatchReq(table, keys, maxTS))
	if err != nil {
		return nil, nil, err
	}
	return decGetBatchResp(resp)
}

func (e *Endpoint) ScanBatch(ctx context.Context, req kvstore.ScanRequest) (kvstore.ScanResponse, error) {
	resp, err := e.pool.Call(ctx, e.addr, RScanBatch, encScanReq(req))
	if err != nil {
		return kvstore.ScanResponse{}, err
	}
	return decScanResp(resp)
}

func (e *Endpoint) Apply(ctx context.Context, ws kv.WriteSet, piggy kv.Timestamp, hasPiggy bool) error {
	_, err := e.pool.Call(ctx, e.addr, RApply, encApplyReq(ws, piggy, hasPiggy))
	return err
}

// HostProxy is the master's handle to a region-server process: the remote
// implementation of kvstore.RegionHost, one request per method. The master
// runs the recovery gate itself, between the ROpenRegion or RPromote that
// leaves a copy recovering and the RMarkOnline that starts it serving; the
// gate's replays reach the same process through ApplyWriteSet.
type HostProxy struct {
	pool *Pool
	id   string
	addr string
}

// NewHostProxy returns the master-side proxy for region server id at addr.
func NewHostProxy(pool *Pool, id, addr string) *HostProxy {
	return &HostProxy{pool: pool, id: id, addr: addr}
}

// ID returns the remote server's ID.
func (h *HostProxy) ID() string { return h.id }

// Addr returns the remote server's advertised address.
func (h *HostProxy) Addr() string { return h.addr }

func (h *HostProxy) OpenRegion(info kvstore.RegionInfo, recoveredEdits []kvstore.WALEntry, recovering bool) error {
	_, err := h.pool.Call(context.Background(), h.addr, ROpenRegion, encOpenRegionReq(info, nil, false, recoveredEdits, recovering))
	return err
}

func (h *HostProxy) OpenRegionFiles(info kvstore.RegionInfo, files []string, recoveredEdits []kvstore.WALEntry) error {
	_, err := h.pool.Call(context.Background(), h.addr, ROpenRegion, encOpenRegionReq(info, files, true, recoveredEdits, false))
	return err
}

func (h *HostProxy) MarkRegionOnline(regionID string) error {
	_, err := h.pool.Call(context.Background(), h.addr, RMarkOnline, encStringMsg(regionID))
	return err
}

func (h *HostProxy) CloseRegion(regionID string) {
	_, _ = h.pool.Call(context.Background(), h.addr, RCloseRegion, encStringMsg(regionID))
}

func (h *HostProxy) CloseAndFlushRegion(regionID string) ([]string, error) {
	resp, err := h.pool.Call(context.Background(), h.addr, RCloseFlush, encStringMsg(regionID))
	if err != nil {
		return nil, err
	}
	return decStringsMsg(resp)
}

func (h *HostProxy) ApplyWriteSet(ws kv.WriteSet, piggy kv.Timestamp, hasPiggy bool) error {
	_, err := h.pool.Call(context.Background(), h.addr, RApply, encApplyReq(ws, piggy, hasPiggy))
	return err
}

func (h *HostProxy) OpenRegionFollower(info kvstore.RegionInfo, epoch uint64) error {
	_, err := h.pool.Call(context.Background(), h.addr, ROpenFollower, encOpenFollowerReq(info, epoch))
	return err
}

func (h *HostProxy) SetReplication(regionID string, epoch uint64, followers []kvstore.ReplicaTarget, leaseTTL time.Duration) error {
	_, err := h.pool.Call(context.Background(), h.addr, RSetReplication, encSetReplicationReq(regionID, epoch, followers, leaseTTL))
	return err
}

func (h *HostProxy) RenewLeases(grants map[string]kvstore.LeaseGrant) error {
	ctx, cancel := context.WithTimeout(context.Background(), replCallTimeout)
	defer cancel()
	_, err := h.pool.Call(ctx, h.addr, RLease, encLeaseReq(grants))
	return err
}

func (h *HostProxy) PromoteRegion(regionID string, epoch uint64, leaseTTL time.Duration) error {
	_, err := h.pool.Call(context.Background(), h.addr, RPromote, encPromoteReq(regionID, epoch, leaseTTL))
	return err
}

func (h *HostProxy) ReplicaPos(regionID string) (kvstore.ReplicaPosition, error) {
	ctx, cancel := context.WithTimeout(context.Background(), replCallTimeout)
	defer cancel()
	resp, err := h.pool.Call(ctx, h.addr, RReplicaPos, encStringMsg(regionID))
	if err != nil {
		return kvstore.ReplicaPosition{}, err
	}
	return decReplicaPos(resp)
}

// replCallTimeout bounds replication control and shipping calls so a hung
// follower cannot wedge a shipper's sender loop or the master's lease
// renewal forever. Generous relative to the quorum timeout: the quorum
// waiter gives up on its own; this only reclaims the goroutine.
const replCallTimeout = 30 * time.Second

// FollowerLink ships WAL entries to one follower region server over TCP:
// the remote implementation of kvstore.FollowerLink that shippers dial.
type FollowerLink struct {
	pool     *Pool
	serverID string
	addr     string
}

// NewFollowerLink returns a link to follower serverID at addr, sharing the
// pool's multiplexed connections with all other traffic to that server.
func NewFollowerLink(pool *Pool, serverID, addr string) *FollowerLink {
	return &FollowerLink{pool: pool, serverID: serverID, addr: addr}
}

func (l *FollowerLink) ServerID() string { return l.serverID }

// AppendEntries ships a batch. The follower's position comes back even when
// the append is rejected (that is the in-band response encoding), so the
// shipper can rewind to the follower's gap or observe its fencing epoch.
func (l *FollowerLink) AppendEntries(regionID string, epoch uint64, entries []kvstore.ReplEntry, tipSeq uint64, safeTS kv.Timestamp) (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), replCallTimeout)
	defer cancel()
	resp, err := l.pool.Call(ctx, l.addr, RAppendEntries, encAppendEntriesReq(regionID, epoch, entries, tipSeq, safeTS))
	if err != nil {
		return 0, err
	}
	last, code, msg, err := decAppendEntriesResp(resp)
	if err != nil {
		return 0, err
	}
	if code != 0 {
		return last, &RemoteError{Code: code, Msg: msg}
	}
	return last, nil
}

func (l *FollowerLink) Checkpoint(regionID string, epoch uint64, seq uint64) error {
	ctx, cancel := context.WithTimeout(context.Background(), replCallTimeout)
	defer cancel()
	_, err := l.pool.Call(ctx, l.addr, RCheckpoint, encCheckpointReq(regionID, epoch, seq))
	return err
}

// Close is a no-op: the pool owns the underlying connection and shares it
// with unary traffic to the same server.
func (l *FollowerLink) Close() {}

package rpc

import (
	"context"
	"time"

	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/obs"
)

// The master surface: layout resolution, table admin, region-server
// registration, and heartbeats. RegisterMasterService exposes a
// *kvstore.Master; MasterClient is the raw client (used by region-server
// processes to register and heartbeat, and by remote admin handles);
// TCPTransport packages the client as a kvstore.Transport so the routing
// client works unchanged against a remote master.

// heartbeatTimeout bounds one heartbeat RPC; a heartbeat that cannot land
// within it fails (the next one is at most an interval away, and the
// master's failure detector tolerates several missed beats).
const heartbeatTimeout = 2 * time.Second

// RegisterMasterService wires a master's methods onto s. pool is used to
// dial back to registering region servers (host proxies for assignment and
// recovery).
func RegisterMasterService(s *Server, m *kvstore.Master, pool *Pool) {
	s.Handle(MLocateAll, func(ctx context.Context, _ *Session, body []byte) ([]byte, error) {
		table, err := decStringMsg(body)
		if err != nil {
			return nil, err
		}
		located, err := m.LocateAll(table)
		if err != nil {
			return nil, err
		}
		locs := make([]WireLocation, 0, len(located))
		for _, rl := range located {
			wl := WireLocation{Info: rl.Info, Addr: rl.Addr}
			for _, f := range rl.Followers {
				if f.Addr == "" {
					continue // in-process follower: unreachable from a remote client
				}
				wl.FollowerAddrs = append(wl.FollowerAddrs, f.Addr)
			}
			locs = append(locs, wl)
		}
		return encLocateAllResp(locs), nil
	})
	s.Handle(MCreateTable, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		name, splits, err := decCreateTableReq(body)
		if err != nil {
			return nil, err
		}
		return nil, m.CreateTable(name, splits)
	})
	s.Handle(MSplitRegion, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		regionID, splitKey, err := decSplitRegionReq(body)
		if err != nil {
			return nil, err
		}
		return nil, m.SplitRegion(regionID, splitKey)
	})
	s.Handle(MTableRegions, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		table, err := decStringMsg(body)
		if err != nil {
			return nil, err
		}
		infos, err := m.TableRegions(table)
		if err != nil {
			return nil, err
		}
		return encRegionInfosResp(infos), nil
	})
	s.Handle(MRegister, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		serverID, addr, err := decRegisterReq(body)
		if err != nil {
			return nil, err
		}
		return nil, m.AddServerHost(NewHostProxy(pool, serverID, addr), addr)
	})
	s.Handle(MHeartbeat, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		serverID, tp, err := decHeartbeatReq(body)
		if err != nil {
			return nil, err
		}
		tf, err := m.Heartbeat(serverID, tp)
		if err != nil {
			return nil, err
		}
		return encHeartbeatResp(tf), nil
	})
}

// MasterClient calls a remote master. It implements kvstore.HeartbeatSink,
// so a region server's heartbeat loop and replay reports drive it directly.
type MasterClient struct {
	pool *Pool
	addr string
}

// NewMasterClient returns a client for the master at addr over pool.
func NewMasterClient(pool *Pool, addr string) *MasterClient {
	return &MasterClient{pool: pool, addr: addr}
}

// LocateAll resolves a table's layout: region metadata plus advertised
// server addresses.
func (m *MasterClient) LocateAll(ctx context.Context, table string) ([]WireLocation, error) {
	resp, err := m.pool.Call(ctx, m.addr, MLocateAll, encStringMsg(table))
	if err != nil {
		return nil, err
	}
	return decLocateAllResp(resp)
}

// CreateTable creates a table pre-split at the given keys.
func (m *MasterClient) CreateTable(ctx context.Context, name string, splits []kv.Key) error {
	_, err := m.pool.Call(ctx, m.addr, MCreateTable, encCreateTableReq(name, splits))
	return err
}

// SplitRegion splits an online region at splitKey.
func (m *MasterClient) SplitRegion(ctx context.Context, regionID string, splitKey kv.Key) error {
	_, err := m.pool.Call(ctx, m.addr, MSplitRegion, encSplitRegionReq(regionID, splitKey))
	return err
}

// TableRegions returns a table's region metadata.
func (m *MasterClient) TableRegions(ctx context.Context, table string) ([]kvstore.RegionInfo, error) {
	resp, err := m.pool.Call(ctx, m.addr, MTableRegions, encStringMsg(table))
	if err != nil {
		return nil, err
	}
	return decRegionInfosResp(resp)
}

// Register announces a region server to the master: the master dials back
// to addr for assignment and recovery.
func (m *MasterClient) Register(ctx context.Context, serverID, addr string) error {
	_, err := m.pool.Call(ctx, m.addr, MRegister, encRegisterReq(serverID, addr))
	return err
}

// Heartbeat sends one beat carrying the server's T_P(s) and returns the
// global T_F from the reply (kvstore.HeartbeatSink).
func (m *MasterClient) Heartbeat(serverID string, tp kv.Timestamp) (kv.Timestamp, error) {
	ctx, cancel := context.WithTimeout(context.Background(), heartbeatTimeout)
	defer cancel()
	resp, err := m.pool.Call(ctx, m.addr, MHeartbeat, encHeartbeatReq(serverID, tp))
	if err != nil {
		return 0, err
	}
	return decHeartbeatResp(resp)
}

// TCPTransport is the remote kvstore.Transport: layouts resolve through a
// TCP master, reads and flushes go directly to the region-server processes
// the layout names. It owns its connection pool; Close releases every
// connection.
type TCPTransport struct {
	pool *Pool
	mc   *MasterClient
}

// NewTCPTransport returns a transport whose master lives at masterAddr.
// reg, when non-nil, receives client-side RPC metrics.
func NewTCPTransport(masterAddr string, reg *obs.Registry) *TCPTransport {
	pool := NewPool(reg)
	return &TCPTransport{pool: pool, mc: NewMasterClient(pool, masterAddr)}
}

// Pool exposes the transport's connection pool (shared by the transaction
// client, so one process keeps one connection per server).
func (t *TCPTransport) Pool() *Pool { return t.pool }

// Master exposes the transport's master client (admin operations).
func (t *TCPTransport) Master() *MasterClient { return t.mc }

func (t *TCPTransport) LocateAll(ctx context.Context, table string) ([]kvstore.Location, error) {
	locs, err := t.mc.LocateAll(ctx, table)
	if err != nil {
		return nil, err
	}
	out := make([]kvstore.Location, 0, len(locs))
	for _, l := range locs {
		if l.Addr == "" {
			continue // no advertised address: unreachable from this process
		}
		loc := kvstore.Location{Info: l.Info, Ep: NewEndpoint(t.pool, l.Addr)}
		for _, fa := range l.FollowerAddrs {
			loc.Followers = append(loc.Followers, NewEndpoint(t.pool, fa))
		}
		out = append(out, loc)
	}
	return out, nil
}

func (t *TCPTransport) CreateTable(ctx context.Context, name string, splits []kv.Key) error {
	return t.mc.CreateTable(ctx, name, splits)
}

func (t *TCPTransport) SplitRegion(ctx context.Context, regionID string, splitKey kv.Key) error {
	return t.mc.SplitRegion(ctx, regionID, splitKey)
}

func (t *TCPTransport) TableRegions(ctx context.Context, table string) ([]kvstore.RegionInfo, error) {
	return t.mc.TableRegions(ctx, table)
}

func (t *TCPTransport) Close() error {
	t.pool.Close()
	return nil
}

package kvstore

import (
	"context"
	"sync/atomic"
	"time"

	"txkv/internal/kv"
	"txkv/internal/netsim"
)

// The transport seam. A Client routes every operation through a Transport:
// the master surface (layout resolution and admin ops) plus, per located
// region, a RegionEndpoint carrying the region-server surface (point reads,
// batched reads, scan-batch continuation paging, and write-set apply). Two
// implementations exist:
//
//   - the loopback transport below: direct method calls through the
//     simulated network, preserving the original in-process semantics
//     (latency injection, partitions, node-down errors) for every existing
//     test and embedded deployment;
//   - internal/rpc's TCP transport: the same surface over the length-
//     prefixed binary protocol documented in PROTOCOL.md, for clients in a
//     different process than the master and region servers.
//
// The seam is deliberately cut at the existing request/response structs
// (ScanRequest/ScanResponse, kv.WriteSet): the wire protocol serializes
// exactly what the in-process path already passes by value.

// RegionEndpoint is a client's handle to one region server: the per-region
// half of a Transport. Addr is the endpoint's stable routing key — the
// server ID in-process, "host:port" over TCP — used to group batched
// operations into one round trip per server. Endpoint errors that indicate
// a connection-level failure must wrap ErrTransport so the client re-
// resolves the layout instead of retrying a dead address.
type RegionEndpoint interface {
	Addr() string
	Get(ctx context.Context, table string, row kv.Key, column string, maxTS kv.Timestamp) (kv.KeyValue, bool, error)
	GetBatch(ctx context.Context, table string, keys []kv.CellKey, maxTS kv.Timestamp) ([]kv.KeyValue, []bool, error)
	ScanBatch(ctx context.Context, req ScanRequest) (ScanResponse, error)
	Apply(ctx context.Context, ws kv.WriteSet, piggy kv.Timestamp, hasPiggy bool) error
}

// Location pairs a region's metadata with the endpoint serving it — one
// entry of a transport-level layout snapshot. Followers lists live follower
// copies (when the cluster replicates): endpoints a client configured for
// follower reads may route scan batches to, falling back to Ep when a
// follower is behind or unreachable.
type Location struct {
	Info      RegionInfo
	Ep        RegionEndpoint
	Followers []RegionEndpoint
}

// Transport is the master surface a Client resolves layouts and admin
// operations through.
type Transport interface {
	// LocateAll resolves a table's full serving layout: every online
	// region, sorted by start key, each with a live endpoint.
	LocateAll(ctx context.Context, table string) ([]Location, error)
	// CreateTable creates a table pre-split at the given keys.
	CreateTable(ctx context.Context, name string, splits []kv.Key) error
	// SplitRegion splits an online region at splitKey.
	SplitRegion(ctx context.Context, regionID string, splitKey kv.Key) error
	// TableRegions returns a table's region metadata, sorted by start key.
	TableRegions(ctx context.Context, table string) ([]RegionInfo, error)
	// Close releases transport resources (connections, pools). The loopback
	// transport holds none.
	Close() error
}

// EndpointDialer turns a remote address from the master's layout into a
// live endpoint. The loopback transport uses one to serve mixed clusters
// (in-process master, out-of-process region servers): locations whose host
// is not a local *RegionServer are dialed through it.
type EndpointDialer func(addr string) (RegionEndpoint, error)

// LoopbackTransport is the in-process Transport: every call crosses the
// simulated network (paying its latency, partitions, and crash injection)
// and lands directly on the master's or region server's methods. It
// preserves the exact routing semantics the in-process cluster always had.
type LoopbackTransport struct {
	net    *netsim.Network
	master *Master
	from   string // client's node name on the simulated network
	dial   atomic.Pointer[EndpointDialer]
}

// NewLoopbackTransport returns the direct-call transport for a client named
// clientID on the simulated network.
func NewLoopbackTransport(net *netsim.Network, master *Master, clientID string) *LoopbackTransport {
	return &LoopbackTransport{net: net, master: master, from: clientID}
}

// SetDial installs the fallback dialer for locations hosted outside this
// process. Without one, such locations are omitted from layouts (clients
// treat their ranges as offline). Safe to call while the transport is in
// use: a cluster that starts serving RPC after clients exist retrofits
// their transports with the dialer.
func (t *LoopbackTransport) SetDial(d EndpointDialer) { t.dial.Store(&d) }

func (t *LoopbackTransport) LocateAll(ctx context.Context, table string) ([]Location, error) {
	var located []RegionLocation
	err := t.net.Call(ctx, t.from, MasterNode, func() error {
		var err error
		located, err = t.master.LocateAll(table)
		return err
	})
	if err != nil {
		return nil, err
	}
	dial := t.dial.Load()
	out := make([]Location, 0, len(located))
	for _, rl := range located {
		loc := Location{Info: rl.Info}
		if srv, ok := rl.Host.(*RegionServer); ok {
			loc.Ep = &loopbackEndpoint{net: t.net, from: t.from, srv: srv}
		} else if dial != nil && rl.Addr != "" {
			ep, err := (*dial)(rl.Addr)
			if err != nil {
				continue // dial failure = region offline for now; client retries
			}
			loc.Ep = ep
		} else {
			continue
		}
		for _, fl := range rl.Followers {
			if srv, ok := fl.Host.(*RegionServer); ok {
				loc.Followers = append(loc.Followers, &loopbackEndpoint{net: t.net, from: t.from, srv: srv})
			} else if dial != nil && fl.Addr != "" {
				if ep, err := (*dial)(fl.Addr); err == nil {
					loc.Followers = append(loc.Followers, ep)
				}
			}
		}
		out = append(out, loc)
	}
	return out, nil
}

func (t *LoopbackTransport) CreateTable(ctx context.Context, name string, splits []kv.Key) error {
	return t.net.Call(ctx, t.from, MasterNode, func() error {
		return t.master.CreateTable(name, splits)
	})
}

func (t *LoopbackTransport) SplitRegion(ctx context.Context, regionID string, splitKey kv.Key) error {
	return t.net.Call(ctx, t.from, MasterNode, func() error {
		return t.master.SplitRegion(regionID, splitKey)
	})
}

func (t *LoopbackTransport) TableRegions(ctx context.Context, table string) ([]RegionInfo, error) {
	var regions []RegionInfo
	err := t.net.Call(ctx, t.from, MasterNode, func() error {
		var err error
		regions, err = t.master.TableRegions(table)
		return err
	})
	return regions, err
}

func (t *LoopbackTransport) Close() error { return nil }

// loopbackEndpoint reaches one in-process region server through the
// simulated network, exactly as the pre-seam client did.
type loopbackEndpoint struct {
	net  *netsim.Network
	from string
	srv  *RegionServer
}

func (e *loopbackEndpoint) Addr() string { return e.srv.ID() }

func (e *loopbackEndpoint) Get(ctx context.Context, table string, row kv.Key, column string, maxTS kv.Timestamp) (got kv.KeyValue, found bool, err error) {
	err = e.net.Call(ctx, e.from, e.srv.ID(), func() error {
		var e2 error
		got, found, e2 = e.srv.Get(table, row, column, maxTS)
		return e2
	})
	return got, found, err
}

func (e *loopbackEndpoint) GetBatch(ctx context.Context, table string, keys []kv.CellKey, maxTS kv.Timestamp) (kvs []kv.KeyValue, found []bool, err error) {
	err = e.net.Call(ctx, e.from, e.srv.ID(), func() error {
		var e2 error
		kvs, found, e2 = e.srv.GetBatch(ctx, table, keys, maxTS)
		return e2
	})
	return kvs, found, err
}

func (e *loopbackEndpoint) ScanBatch(ctx context.Context, req ScanRequest) (resp ScanResponse, err error) {
	err = e.net.Call(ctx, e.from, e.srv.ID(), func() error {
		var e2 error
		resp, e2 = e.srv.ScanBatch(ctx, req)
		return e2
	})
	return resp, err
}

func (e *loopbackEndpoint) Apply(ctx context.Context, ws kv.WriteSet, piggy kv.Timestamp, hasPiggy bool) error {
	return e.net.Call(ctx, e.from, e.srv.ID(), func() error {
		return e.srv.ApplyWriteSet(ws, piggy, hasPiggy)
	})
}

// HeartbeatSink receives region-server heartbeats: liveness for the
// master's failure detector, carrying the server's persisted threshold
// T_P(s) and answered with the global T_F (paper Alg. 3). The Master
// implements it for in-process servers; internal/rpc's master client
// implements it for region-server processes, whose heartbeats cross the
// wire.
type HeartbeatSink interface {
	Heartbeat(serverID string, tp kv.Timestamp) (tf kv.Timestamp, err error)
}

// RegionHost is the master's handle to one region server — the surface
// region assignment, splitting, moving, replication, and failure recovery
// drive. *RegionServer implements it for in-process servers; internal/rpc's
// host proxy implements it for region-server processes, one request per
// method.
//
// Recovery runs the same sequence on both: the master opens or promotes
// the copy recovering (hosted, not serving), its recovery gate replays the
// committed write-sets into it through ApplyWriteSet, and MarkRegionOnline
// — or CloseRegion, if the gate fails — resolves the stage.
type RegionHost interface {
	ID() string
	// OpenRegion opens a region from its DFS store files plus the recovered
	// WAL edits of a log split. With recovering the copy stays hosted but
	// not serving until MarkRegionOnline.
	OpenRegion(info RegionInfo, recoveredEdits []WALEntry, recovering bool) error
	// OpenRegionFiles opens a region serving, with its store-file set given
	// explicitly — the region-move path, which is never gated.
	OpenRegionFiles(info RegionInfo, files []string, recoveredEdits []WALEntry) error
	// MarkRegionOnline starts a recovering copy serving.
	MarkRegionOnline(regionID string) error
	CloseRegion(regionID string)
	CloseAndFlushRegion(regionID string) ([]string, error)
	// ApplyWriteSet is the recovery-replay entry point (paper Alg. 4): the
	// recovery manager re-delivers committed write-sets into a recovering
	// region, with the failed server's frozen T_P piggybacked.
	ApplyWriteSet(ws kv.WriteSet, piggy kv.Timestamp, hasPiggy bool) error

	// OpenRegionFollower opens a follower copy: store files from the DFS
	// listing, an empty memstore, role follower at the given epoch. The
	// primary's first checkpoint message re-anchors it before any entries
	// flow, so a stale listing here is harmless.
	OpenRegionFollower(info RegionInfo, epoch uint64) error
	// SetReplication marks a hosted region as the primary at the given
	// epoch with the given follower set, and grants/extends its leader
	// lease.
	SetReplication(regionID string, epoch uint64, followers []ReplicaTarget, leaseTTL time.Duration) error
	// RenewLeases extends the leader leases of the regions this server
	// primaries (batched: one call per server per master tick).
	RenewLeases(grants map[string]LeaseGrant) error
	// PromoteRegion flips a follower copy into the region's primary at a
	// strictly higher epoch. The copy stays recovering until
	// MarkRegionOnline.
	PromoteRegion(regionID string, epoch uint64, leaseTTL time.Duration) error
	// ReplicaPos reports a hosted copy's stream position (re-election
	// input).
	ReplicaPos(regionID string) (ReplicaPosition, error)
}

package rpc

import (
	"context"
	"fmt"
	"net"
	"time"

	"txkv/internal/kvstore"
	"txkv/internal/obs"
	"txkv/internal/replica"
)

// registerCtx bounds the one-shot registration RPC.
func registerCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Second)
}

// RegionNode is the complete wiring of one region-server process: a
// *kvstore.RegionServer whose DFS is the master's (over RemoteFS), served
// on a TCP listener, heartbeating to and registered with a remote master.
// cmd/txkvd's region role and the multi-process tests share it.

// RegionNodeConfig configures one region-server process.
type RegionNodeConfig struct {
	// ID is the server's cluster-wide identity. Required.
	ID string
	// MasterAddr is the master process's rpc address. Required.
	MasterAddr string
	// Listen is the TCP listen address ("127.0.0.1:0" for tests).
	Listen string
	// Advertise is the address published to the master — what the master
	// and the clients dial. Defaults to the bound listen address; set it
	// when the node sits behind a proxy or NAT (the chaos harness's fault
	// proxies use this).
	Advertise string
	// Server configures the region server itself (ID and Registry are
	// overridden).
	Server kvstore.ServerConfig
	// Registry, when non-nil, receives the node's metrics: rpc, the region
	// server's (server, bloom, block cache, reclaim) and the shipper's
	// (replica).
	Registry *obs.Registry
	// MaxInflightPerConn caps concurrently-executing unary requests per
	// connection on the node's rpc server. 0 = unlimited.
	MaxInflightPerConn int
}

// RegionNode is a running region-server process' moving parts.
type RegionNode struct {
	srv     *kvstore.RegionServer
	shipper *replica.Shipper
	rpc     *Server
	pool    *Pool
	mc      *MasterClient
	ln      net.Listener
	addr    string // advertised address
}

// StartRegionNode brings a region-server process online: listen, serve the
// region surface, start the server (WAL creation goes through the remote
// DFS), and register with the master. On return the master can assign
// regions to it.
func StartRegionNode(cfg RegionNodeConfig) (*RegionNode, error) {
	if cfg.ID == "" || cfg.MasterAddr == "" {
		return nil, fmt.Errorf("rpc: region node needs ID and MasterAddr")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	pool := NewPool(cfg.Registry)
	mc := NewMasterClient(pool, cfg.MasterAddr)
	scfg := cfg.Server
	scfg.ID = cfg.ID
	scfg.Registry = cfg.Registry
	srv := kvstore.NewRegionServer(scfg, NewRemoteFS(pool, cfg.MasterAddr))

	// The node's shipping engine: follower links ride the shared pool. A
	// remote region process has no transaction manager, so SafeTS stays nil —
	// follower frontiers advance with applied commit timestamps only.
	shipper := replica.NewShipper(replica.Config{
		ServerID: cfg.ID,
		Dial: func(t kvstore.ReplicaTarget) (kvstore.FollowerLink, error) {
			return NewFollowerLink(pool, t.ServerID, t.Addr), nil
		},
		Registry: cfg.Registry,
	})
	srv.SetReplicator(shipper)
	// The levels have one source in this process: its cache and shipper.
	reg := cfg.Registry
	reg.GaugeFunc("blockcache.used_bytes", func() int64 { return int64(srv.Cache().Used()) })
	reg.GaugeFunc("replica.lag_entries", func() int64 { return shipper.Stats().LagEntries })
	reg.GaugeFunc("replica.lag_bytes", func() int64 { return shipper.Stats().LagBytes })
	reg.GaugeFunc("replica.retained_entries", func() int64 { return shipper.Stats().RetainedEntries })

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		shipper.Close()
		pool.Close()
		return nil, err
	}
	addr := cfg.Advertise
	if addr == "" {
		addr = ln.Addr().String()
	}

	rpcSrv := NewServerWithConfig(ServerConfig{Registry: cfg.Registry, MaxInflightPerConn: cfg.MaxInflightPerConn})
	RegisterRegionService(rpcSrv, srv)
	go func() { _ = rpcSrv.Serve(ln) }()

	// Start before registering: the WAL must exist (and heartbeats flow)
	// before the master can assign regions here.
	if err := srv.Start(mc); err != nil {
		rpcSrv.Close()
		shipper.Close()
		pool.Close()
		return nil, err
	}
	ctx, cancel := registerCtx()
	defer cancel()
	if err := mc.Register(ctx, cfg.ID, addr); err != nil {
		srv.Stop()
		rpcSrv.Close()
		shipper.Close()
		pool.Close()
		return nil, fmt.Errorf("rpc: register %s with master: %w", cfg.ID, err)
	}
	return &RegionNode{srv: srv, shipper: shipper, rpc: rpcSrv, pool: pool, mc: mc, ln: ln, addr: addr}, nil
}

// Server exposes the node's region server (tests, debug endpoints).
func (n *RegionNode) Server() *kvstore.RegionServer { return n.srv }

// Shipper exposes the node's replication engine (tests, debug endpoints).
func (n *RegionNode) Shipper() *replica.Shipper { return n.shipper }

// Addr returns the node's advertised address.
func (n *RegionNode) Addr() string { return n.addr }

// ListenAddr returns the node's bound listen address. It differs from Addr
// when the node advertises a proxy or NAT address in front of itself.
func (n *RegionNode) ListenAddr() string { return n.ln.Addr().String() }

// Stop shuts the node down cleanly: the region server stops (final WAL
// sync through the remote DFS), then the rpc server and connections close.
func (n *RegionNode) Stop() {
	n.srv.Stop()
	n.shipper.Close()
	n.rpc.Close()
	n.pool.Close()
}

// Kill simulates the process dying: the server crashes (no final sync) and
// every socket closes immediately. In-flight client calls observe
// transport errors; the master's failure detector notices the silence and
// recovers the node's regions elsewhere.
func (n *RegionNode) Kill() {
	n.srv.Crash()
	n.shipper.Close()
	n.rpc.Close()
	n.pool.Close()
}

package cluster

// Remote deployment wiring: one cluster process serves the wire protocol
// (ServeRPC) and everything else — region-server processes, client
// processes — connects to it over TCP.
//
// Serving side: ServeRPC exposes three services on one listener. The master
// service lets region-server processes register and clients resolve
// layouts; the DFS service gives region-server processes the shared file
// system (the simulated DFS lives wherever the master runs, like a
// co-located HDFS namenode in the paper's testbed); the transaction service
// is a gateway that runs begin/commit/abort — and the post-commit flush,
// with full recovery protection — on behalf of remote clients, so a remote
// client crash mid-flush is covered by the same middleware as a local one.
//
// Connecting side: ConnectRemote dials a served cluster and hands out
// *Client values whose reads and scans route directly to region servers
// over TCP while transactions run through the gateway. The Client API is
// identical in both modes; a remote Client simply has no local cluster
// (cluster == nil) and no recovery agent of its own.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/rpc"
	"txkv/internal/txmgr"
	"txkv/internal/watch"
)

// ErrAlreadyServing reports a second ServeRPC on one cluster.
var ErrAlreadyServing = errors.New("cluster: already serving rpc")

// ServeRPC starts serving the wire protocol on listen ("host:port";
// ":0" picks a free port) and returns the bound address. Region-server
// processes join with rpc.StartRegionNode against that address; client
// processes connect with ConnectRemote (or txkv.Connect). Serving also
// retrofits every routing client this cluster already created — and every
// future one — with a dialer for remote region servers, so a mixed layout
// (some regions local, some in other processes) routes transparently.
// The listener shuts down with Cluster.Stop.
func (c *Cluster) ServeRPC(listen string) (string, error) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return "", ErrStopped
	}
	if c.rpcSrv != nil {
		c.mu.Unlock()
		return "", ErrAlreadyServing
	}
	c.mu.Unlock()

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return "", err
	}
	pool := rpc.NewPool(c.obs)
	srv := rpc.NewServerWithConfig(rpc.ServerConfig{
		Registry:           c.obs,
		MaxInflightPerConn: c.cfg.MaxInflightPerConn,
	})
	rpc.RegisterMasterService(srv, c.master, pool)
	rpc.RegisterDFSService(srv, c.fs)
	rpc.RegisterTxnService(srv, &txnGateway{c: c, sessions: make(map[uint64]*gwSession)})
	rpc.RegisterWatchService(srv, func(table string, rng kv.KeyRange, from kv.Timestamp, owner string) (*watch.Stream, error) {
		return c.hub.Watch(watch.Filter{Table: table, Range: rng}, from, owner)
	})
	dial := kvstore.EndpointDialer(func(addr string) (kvstore.RegionEndpoint, error) {
		return rpc.NewEndpoint(pool, addr), nil
	})

	c.mu.Lock()
	if c.stopped || c.rpcSrv != nil {
		already := c.rpcSrv != nil
		c.mu.Unlock()
		ln.Close()
		pool.Close()
		if already {
			return "", ErrAlreadyServing
		}
		return "", ErrStopped
	}
	c.rpcSrv, c.rpcPool, c.rpcLn = srv, pool, ln
	c.remoteDial = dial
	kvs := make([]*kvstore.Client, 0, len(c.clients)+1)
	if c.rmKV != nil {
		kvs = append(kvs, c.rmKV)
	}
	for _, cl := range c.clients {
		kvs = append(kvs, cl.kv)
	}
	c.mu.Unlock()

	// Retrofit the dialer onto clients that predate serving (including the
	// recovery manager's), so they can reach regions that move to remote
	// servers.
	for _, kvc := range kvs {
		installDial(kvc, dial)
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// RPCAddr returns the wire-protocol listen address ("" when not serving).
func (c *Cluster) RPCAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rpcLn == nil {
		return ""
	}
	return c.rpcLn.Addr().String()
}

// installDial installs dial as the remote-endpoint fallback of a routing
// client's loopback transport (no-op for other transports).
func installDial(kvc *kvstore.Client, dial kvstore.EndpointDialer) {
	if dial == nil {
		return
	}
	if lt, ok := kvc.Transport().(*kvstore.LoopbackTransport); ok {
		lt.SetDial(dial)
	}
}

// stopRPC shuts the wire-protocol listener down (idempotent; part of Stop).
// Closing the server closes every connection, which runs session cleanups:
// gateway transactions abort, remote DFS writers are abandoned.
func (c *Cluster) stopRPC() {
	c.mu.Lock()
	srv, pool, ln := c.rpcSrv, c.rpcPool, c.rpcLn
	c.rpcSrv, c.rpcPool, c.rpcLn = nil, nil, nil
	c.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if srv != nil {
		srv.Close()
	}
	if pool != nil {
		pool.Close()
	}
}

// txnGateway implements rpc.TxnBackend: it executes remote clients'
// transactions inside the serving process. Each wire connection (rpc
// session) gets one server-side Client; its recovery agent heartbeats and
// flush tracking make the remote client's commits crash-safe — if the
// remote process (or its connection) dies after commit, the gateway client
// still owns the flush, and if the gateway client itself dies, the recovery
// manager replays (paper Alg. 2) exactly as for local clients.
type txnGateway struct {
	c *Cluster

	// seq numbers transaction handles across every session, so a handle
	// is never reused: one sent on a later connection than the one that
	// began it (a release riding a TBegin after a redial, a commit retried
	// on a new connection) names nothing there.
	seq atomic.Uint64

	mu       sync.Mutex
	sessions map[uint64]*gwSession
}

// gwSession is one connection's transaction state: the server-side client
// plus the handle table for its open transactions.
type gwSession struct {
	client *Client

	mu   sync.Mutex
	txns map[uint64]*Txn
}

// session returns (creating on first use) the state for one rpc session.
func (g *txnGateway) session(sessionID uint64, clientID string) (*gwSession, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if s := g.sessions[sessionID]; s != nil {
		return s, nil
	}
	if clientID == "" {
		clientID = "remote"
	}
	cl, err := g.c.NewClient(fmt.Sprintf("gw%d-%s", sessionID, clientID))
	if err != nil {
		return nil, err
	}
	s := &gwSession{client: cl, txns: make(map[uint64]*Txn)}
	g.sessions[sessionID] = s
	return s, nil
}

// take removes and returns an open transaction (nil if unknown or the
// session is gone).
func (g *txnGateway) take(sessionID, handle uint64) *Txn {
	g.mu.Lock()
	s := g.sessions[sessionID]
	g.mu.Unlock()
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.txns[handle]
	delete(s.txns, handle)
	return t
}

// Begin implements rpc.TxnBackend.
func (g *txnGateway) Begin(sessionID uint64, clientID string, readOnly bool, snapTS kv.Timestamp, mode int) (uint64, kv.Timestamp, error) {
	s, err := g.session(sessionID, clientID)
	if err != nil {
		return 0, 0, err
	}
	t, err := s.client.BeginTxn(TxnOptions{ReadOnly: readOnly, SnapshotTS: snapTS, Mode: SnapshotMode(mode)})
	if err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	if s.txns == nil { // session ended concurrently
		s.mu.Unlock()
		t.Abort()
		return 0, 0, txmgr.ErrTxnNotActive
	}
	h := g.seq.Add(1)
	s.txns[h] = t
	s.mu.Unlock()
	return h, t.StartTS(), nil
}

// Commit implements rpc.TxnBackend: it injects the remote client's buffered
// write-set and runs the full local commit — validation, group commit, and
// the recovery-protected asynchronous flush.
func (g *txnGateway) Commit(ctx context.Context, sessionID, handle uint64, updates []kv.Update, wait bool) (kv.Timestamp, error) {
	t := g.take(sessionID, handle)
	if t == nil {
		return 0, txmgr.ErrTxnNotActive
	}
	return commitGateway(ctx, t, updates, wait)
}

// BeginCommit implements rpc.TxnBackend: Begin then Commit without the
// round trip between them. The begin keeps the requested snapshot mode —
// the default's wait for a readable snapshot included — so the commit
// validates exactly as a TBegin/TCommit pair would. The transaction never
// enters the session's handle table: nothing else can address it.
func (g *txnGateway) BeginCommit(ctx context.Context, sessionID uint64, clientID string, mode int, updates []kv.Update, wait bool) (kv.Timestamp, kv.Timestamp, error) {
	s, err := g.session(sessionID, clientID)
	if err != nil {
		return 0, 0, err
	}
	t, err := s.client.BeginTxn(TxnOptions{Mode: SnapshotMode(mode)})
	if err != nil {
		return 0, 0, err
	}
	cts, err := commitGateway(ctx, t, updates, wait)
	return t.StartTS(), cts, err
}

// commitGateway buffers a remote client's write-set into t and commits it.
func commitGateway(ctx context.Context, t *Txn, updates []kv.Update, wait bool) (kv.Timestamp, error) {
	if len(updates) > 0 {
		if t.ReadOnly() {
			t.Abort()
			return 0, ErrReadOnlyTxn
		}
		t.mu.Lock()
		for _, u := range updates {
			t.bufferLocked(u)
		}
		t.mu.Unlock()
	}
	cts, err := t.commit(ctx, wait)
	if err != nil && errors.Is(err, ErrCommitIndeterminate) {
		// Re-key onto the wire-level sentinel so the code survives
		// encoding; the remote side re-wraps into the cluster sentinel.
		err = fmt.Errorf("%w: %v", rpc.ErrCommitIndeterminate, err)
	}
	return cts, err
}

// Abort implements rpc.TxnBackend.
func (g *txnGateway) Abort(sessionID, handle uint64) error {
	if t := g.take(sessionID, handle); t != nil {
		t.Abort()
	}
	return nil
}

// EndSession implements rpc.TxnBackend: the connection is gone, so open
// transactions abort (dropping their buffered write-sets, which only ever
// existed client-side — paper §2.2's deferred-update discipline makes
// disconnect cleanup trivial) and the gateway client shuts down. Stop runs
// in the background: it waits for in-flight flushes of already-committed
// transactions, which must not block connection teardown.
func (g *txnGateway) EndSession(sessionID uint64) {
	g.mu.Lock()
	s := g.sessions[sessionID]
	delete(g.sessions, sessionID)
	g.mu.Unlock()
	if s == nil {
		return
	}
	s.mu.Lock()
	txns := s.txns
	s.txns = nil
	s.mu.Unlock()
	for _, t := range txns {
		t.Abort()
	}
	go s.client.Stop()
}

// RemoteTxnService is the begin/commit/abort surface a remote client drives
// over the wire. *rpc.TxnClient implements it. BeginRemote first ends the
// read-only transactions listed in release.
type RemoteTxnService interface {
	BeginRemote(ctx context.Context, clientID string, readOnly bool, snapTS kv.Timestamp, mode int, release []uint64) (uint64, kv.Timestamp, error)
	CommitRemote(ctx context.Context, handle uint64, updates []kv.Update, wait bool) (kv.Timestamp, error)
	BeginCommitRemote(ctx context.Context, clientID string, mode int, updates []kv.Update, wait bool) (startTS, cts kv.Timestamp, err error)
	AbortRemote(ctx context.Context, handle uint64) error
}

// releaseIdleDelay is how long a Remote that sends no TBegin keeps the
// handles of finished read-only transactions before releasing them with
// one TAbort each.
const releaseIdleDelay = 5 * time.Millisecond

// Remote is a client-process handle to a cluster served elsewhere: the
// counterpart of *Cluster for processes that hold no cluster state. It
// owns one connection pool; every Client it creates shares it.
//
// Ending a read-only transaction sends nothing: its handle waits in
// release and rides the next TBegin of any of the Remote's clients, so a
// View costs its TBegin and its reads. A deferred release holds the
// gateway's version-GC horizon back until that begin, or for
// releaseIdleDelay when none comes and relTimer sends it.
type Remote struct {
	tr     *rpc.TCPTransport
	txn    RemoteTxnService
	watchc *rpc.WatchClient

	mu       sync.Mutex
	seq      int
	closed   bool
	release  []uint64    // handles of finished read-only transactions
	relTimer *time.Timer // runs releaseIdle releaseIdleDelay after release fills
}

// openWatch opens a change stream through the serving process's watch
// service (Client.Watch in remote mode).
func (r *Remote) openWatch(table string, rng kv.KeyRange, from kv.Timestamp, owner string) (watchFeed, error) {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return nil, ErrStopped
	}
	return r.watchc.Watch(table, rng, from, owner)
}

// connectProbeTimeout bounds ConnectRemote's reachability check.
const connectProbeTimeout = 5 * time.Second

// ConnectRemote dials a cluster's wire-protocol address (ServeRPC's return
// value, or txkvd's -listen). It verifies the master is reachable before
// returning; per-operation connections are then managed lazily with
// transparent reconnect.
func ConnectRemote(masterAddr string) (*Remote, error) {
	tr := rpc.NewTCPTransport(masterAddr, nil)
	ctx, cancel := context.WithTimeout(context.Background(), connectProbeTimeout)
	defer cancel()
	if _, err := tr.TableRegions(ctx, "\x00connect-probe"); err != nil && errors.Is(err, kvstore.ErrTransport) {
		_ = tr.Close()
		return nil, fmt.Errorf("cluster: connect %s: %w", masterAddr, err)
	}
	return &Remote{
		tr:     tr,
		txn:    rpc.NewTxnClient(tr.Pool(), masterAddr),
		watchc: rpc.NewWatchClient(tr.Pool(), masterAddr),
	}, nil
}

// NewClient creates a transactional client bound to the remote cluster. An
// empty id auto-generates one. The client's reads and scans go straight to
// the owning region servers; begin/commit/abort run through the serving
// process's transaction gateway.
func (r *Remote) NewClient(id string) (*Client, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrStopped
	}
	if id == "" {
		id = fmt.Sprintf("remote-client-%d", r.seq)
	}
	r.seq++
	r.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	return &Client{
		id:     id,
		remote: r,
		kv:     kvstore.NewClientTransport(kvstore.ClientConfig{ID: id}, r.tr),
		ctx:    ctx,
		cancel: cancel,
	}, nil
}

// CreateTable creates a table pre-split at the given keys.
func (r *Remote) CreateTable(name string, splits []kv.Key) error {
	ctx, cancel := context.WithTimeout(context.Background(), connectProbeTimeout)
	defer cancel()
	return r.tr.CreateTable(ctx, name, splits)
}

// SplitRegion splits an online region at splitKey.
func (r *Remote) SplitRegion(regionID string, splitKey kv.Key) error {
	ctx, cancel := context.WithTimeout(context.Background(), connectProbeTimeout)
	defer cancel()
	return r.tr.SplitRegion(ctx, regionID, splitKey)
}

// TableRegions returns a table's region metadata, sorted by start key.
func (r *Remote) TableRegions(table string) ([]kvstore.RegionInfo, error) {
	ctx, cancel := context.WithTimeout(context.Background(), connectProbeTimeout)
	defer cancel()
	return r.tr.TableRegions(ctx, table)
}

// Close tears down the connection pool. Clients created from this handle
// stop working; open remote transactions, and read-only ones whose release
// is still pending, are aborted by the server when it notices the
// connection drop.
func (r *Remote) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.release = nil
	if r.relTimer != nil {
		r.relTimer.Stop()
	}
	r.mu.Unlock()
	_ = r.tr.Close()
}

// deferRelease queues finished read-only transactions' handles for the
// next TBegin. The first handle queued after a TBegin took the list
// (re)arms the idle timer, so it fires only once no TBegin has taken the
// list for releaseIdleDelay.
func (r *Remote) deferRelease(handles ...uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if len(r.release) == 0 {
		if r.relTimer == nil {
			r.relTimer = time.AfterFunc(releaseIdleDelay, r.releaseIdle)
		} else {
			r.relTimer.Reset(releaseIdleDelay)
		}
	}
	r.release = append(r.release, handles...)
}

// takeRelease hands the pending releases to a TBegin about to be sent.
func (r *Remote) takeRelease() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	rel := r.release
	r.release = nil
	return rel
}

// releaseIdle runs on the idle timer and sends the releases no TBegin has
// taken as plain TAborts.
func (r *Remote) releaseIdle() {
	r.mu.Lock()
	rel := r.release
	r.release = nil
	r.mu.Unlock()
	for _, h := range rel {
		ctx, cancel := context.WithTimeout(context.Background(), connectProbeTimeout)
		_ = r.txn.AbortRemote(ctx, h)
		cancel()
	}
}

// beginRemoteTxn is BeginTxn for remote-mode clients: the gateway assigns
// the handle and timestamp; reads use the timestamp locally.
func (cl *Client) beginRemoteTxn(opts TxnOptions) (*Txn, error) {
	readOnly := opts.ReadOnly || opts.SnapshotTS != 0
	h, err := cl.remoteBegin(readOnly, opts.SnapshotTS, opts.Mode)
	if err != nil {
		return nil, err
	}
	t := &Txn{client: cl, h: h, readOnly: readOnly}
	if !readOnly {
		t.writeIdx = make(map[string]int)
	}
	return t, nil
}

// remoteBegin sends one gateway begin. It is bounded by the client's
// lifetime and connectProbeTimeout, never by a caller's context: a begin
// abandoned after it left could leave its handle open at the gateway.
func (cl *Client) remoteBegin(readOnly bool, snapTS kv.Timestamp, mode SnapshotMode) (txmgr.TxnHandle, error) {
	ctx, cancel := context.WithTimeout(cl.ctx, connectProbeTimeout)
	defer cancel()
	release := cl.remote.takeRelease()
	h, startTS, err := cl.remote.txn.BeginRemote(ctx, cl.id, readOnly, snapTS, int(mode), release)
	if err != nil {
		// The request may not have got out: keep the releases for the
		// next begin (a repeated release names nothing, handles are never
		// reused).
		if len(release) > 0 {
			cl.remote.deferRelease(release...)
		}
		return txmgr.TxnHandle{}, opErr("begin", "", "", err)
	}
	return txmgr.TxnHandle{ID: h, ClientID: cl.id, StartTS: startTS}, nil
}

// deferredRemoteTxn starts an Update attempt of a remote client without a
// gateway begin: the transaction begins at its first read (Txn.snapshot),
// or — when it reads nothing — inside its commit, one round trip instead
// of two. Only Update defers: an explicit BeginTxn's snapshot point is
// observable to its caller, and a View always reads.
func (cl *Client) deferredRemoteTxn(opts TxnOptions) (*Txn, error) {
	cl.mu.Lock()
	closed := cl.closed
	cl.mu.Unlock()
	if closed {
		return nil, opErr("begin", "", "", ErrClientClosed)
	}
	return &Txn{client: cl, deferred: true, mode: opts.Mode, writeIdx: make(map[string]int)}, nil
}

// snapshot returns the timestamp the transaction reads at, first sending
// the gateway begin of a deferred transaction that has none yet. Small
// enough to inline: the in-process read path pays one field test.
func (t *Txn) snapshot() (kv.Timestamp, error) {
	if !t.deferred {
		return t.h.StartTS, nil
	}
	return t.beginDeferred()
}

// beginDeferred is snapshot for a deferred transaction. After a folded
// commit it returns the start the gateway assigned, with ErrTxnFinished.
func (t *Txn) beginDeferred() (kv.Timestamp, error) {
	t.bmu.Lock()
	defer t.bmu.Unlock()
	if t.begun {
		return t.h.StartTS, nil
	}
	t.mu.Lock()
	err := t.usableLocked()
	t.mu.Unlock()
	if err != nil {
		return t.h.StartTS, err
	}
	h, err := t.client.remoteBegin(false, 0, t.mode)
	if err != nil {
		return 0, err
	}
	t.h, t.begun = h, true
	return h.StartTS, nil
}

// commitRemoteTxn ships the buffered write-set to the gateway, which
// validates and commits it server-side — beginning it first, in the same
// round trip, when the transaction is deferred and never read. A transport
// failure mid-commit maps to ErrCommitIndeterminate — the request may have
// executed; the gateway's recovery protection finishes the flush either
// way if it did. A read-only transaction sends nothing: its release rides
// the Remote's next TBegin, and it returns its snapshot as the local path
// does.
func (cl *Client) commitRemoteTxn(ctx context.Context, t *Txn, updates []kv.Update, wait bool) (kv.Timestamp, error) {
	if t.readOnly {
		cl.remote.deferRelease(t.h.ID)
		return t.h.StartTS, nil
	}
	t.bmu.Lock()
	var (
		cts kv.Timestamp
		err error
	)
	if t.deferred && !t.begun {
		t.h.StartTS, cts, err = cl.remote.txn.BeginCommitRemote(ctx, cl.id, int(t.mode), updates, wait)
	} else {
		cts, err = cl.remote.txn.CommitRemote(ctx, t.h.ID, updates, wait)
	}
	t.bmu.Unlock()
	if err != nil && errors.Is(err, rpc.ErrCommitIndeterminate) {
		err = fmt.Errorf("%w: %v", ErrCommitIndeterminate, err)
	}
	if err != nil {
		return cts, opErr("commit", "", "", err)
	}
	return cts, nil
}

// abortRemoteTxn releases a remote transaction. Best-effort: if the
// connection is down, the gateway aborts the session's transactions itself.
// A deferred transaction that never began has nothing to release; a
// read-only one is released by the Remote's next TBegin.
func (cl *Client) abortRemoteTxn(t *Txn) {
	if t.readOnly {
		cl.remote.deferRelease(t.h.ID)
		return
	}
	t.bmu.Lock()
	id, begun := t.h.ID, !t.deferred || t.begun
	t.bmu.Unlock()
	if !begun {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), connectProbeTimeout)
	defer cancel()
	_ = cl.remote.txn.AbortRemote(ctx, id)
}

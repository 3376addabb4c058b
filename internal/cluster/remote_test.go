package cluster

// End-to-end tests of the multi-process deployment: a master-only cluster
// serving the wire protocol, region-server processes joining over TCP
// (in-process goroutines here, but crossing real sockets), and remote
// clients committing, scanning, and splitting through them. These are the
// acceptance tests of PROTOCOL.md's implementation — everything crosses
// the wire.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/rpc"
	"txkv/internal/txmgr"
)

// startRemoteCluster runs a master-only cluster serving RPC plus n
// region-server processes joined over TCP, with fast failure detection.
func startRemoteCluster(t *testing.T, n int) (*Cluster, string, []*rpc.RegionNode) {
	t.Helper()
	return startRemoteClusterWith(t, n, kvstore.ServerConfig{HeartbeatInterval: 100 * time.Millisecond})
}

// startRemoteClusterWith is startRemoteCluster with the region servers
// configured by scfg.
func startRemoteClusterWith(t *testing.T, n int, scfg kvstore.ServerConfig) (*Cluster, string, []*rpc.RegionNode) {
	t.Helper()
	c, err := New(Config{
		Servers:                -1, // no in-process region servers
		HeartbeatInterval:      100 * time.Millisecond,
		MasterHeartbeatTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	addr, err := c.ServeRPC("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*rpc.RegionNode, n)
	for i := range nodes {
		node, err := rpc.StartRegionNode(rpc.RegionNodeConfig{
			ID:         fmt.Sprintf("rs%d", i+1),
			MasterAddr: addr,
			Server:     scfg,
		})
		if err != nil {
			t.Fatalf("region node %d: %v", i+1, err)
		}
		nodes[i] = node
		t.Cleanup(node.Stop)
	}
	return c, addr, nodes
}

func TestRemoteMultiProcessEndToEnd(t *testing.T) {
	c, addr, _ := startRemoteCluster(t, 2)
	if err := c.CreateTable("t", []kv.Key{"m"}); err != nil {
		t.Fatal(err)
	}

	remote, err := ConnectRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	cl, err := remote.NewClient("e2e")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	ctx := context.Background()
	const rows = 40
	key := func(i int) kv.Key { return kv.Key(fmt.Sprintf("row-%02d", i)) }

	// Commit across both regions through the gateway.
	if _, err := cl.Update(ctx, func(txn *Txn) error {
		for i := 0; i < rows; i++ {
			if err := txn.Put(ctx, "t", key(i), "v", []byte(fmt.Sprintf("val-%d", i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("remote commit: %v", err)
	}

	// Point reads over TCP straight from the region servers.
	if err := cl.View(ctx, func(txn *Txn) error {
		for i := 0; i < rows; i += 7 {
			v, ok, err := txn.Get(ctx, "t", key(i), "v")
			if err != nil {
				return err
			}
			if !ok || string(v) != fmt.Sprintf("val-%d", i) {
				return fmt.Errorf("row %d: got %q found=%v", i, v, ok)
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("remote reads: %v", err)
	}

	// A streaming scan pages across the region boundary over the wire.
	if err := cl.View(ctx, func(txn *Txn) error {
		sc := txn.Scan(ctx, "t", kv.KeyRange{}, ScanOptions{Batch: 7})
		n := 0
		for sc.Next() {
			n++
		}
		if err := sc.Err(); err != nil {
			return err
		}
		if n != rows {
			return fmt.Errorf("scan saw %d rows, want %d", n, rows)
		}
		return nil
	}); err != nil {
		t.Fatalf("remote scan: %v", err)
	}

	// Split through the remote admin surface, then keep writing.
	infos, err := remote.TableRegions("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("got %d regions, want 2", len(infos))
	}
	split := kv.Key("row-20")
	var target string
	for _, info := range infos {
		if info.Range.Contains(split) {
			target = info.ID
		}
	}
	if err := remote.SplitRegion(target, split); err != nil {
		t.Fatalf("remote split: %v", err)
	}
	if infos, err = remote.TableRegions("t"); err != nil || len(infos) != 3 {
		t.Fatalf("after split: regions=%d err=%v, want 3", len(infos), err)
	}
	if _, err := cl.Update(ctx, func(txn *Txn) error {
		return txn.Put(ctx, "t", "row-00", "v", []byte("rewritten"))
	}); err != nil {
		t.Fatalf("post-split commit: %v", err)
	}
	if err := cl.View(ctx, func(txn *Txn) error {
		v, ok, err := txn.Get(ctx, "t", "row-00", "v")
		if err != nil || !ok || string(v) != "rewritten" {
			return fmt.Errorf("got %q found=%v err=%v", v, ok, err)
		}
		return nil
	}); err != nil {
		t.Fatalf("post-split read: %v", err)
	}
}

func TestRemoteReadOnlyAndConflictAcrossWire(t *testing.T) {
	c, addr, _ := startRemoteCluster(t, 2)
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	remote, err := ConnectRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	cl, err := remote.NewClient("rw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	ctx := context.Background()
	if _, err := cl.Update(ctx, func(txn *Txn) error {
		return txn.Put(ctx, "t", "k", "v", []byte("one"))
	}); err != nil {
		t.Fatal(err)
	}

	// Writes through a read-only transaction fail with the sentinel.
	ro, err := cl.BeginTxn(TxnOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.Put(ctx, "t", "k", "v", []byte("x")); !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("read-only put: got %v, want ErrReadOnlyTxn", err)
	}
	ro.Abort()

	// A write-write conflict crosses the wire as the retryable sentinel.
	t1, err := cl.BeginTxn(TxnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := cl.BeginTxn(TxnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Put(ctx, "t", "k", "v", []byte("t1")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Put(ctx, "t", "k", "v", []byte("t2")); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Commit(ctx); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	if _, err := t2.Commit(ctx); !errors.Is(err, txmgr.ErrConflict) {
		t.Fatalf("second commit: got %v, want ErrConflict across the wire", err)
	}
}

// TestRemoteLayoutInvalidationOnDeadServer is the regression test for the
// transport-level layout-cache fix: after the process owning a cached
// region dies, the client must re-resolve through the master and reach the
// region's new home — not keep retrying the dead address.
func TestRemoteLayoutInvalidationOnDeadServer(t *testing.T) {
	c, addr, nodes := startRemoteCluster(t, 2)
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	remote, err := ConnectRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	cl, err := remote.NewClient("failover")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	ctx := context.Background()
	if _, err := cl.Update(ctx, func(txn *Txn) error {
		return txn.Put(ctx, "t", "k", "v", []byte("survives"))
	}); err != nil {
		t.Fatal(err)
	}
	// Prime the layout cache (and make the commit durable server-side).
	if err := cl.View(ctx, func(txn *Txn) error {
		_, _, err := txn.Get(ctx, "t", "k", "v")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Kill the node serving the region. Its sockets close; the cached
	// endpoint is now a dead address.
	owner := regionOwner(t, c, "t")
	var killed bool
	for _, n := range nodes {
		if n.Server().ID() == owner {
			n.Kill()
			killed = true
		}
	}
	if !killed {
		t.Fatalf("owner %q not among region nodes", owner)
	}

	// The read must recover: transport error -> invalidate -> master
	// re-resolve -> the region's new host (after the master's failure
	// recovery reassigns it). Bounded retries, not one hail-mary call,
	// so the test distinguishes "recovering" from "stuck on dead addr".
	deadline := time.Now().Add(15 * time.Second)
	for {
		err := cl.View(ctx, func(txn *Txn) error {
			v, ok, gerr := txn.Get(ctx, "t", "k", "v")
			if gerr != nil {
				return gerr
			}
			if !ok || string(v) != "survives" {
				return fmt.Errorf("got %q found=%v", v, ok)
			}
			return nil
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered from dead region server: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The structured transport sentinel must be what dead endpoints
	// surface (it keys the invalidate-then-re-resolve discipline).
	if _, err := rpc.Dial(nodesAddr(nodes, owner)); !errors.Is(err, kvstore.ErrTransport) {
		t.Fatalf("dial of killed node: got %v, want ErrTransport", err)
	}
}

// TestRemoteUnsyncedWALCoveredByRecoveryLog is the paper's invariant over
// the wire: a region-server process acknowledges writes whose WAL records
// sit unsynced in its own memory, and a crash loses them — yet every
// acknowledged commit is readable after recovery, because the WAL split
// plus the transaction manager's log replay above the persisted threshold
// covers the lost tail.
func TestRemoteUnsyncedWALCoveredByRecoveryLog(t *testing.T) {
	c, addr, nodes := startRemoteClusterWith(t, 2, kvstore.ServerConfig{
		HeartbeatInterval: 100 * time.Millisecond,
		WALSyncInterval:   time.Hour, // nothing syncs before the kill
	})
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	remote, err := ConnectRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	cl, err := remote.NewClient("unsynced")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	ctx := context.Background()
	const commits = 30
	key := func(i int) kv.Key { return kv.Key(fmt.Sprintf("row-%02d", i)) }
	for i := 0; i < commits; i++ {
		if _, err := cl.Update(ctx, func(txn *Txn) error {
			return txn.Put(ctx, "t", key(i), "v", []byte(fmt.Sprintf("val-%d", i)))
		}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	readAll := func() error {
		return cl.View(ctx, func(txn *Txn) error {
			for i := 0; i < commits; i++ {
				v, ok, err := txn.Get(ctx, "t", key(i), "v")
				if err != nil {
					return err
				}
				if want := fmt.Sprintf("val-%d", i); !ok || string(v) != want {
					return fmt.Errorf("row %d: got %q found=%v, want %q", i, v, ok, want)
				}
			}
			return nil
		})
	}
	// Every commit is applied on the owner and readable.
	if err := readAll(); err != nil {
		t.Fatal(err)
	}

	owner := regionOwner(t, c, "t")
	var victim *rpc.RegionNode
	for _, n := range nodes {
		if n.Server().ID() == owner {
			victim = n
		}
	}
	if victim == nil {
		t.Fatalf("owner %q not among region nodes", owner)
	}
	if n, err := c.DFS().Size(victim.Server().WALPath()); err != nil || n != 0 {
		t.Fatalf("owner's WAL holds %d synced bytes (err %v) before the kill, want 0", n, err)
	}
	victim.Kill()

	deadline := time.Now().Add(15 * time.Second)
	for {
		err := readAll()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("acknowledged commits not readable after recovery: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if got := regionOwner(t, c, "t"); got == owner {
		t.Fatalf("region still assigned to the killed server %s", owner)
	}
}

// regionOwner returns the server currently assigned the single region of
// table (via the master's layout).
func regionOwner(t *testing.T, c *Cluster, table string) string {
	t.Helper()
	located, err := c.master.LocateAll(table)
	if err != nil {
		t.Fatal(err)
	}
	if len(located) != 1 {
		t.Fatalf("got %d regions, want 1", len(located))
	}
	return located[0].Host.ID()
}

// nodesAddr returns the advertised address of the node with the given id.
func nodesAddr(nodes []*rpc.RegionNode, id string) string {
	for _, n := range nodes {
		if n.Server().ID() == id {
			return n.Addr()
		}
	}
	return ""
}

// TestServeRPCLifecycle covers the serving-side edges: double serve, stop
// while serving, serve after stop.
func TestServeRPCLifecycle(t *testing.T) {
	c, err := New(Config{Servers: -1})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := c.ServeRPC("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RPCAddr(); got != addr {
		t.Fatalf("RPCAddr: got %q want %q", got, addr)
	}
	if _, err := c.ServeRPC("127.0.0.1:0"); !errors.Is(err, ErrAlreadyServing) {
		t.Fatalf("double serve: got %v", err)
	}
	c.Stop()
	if _, err := c.ServeRPC("127.0.0.1:0"); !errors.Is(err, ErrStopped) {
		t.Fatalf("serve after stop: got %v", err)
	}
	if _, err := ConnectRemote(addr); err == nil {
		t.Fatal("connect to stopped cluster should fail")
	}
}

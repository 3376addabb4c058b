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
	"reflect"
	"strconv"
	"sync"
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

// gatewayRequests returns how many requests of each transaction-gateway
// method the serving process has handled so far.
func gatewayRequests(c *Cluster) map[string]int64 {
	counters := c.Obs().Snapshot().Counters
	out := make(map[string]int64)
	for _, m := range []string{"t.begin", "t.commit", "t.abort", "t.begin_commit"} {
		out[m] = counters["rpc.server.req."+m]
	}
	return out
}

// requestsSince returns the gateway requests handled since before.
func requestsSince(c *Cluster, before map[string]int64) map[string]int64 {
	out := gatewayRequests(c)
	for m, n := range before {
		out[m] -= n
	}
	return out
}

func connectRemoteClient(t *testing.T, addr, id string) *Client {
	t.Helper()
	remote, err := ConnectRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(remote.Close)
	cl, err := remote.NewClient(id)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl
}

// TestRemoteUpdateBeginsAtFirstRead checks when a remote Update's
// transaction begins: a closure that only writes begins inside its commit
// (one TBeginCommit, no TBegin), and one that reads — or asks for its
// snapshot — begins then, with the usual TBegin and TCommit.
func TestRemoteUpdateBeginsAtFirstRead(t *testing.T) {
	c, addr, _ := startRemoteCluster(t, 2)
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl := connectRemoteClient(t, addr, "fold")
	ctx := context.Background()
	seed, err := cl.Update(ctx, func(txn *Txn) error { return txn.Put(ctx, "t", "seed", "v", []byte("s")) })
	if err != nil {
		t.Fatal(err)
	}

	before := gatewayRequests(c)
	var blind *Txn
	cts, err := cl.Update(ctx, func(txn *Txn) error {
		blind = txn
		for _, row := range []kv.Key{"a", "b", "c"} {
			if err := txn.Put(ctx, "t", row, "v", []byte("blind-"+string(row))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"t.begin": 0, "t.commit": 0, "t.abort": 0, "t.begin_commit": 1}
	if got := requestsSince(c, before); !reflect.DeepEqual(got, want) {
		t.Fatalf("blind update sent %v, want %v", got, want)
	}
	if start := blind.StartTS(); start < seed || start >= cts {
		t.Fatalf("StartTS after a folded commit = %d, want the gateway's start in [%d, %d)", start, seed, cts)
	}
	if got := requestsSince(c, before); !reflect.DeepEqual(got, want) {
		t.Fatalf("StartTS after commit sent requests: %v, want %v", got, want)
	}

	// A closure that reads begins at the read, and sees the blind commit.
	before = gatewayRequests(c)
	if _, err := cl.Update(ctx, func(txn *Txn) error {
		v, ok, err := txn.Get(ctx, "t", "a", "v")
		if err != nil {
			return err
		}
		if !ok || string(v) != "blind-a" {
			return fmt.Errorf("read %q found=%v, want the blind commit's value", v, ok)
		}
		return txn.Put(ctx, "t", "a", "v", append(v, '+'))
	}); err != nil {
		t.Fatal(err)
	}
	want = map[string]int64{"t.begin": 1, "t.commit": 1, "t.abort": 0, "t.begin_commit": 0}
	if got := requestsSince(c, before); !reflect.DeepEqual(got, want) {
		t.Fatalf("read-write update sent %v, want %v", got, want)
	}

	// So does one that asks for its snapshot.
	before = gatewayRequests(c)
	if _, err := cl.Update(ctx, func(txn *Txn) error {
		if txn.StartTS() <= cts {
			return fmt.Errorf("StartTS %d not after the blind commit %d", txn.StartTS(), cts)
		}
		return txn.Put(ctx, "t", "d", "v", []byte("d"))
	}); err != nil {
		t.Fatal(err)
	}
	if got := requestsSince(c, before); !reflect.DeepEqual(got, want) {
		t.Fatalf("update calling StartTS sent %v, want %v", got, want)
	}

	// Concurrent first reads of one transaction share a single begin.
	before = gatewayRequests(c)
	if _, err := cl.Update(ctx, func(txn *Txn) error {
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for _, row := range []kv.Key{"a", "b", "c", "d"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, err := txn.Get(ctx, "t", row, "v")
				errs <- err
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				return err
			}
		}
		return txn.Put(ctx, "t", "e", "v", []byte("e"))
	}); err != nil {
		t.Fatal(err)
	}
	if got := requestsSince(c, before); !reflect.DeepEqual(got, want) {
		t.Fatalf("update with concurrent first reads sent %v, want %v", got, want)
	}
}

// TestRemoteUpdateFailingBeforeReadSendsNothing: a closure that fails
// before its first read leaves nothing to begin, commit or abort.
func TestRemoteUpdateFailingBeforeReadSendsNothing(t *testing.T) {
	c, addr, _ := startRemoteCluster(t, 1)
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl := connectRemoteClient(t, addr, "noop")
	ctx := context.Background()
	appErr := errors.New("application refused")

	before := gatewayRequests(c)
	_, err := cl.Update(ctx, func(txn *Txn) error {
		if err := txn.Put(ctx, "t", "k", "v", []byte("never")); err != nil {
			return err
		}
		return appErr
	})
	if !errors.Is(err, appErr) {
		t.Fatalf("Update: got %v, want the closure's error", err)
	}
	want := map[string]int64{"t.begin": 0, "t.commit": 0, "t.abort": 0, "t.begin_commit": 0}
	if got := requestsSince(c, before); !reflect.DeepEqual(got, want) {
		t.Fatalf("failed closure sent %v, want no gateway request", got)
	}
}

// TestRemoteConcurrentIncrementsLoseNoUpdate: two remote clients, each on
// its own connection, race read-modify-write increments of one counter.
// Every increment reads at its begin, so the conflicts are detected and
// retried and the counter ends at exactly the number of increments.
func TestRemoteConcurrentIncrementsLoseNoUpdate(t *testing.T) {
	c, addr, _ := startRemoteCluster(t, 2)
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	const perClient = 10
	clients := []*Client{connectRemoteClient(t, addr, "inc-1"), connectRemoteClient(t, addr, "inc-2")}
	ctx := context.Background()
	opts := TxnOptions{MaxRetries: 1000, RetryBackoff: 100 * time.Microsecond}

	errs := make(chan error, len(clients)*perClient)
	var wg sync.WaitGroup
	for _, cl := range clients {
		for i := 0; i < perClient; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := cl.UpdateWith(ctx, opts, func(txn *Txn) error {
					v, _, err := txn.Get(ctx, "t", "counter", "n")
					if err != nil {
						return err
					}
					n := 0
					if v != nil {
						if n, err = strconv.Atoi(string(v)); err != nil {
							return err
						}
					}
					return txn.Put(ctx, "t", "counter", "n", []byte(strconv.Itoa(n+1)))
				})
				errs <- err
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("increment: %v", err)
		}
	}
	if err := clients[0].View(ctx, func(txn *Txn) error {
		v, _, err := txn.Get(ctx, "t", "counter", "n")
		if err != nil {
			return err
		}
		if want := strconv.Itoa(len(clients) * perClient); string(v) != want {
			return fmt.Errorf("counter = %q, want %s", v, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
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

// TestRemoteMixedKillLosesNoAcknowledgedRow is the mixed deployment shape:
// an in-process region server and a region-server process share one
// master. The process never syncs its WAL, so its T_P(s) — reported on its
// master heartbeat — must hold the global T_P back: otherwise the local
// server alone advances it, the log is truncated past the process's
// unsynced writes, and killing the process loses the acknowledged rows it
// hosted.
func TestRemoteMixedKillLosesNoAcknowledgedRow(t *testing.T) {
	c, err := New(Config{
		Servers:                1,
		HeartbeatInterval:      100 * time.Millisecond,
		MasterHeartbeatTimeout: time.Second, // the local server is the only survivor: no false failover
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	addr, err := c.ServeRPC("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := rpc.StartRegionNode(rpc.RegionNodeConfig{
		ID:         "rs1",
		MasterAddr: addr,
		Server: kvstore.ServerConfig{
			HeartbeatInterval: 100 * time.Millisecond,
			WALSyncInterval:   time.Hour, // nothing syncs before the kill
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)

	// Eight regions, assigned round-robin: four on each server.
	const rows = 40
	key := func(i int) kv.Key { return kv.Key(fmt.Sprintf("row-%02d", i)) }
	var splits []kv.Key
	for i := 5; i < rows; i += 5 {
		splits = append(splits, key(i))
	}
	if err := c.CreateTable("t", splits); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("mixed")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	var last kv.Timestamp
	for i := 0; i < rows; i++ {
		ts, err := cl.Update(ctx, func(txn *Txn) error {
			return txn.Put(ctx, "t", key(i), "v", []byte(fmt.Sprintf("val-%d", i)))
		})
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		last = ts
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().GlobalTF < last {
		if time.Now().After(deadline) {
			t.Fatalf("global T_F stuck at %d, want %d", c.Stats().GlobalTF, last)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Give the persisted threshold time to (wrongly) catch up: the local
	// server syncs every 50ms and reports every 100ms.
	for deadline = time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if c.Stats().GlobalTP >= last {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	node.Kill()

	missing := rows
	var readErr error
	for deadline = time.Now().Add(15 * time.Second); missing > 0 && time.Now().Before(deadline); {
		missing = 0
		readErr = cl.View(ctx, func(txn *Txn) error {
			for i := 0; i < rows; i++ {
				v, ok, err := txn.Get(ctx, "t", key(i), "v")
				if err != nil {
					return err
				}
				if !ok || string(v) != fmt.Sprintf("val-%d", i) {
					missing++
				}
			}
			return nil
		})
		if readErr != nil {
			missing = rows // regions still recovering: retry
		}
		if missing > 0 {
			time.Sleep(100 * time.Millisecond)
		}
	}
	if missing > 0 {
		st := c.Stats()
		t.Fatalf("%d of %d acknowledged rows missing after the kill (global T_P %d, %d log records truncated, last read error %v)",
			missing, rows, st.GlobalTP, st.LogTruncated, readErr)
	}
}

// TestRemoteOnlyLogTruncates: with only region-server processes, their
// T_P(s) reports on the master heartbeat advance the global T_P to T_F,
// and the recovery manager truncates the log — round after round, so the
// retained log stays bounded while the commits keep growing.
func TestRemoteOnlyLogTruncates(t *testing.T) {
	c, addr, _ := startRemoteCluster(t, 2)
	if err := c.CreateTable("t", []kv.Key{"row-20"}); err != nil {
		t.Fatal(err)
	}
	cl := connectRemoteClient(t, addr, "truncation")
	ctx := context.Background()
	const rounds, perRound = 4, 40
	for round := 1; round <= rounds; round++ {
		var last kv.Timestamp
		for i := 0; i < perRound; i++ {
			ts, err := cl.Update(ctx, func(txn *Txn) error {
				return txn.Put(ctx, "t", kv.Key(fmt.Sprintf("row-%02d", i)), "v", []byte(strconv.Itoa(round)))
			})
			if err != nil {
				t.Fatalf("round %d commit %d: %v", round, i, err)
			}
			last = ts
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			st, ls := c.Stats(), c.Log().Stats()
			if st.GlobalTF >= last && st.GlobalTP >= last && ls.DurableRecords <= perRound {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: global T_F %d, T_P %d, %d of %d log records retained; want T_P at T_F >= %d and at most %d retained",
					round, st.GlobalTF, st.GlobalTP, ls.DurableRecords, ls.TotalAppends, last, perRound)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// failureRecorder captures, when the master reports a server failure, the
// write-sets committed after the failed server's frozen T_P(s) that touch
// one of its regions: the at-risk set the recovery manager must replay.
type failureRecorder struct {
	c      *Cluster
	mu     sync.Mutex
	tp     kv.Timestamp
	atRisk int // (write-set, region) pairs, as replay counts them
	err    error
}

func (f *failureRecorder) OnServerFailure(_ string, tp kv.Timestamp, regions []kvstore.RegionInfo) {
	records, err := f.c.Log().After(tp)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tp, f.err = tp, err
	for _, ws := range records {
		for _, r := range regions {
			for _, u := range ws.Updates {
				if u.Table == r.Table && r.Range.Contains(u.Row) {
					f.atRisk++
					break
				}
			}
		}
	}
}

// TestRemoteKillReplaysOnlyAtRiskWriteSets: writers commit across two
// region-server processes, stop, and one process is killed at once. The
// recovery manager must replay exactly the write-sets committed after the
// dead server's last reported T_P(s) (and no later than the last commit)
// into its regions — over the wire, as in process.
func TestRemoteKillReplaysOnlyAtRiskWriteSets(t *testing.T) {
	c, addr, nodes := startRemoteCluster(t, 2)
	if err := c.CreateTable("t", []kv.Key{"row-20"}); err != nil {
		t.Fatal(err)
	}
	rec := &failureRecorder{c: c}
	c.Master().AddFailureListener(rec)
	// Keep the whole log, so a replay that starts anywhere but T_P(s)
	// shows. Truncated, the log starts at the global T_P, often the
	// killed server's own T_P(s).
	pin := c.Log().Pin(0)
	defer pin.Release()
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		cl := connectRemoteClient(t, addr, fmt.Sprintf("writer-%d", w))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Update(ctx, func(txn *Txn) error {
					for _, row := range []int{i % 20, 20 + i%20} { // one row per region
						if err := txn.Put(ctx, "t", kv.Key(fmt.Sprintf("row-%02d", row)), "v", []byte(strconv.Itoa(w))); err != nil {
							return err
						}
					}
					return nil
				}); err != nil && !errors.Is(err, txmgr.ErrConflict) {
					errs <- err
					return
				}
			}
		}(w)
	}
	time.Sleep(time.Second)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	last := c.Log().LastTS()
	victim := nodes[1]
	victim.Kill()

	// The master counts a failover once every region is back online.
	deadline := time.Now().Add(15 * time.Second)
	for c.Master().FailoverStats().Failovers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("region recovery did not finish")
		}
		time.Sleep(20 * time.Millisecond)
	}
	replayed := 0
	for _, ev := range c.RecoveryManager().Events() {
		if ev.Kind == "region" && ev.FailedServer == victim.Server().ID() {
			replayed += ev.WriteSetsReplayed
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.err != nil {
		t.Fatal(rec.err)
	}
	t.Logf("T_P(s) %d, last commit %d, %d at risk, %d replayed", rec.tp, last, rec.atRisk, replayed)
	if rec.atRisk == 0 || replayed != rec.atRisk {
		t.Fatalf("replayed %d write-sets; want the %d (> 0) committed in (T_P(s) %d, last commit %d]",
			replayed, rec.atRisk, rec.tp, last)
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

package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"txkv/internal/dfs"
	"txkv/internal/kv"
	"txkv/internal/netsim"
)

// testStore bundles a small running store cluster for tests.
type testStore struct {
	fs     *dfs.FS
	net    *netsim.Network
	master *Master
	srvs   []*RegionServer
}

func newTestStore(t *testing.T, nServers int, syncWrites bool) *testStore {
	t.Helper()
	fs := dfs.New(dfs.Config{Replication: 2, DataNodes: nServers + 1})
	net := netsim.New(netsim.Config{})
	master := NewMaster(MasterConfig{
		HeartbeatTimeout: 200 * time.Millisecond,
		CheckInterval:    20 * time.Millisecond,
	}, fs)
	master.Start()
	ts := &testStore{fs: fs, net: net, master: master}
	for i := 0; i < nServers; i++ {
		srv := NewRegionServer(ServerConfig{
			ID:                fmt.Sprintf("server-%d", i),
			SyncWrites:        syncWrites,
			WALSyncInterval:   20 * time.Millisecond,
			HeartbeatInterval: 20 * time.Millisecond,
		}, fs)
		if err := master.AddServer(srv); err != nil {
			t.Fatal(err)
		}
		ts.srvs = append(ts.srvs, srv)
	}
	t.Cleanup(func() {
		master.Stop()
		for _, s := range ts.srvs {
			if !s.Crashed() {
				s.Stop()
			}
		}
	})
	return ts
}

func (ts *testStore) client(id string) *Client {
	return NewClient(ClientConfig{ID: id}, ts.net, ts.master)
}

func writeSet(client string, ts kv.Timestamp, table string, rows ...string) kv.WriteSet {
	ws := kv.WriteSet{TxnID: uint64(ts), ClientID: client, CommitTS: ts}
	for _, r := range rows {
		ws.Updates = append(ws.Updates, kv.Update{
			Table: table, Row: kv.Key(r), Column: "f", Value: []byte(fmt.Sprintf("v%d-%s", ts, r)),
		})
	}
	return ws
}

func TestStoreEndToEnd(t *testing.T) {
	ts := newTestStore(t, 1, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()

	if err := c.Flush(ctx, writeSet("c1", 10, "t", "a", "b"), 0, false); err != nil {
		t.Fatal(err)
	}
	got, found, err := c.Get(ctx, "t", "a", "f", kv.MaxTimestamp)
	if err != nil || !found {
		t.Fatalf("get: %v found=%v", err, found)
	}
	if string(got.Value) != "v10-a" {
		t.Fatalf("value = %q", got.Value)
	}
	// Snapshot read below the write's ts misses.
	if _, found, _ = c.Get(ctx, "t", "a", "f", 9); found {
		t.Fatal("read below version should miss")
	}
	// Overwrite at higher ts; old snapshot still reads old value.
	if err := c.Flush(ctx, writeSet("c1", 20, "t", "a"), 0, false); err != nil {
		t.Fatal(err)
	}
	got, _, _ = c.Get(ctx, "t", "a", "f", 10)
	if string(got.Value) != "v10-a" {
		t.Fatalf("snapshot read = %q, want v10-a", got.Value)
	}
	got, _, _ = c.Get(ctx, "t", "a", "f", kv.MaxTimestamp)
	if string(got.Value) != "v20-a" {
		t.Fatalf("latest read = %q, want v20-a", got.Value)
	}
}

func TestStoreMultiRegionMultiServer(t *testing.T) {
	ts := newTestStore(t, 3, false)
	if err := ts.master.CreateTable("t", []kv.Key{"h", "p"}); err != nil {
		t.Fatal(err)
	}
	regions, err := ts.master.TableRegions("t")
	if err != nil || len(regions) != 3 {
		t.Fatalf("regions: %v %v", regions, err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	// One write-set spanning all three regions.
	ws := writeSet("c1", 5, "t", "apple", "kiwi", "zebra")
	if err := c.Flush(ctx, ws, 0, false); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"apple", "kiwi", "zebra"} {
		_, found, err := c.Get(ctx, "t", kv.Key(row), "f", kv.MaxTimestamp)
		if err != nil || !found {
			t.Fatalf("get %s: %v found=%v", row, err, found)
		}
	}
	// Scan across regions.
	all, err := c.Scan(ctx, "t", kv.KeyRange{}, kv.MaxTimestamp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("scan = %d entries, want 3", len(all))
	}
	if all[0].Row != "apple" || all[2].Row != "zebra" {
		t.Fatalf("scan order: %v", all)
	}
}

func TestStoreTombstone(t *testing.T) {
	ts := newTestStore(t, 1, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	if err := c.Flush(ctx, writeSet("c1", 10, "t", "a"), 0, false); err != nil {
		t.Fatal(err)
	}
	del := kv.WriteSet{TxnID: 2, ClientID: "c1", CommitTS: 15, Updates: []kv.Update{
		{Table: "t", Row: "a", Column: "f", Tombstone: true},
	}}
	if err := c.Flush(ctx, del, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := c.Get(ctx, "t", "a", "f", kv.MaxTimestamp); found {
		t.Fatal("deleted row still visible")
	}
	if _, found, _ := c.Get(ctx, "t", "a", "f", 12); !found {
		t.Fatal("pre-delete snapshot should see the row")
	}
	// Scans elide tombstones.
	got, err := c.Scan(ctx, "t", kv.KeyRange{}, kv.MaxTimestamp, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("scan after delete: %v %v", got, err)
	}
}

func TestStoreMemstoreFlushAndReadBack(t *testing.T) {
	ts := newTestStore(t, 1, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		ws := writeSet("c1", kv.Timestamp(i+1), "t", fmt.Sprintf("row%03d", i))
		if err := c.Flush(ctx, ws, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.srvs[0].FlushAll(); err != nil {
		t.Fatal(err)
	}
	// All rows must now come from store files.
	for i := 0; i < 50; i++ {
		row := kv.Key(fmt.Sprintf("row%03d", i))
		_, found, err := c.Get(ctx, "t", row, "f", kv.MaxTimestamp)
		if err != nil || !found {
			t.Fatalf("get %s after flush: %v found=%v", row, err, found)
		}
	}
	// And writes after the flush still land.
	if err := c.Flush(ctx, writeSet("c1", 100, "t", "row000"), 0, false); err != nil {
		t.Fatal(err)
	}
	got, _, _ := c.Get(ctx, "t", "row000", "f", kv.MaxTimestamp)
	if string(got.Value) != "v100-row000" {
		t.Fatalf("post-flush write = %q", got.Value)
	}
}

// TestStoreServerCrashDurableDataSurvives verifies the HBase-internal
// recovery path: synced WAL entries are replayed into the region on its new
// server; the unsynced tail is lost (that loss is exactly what the paper's
// transactional recovery covers — tested in internal/core).
func TestStoreServerCrashDurableDataSurvives(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()

	// Find the server hosting the single region.
	host := hostFor(t, ts, "t", "a")

	if err := c.Flush(ctx, writeSet("c1", 10, "t", "a"), 0, false); err != nil {
		t.Fatal(err)
	}
	if err := host.SyncWAL(); err != nil { // durable
		t.Fatal(err)
	}
	// Second write stays only in the WAL buffer: crash before any sync.
	host2 := hostFor(t, ts, "t", "b")
	if host2 != host {
		t.Fatal("single region must have a single host")
	}
	// Write directly to the server to avoid the async WAL syncer racing us.
	ws := writeSet("c1", 20, "t", "b")
	if err := host.ApplyWriteSet(ws, 0, false); err != nil {
		t.Fatal(err)
	}
	crashed := host.ID()
	host.Crash()
	ts.net.SetDown(crashed, true)

	// Master detects the failure and reassigns; wait for the region to be
	// served again.
	waitLocated(t, ts, "t", "a", crashed)

	got, found, err := c.Get(ctx, "t", "a", "f", kv.MaxTimestamp)
	if err != nil || !found {
		t.Fatalf("durable row lost after crash: %v found=%v", err, found)
	}
	if string(got.Value) != "v10-a" {
		t.Fatalf("value = %q", got.Value)
	}
	// The unsynced write is gone (to be recovered by the TM-log layer).
	if _, found, _ := c.Get(ctx, "t", "b", "f", kv.MaxTimestamp); found {
		t.Fatal("unsynced write survived a crash; WAL semantics broken")
	}
}

func hostFor(t *testing.T, ts *testStore, table string, row string) *RegionServer {
	t.Helper()
	_, host, err := ts.master.Locate(table, kv.Key(row))
	if err != nil {
		t.Fatal(err)
	}
	return host.(*RegionServer)
}

// waitLocated waits until (table, "a") is served by a server other than
// exclude.
func waitLocated(t *testing.T, ts *testStore, table, row, exclude string) *RegionServer {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, srv, err := ts.master.Locate(table, kv.Key(row))
		if err == nil && srv.ID() != exclude {
			return srv.(*RegionServer)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("region was not reassigned in time")
	return nil
}

// TestStoreRecoveryGateBlocksRegion verifies hook 2: a region does not come
// online before the recovery gate returns.
func TestStoreRecoveryGateBlocksRegion(t *testing.T) {
	ts := newTestStore(t, 2, false)
	gateRelease := make(chan struct{})
	var gateCalls atomic.Int32
	ts.master.SetRecoveryGate(gateFunc(func(r RegionInfo, failed string, host RegionHost) error {
		gateCalls.Add(1)
		<-gateRelease
		return nil
	}))
	var failNotices atomic.Int32
	ts.master.AddFailureListener(listenerFunc(func(serverID string, _ kv.Timestamp, regions []RegionInfo) {
		failNotices.Add(1)
	}))
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	if err := c.Flush(ctx, writeSet("c1", 10, "t", "a"), 0, false); err != nil {
		t.Fatal(err)
	}
	host := hostFor(t, ts, "t", "a")
	_ = host.SyncWAL()
	host.Crash()
	ts.net.SetDown(host.ID(), true)

	// Wait for the gate to be entered.
	deadline := time.Now().Add(5 * time.Second)
	for gateCalls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if gateCalls.Load() == 0 {
		t.Fatal("recovery gate never invoked")
	}
	if failNotices.Load() == 0 {
		t.Fatal("failure listener never invoked")
	}
	// While gated, the region must NOT be served.
	if _, _, err := ts.master.Locate("t", "a"); err == nil {
		t.Fatal("region served while recovery gate held")
	}
	close(gateRelease)
	waitLocated(t, ts, "t", "a", host.ID())
	// After the gate, the durable row is readable.
	_, found, err := c.Get(ctx, "t", "a", "f", kv.MaxTimestamp)
	if err != nil || !found {
		t.Fatalf("read after gated recovery: %v found=%v", err, found)
	}
}

type gateFunc func(RegionInfo, string, RegionHost) error

func (f gateFunc) RecoverRegion(r RegionInfo, failed string, host RegionHost) error {
	return f(r, failed, host)
}

type listenerFunc func(string, kv.Timestamp, []RegionInfo)

func (f listenerFunc) OnServerFailure(id string, tp kv.Timestamp, rs []RegionInfo) { f(id, tp, rs) }

// TestStoreFlushRetriesThroughFailure verifies the paper's §3.2 workaround:
// a client flush interrupted by a server failure keeps retrying (no retry
// limit) and completes once the region is re-opened elsewhere.
func TestStoreFlushRetriesThroughFailure(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	if err := c.Flush(ctx, writeSet("c1", 1, "t", "a"), 0, false); err != nil {
		t.Fatal(err)
	}
	host := hostFor(t, ts, "t", "a")
	_ = host.SyncWAL()
	host.Crash()
	ts.net.SetDown(host.ID(), true)

	// Start the flush immediately: it must block and retry until the
	// region comes back, then succeed.
	done := make(chan error, 1)
	go func() { done <- c.Flush(ctx, writeSet("c1", 30, "t", "a"), 0, false) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("flush during failover: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("flush did not complete after failover")
	}
	got, _, err := c.Get(ctx, "t", "a", "f", kv.MaxTimestamp)
	if err != nil || string(got.Value) != "v30-a" {
		t.Fatalf("post-failover read: %q %v", got.Value, err)
	}
}

// TestStoreReplayPiggybackReportedToMaster: a replayed write-set carrying
// a failed server's T_P (the recovery client's flush, hasPiggy) lowers the
// receiving server's T_P(s) at the master before the flush returns (Alg. 3
// lines 18-22), and a later sync lifts the pin.
func TestStoreReplayPiggybackReportedToMaster(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	master := NewMaster(MasterConfig{HeartbeatTimeout: time.Hour}, fs)
	master.PublishThresholds(10, 0)
	srv := NewRegionServer(ServerConfig{
		ID:                "s1",
		WALSyncInterval:   time.Hour, // syncs and beats only when the test says
		HeartbeatInterval: time.Hour,
	}, fs)
	if err := master.AddServer(srv); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	if err := master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	persist := func() kv.Timestamp {
		t.Helper()
		if err := srv.report(); err != nil { // learn T_F
			t.Fatal(err)
		}
		if err := srv.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		if err := srv.report(); err != nil { // report T_P(s)
			t.Fatal(err)
		}
		return master.ServerThresholds()["s1"]
	}
	if tp := persist(); tp != 10 {
		t.Fatalf("setup: T_P(s) = %d, want 10", tp)
	}
	c := NewClient(ClientConfig{ID: "cR"}, netsim.New(netsim.Config{}), master)
	if err := c.Flush(context.Background(), writeSet("cR", 3, "t", "b"), 2, true); err != nil {
		t.Fatal(err)
	}
	if tp := master.ServerThresholds()["s1"]; tp != 2 {
		t.Fatalf("T_P(s) at the master after the replay = %d, want the inherited 2", tp)
	}
	if tp := persist(); tp != 10 {
		t.Fatalf("T_P(s) after the replay was synced = %d, want 10", tp)
	}
}

// TestStoreServerInheritsOnlyReplayPiggyback: the region server applies
// every flushed write-set, but only a replay (hasPiggy) moves its T_P(s);
// an ordinary flush with the same timestamps leaves it alone.
func TestStoreServerInheritsOnlyReplayPiggyback(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	master := NewMaster(MasterConfig{HeartbeatTimeout: time.Hour}, fs)
	master.PublishThresholds(10, 0)
	srv := NewRegionServer(ServerConfig{
		ID:                "s1",
		WALSyncInterval:   time.Hour,
		HeartbeatInterval: time.Hour,
	}, fs)
	if err := master.AddServer(srv); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	if err := master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.report(); err != nil {
		t.Fatal(err)
	}
	if err := srv.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if tp := srv.tracker.TP(); tp != 10 {
		t.Fatalf("setup: T_P(s) = %d, want 10", tp)
	}
	c := NewClient(ClientConfig{ID: "c1"}, netsim.New(netsim.Config{}), master)
	ctx := context.Background()
	if err := c.Flush(ctx, writeSet("c1", 7, "t", "a"), 2, false); err != nil {
		t.Fatal(err)
	}
	if tp := srv.tracker.TP(); tp != 10 {
		t.Fatalf("T_P(s) after an ordinary flush = %d, want 10", tp)
	}
	if err := c.Flush(ctx, writeSet("cR", 3, "t", "b"), 2, true); err != nil {
		t.Fatal(err)
	}
	if tp := srv.tracker.TP(); tp != 2 {
		t.Fatalf("T_P(s) after the replay = %d, want the inherited 2", tp)
	}
	for row, want := range map[string]string{"a": "v7-a", "b": "v3-b"} {
		got, found, err := c.Get(ctx, "t", kv.Key(row), "f", kv.MaxTimestamp)
		if err != nil || !found || string(got.Value) != want {
			t.Fatalf("row %s: %q found=%v %v, want %q", row, got.Value, found, err, want)
		}
	}
}

func TestStoreSyncWritesMode(t *testing.T) {
	ts := newTestStore(t, 2, true)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	if err := c.Flush(ctx, writeSet("c1", 10, "t", "a"), 0, false); err != nil {
		t.Fatal(err)
	}
	// In sync mode the write is durable immediately: crash and recover.
	host := hostFor(t, ts, "t", "a")
	host.Crash()
	ts.net.SetDown(host.ID(), true)
	waitLocated(t, ts, "t", "a", host.ID())
	_, found, err := c.Get(ctx, "t", "a", "f", kv.MaxTimestamp)
	if err != nil || !found {
		t.Fatalf("sync-mode write lost: %v found=%v", err, found)
	}
}

func TestMasterErrors(t *testing.T) {
	ts := newTestStore(t, 1, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	if err := ts.master.CreateTable("t", nil); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate table: %v", err)
	}
	if _, _, err := ts.master.Locate("missing", "a"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("missing table: %v", err)
	}
	if _, err := ts.master.TableRegions("missing"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("missing table regions: %v", err)
	}
	if got := ts.master.LiveServers(); len(got) != 1 || got[0] != "server-0" {
		t.Fatalf("LiveServers = %v", got)
	}
}

func TestClientReadRetriesExhausted(t *testing.T) {
	ts := newTestStore(t, 1, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := NewClient(ClientConfig{ID: "c1", ReadRetries: 3, RetryBackoff: time.Millisecond}, ts.net, ts.master)
	// Crash the only server; no reassignment target exists.
	ts.srvs[0].Crash()
	ts.net.SetDown(ts.srvs[0].ID(), true)
	_, _, err := c.Get(context.Background(), "t", "a", "f", kv.MaxTimestamp)
	if err == nil {
		t.Fatal("expected error with all servers down")
	}
}

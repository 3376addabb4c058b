package kvstore

import (
	"context"
	"strings"
	"testing"
	"time"

	"txkv/internal/dfs"
	"txkv/internal/kv"
	"txkv/internal/metrics"
	"txkv/internal/netsim"
)

// newRollStore builds a one-server store whose roll threshold is set
// before the server starts (mutating ServerConfig after Start would race
// the background loops).
func newRollStore(t *testing.T, rollMin int, rec *metrics.ReclaimMetrics) (*testStore, *RegionServer) {
	t.Helper()
	fs := dfs.New(dfs.Config{Replication: 2, DataNodes: 2})
	net := netsim.New(netsim.Config{})
	master := NewMaster(MasterConfig{
		HeartbeatTimeout: 200 * time.Millisecond,
		CheckInterval:    20 * time.Millisecond,
	}, fs)
	master.Start()
	srv := NewRegionServer(ServerConfig{
		ID:                "server-0",
		WALSyncInterval:   20 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		RollFlushMinBytes: rollMin,
		Reclaim:           rec,
	}, fs)
	if err := master.AddServer(srv); err != nil {
		t.Fatal(err)
	}
	ts := &testStore{fs: fs, net: net, master: master, srvs: []*RegionServer{srv}}
	t.Cleanup(func() {
		master.Stop()
		if !srv.Crashed() {
			srv.Stop()
		}
	})
	return ts, srv
}

// TestRollWALSkipsIdleRegionFlush: with a dirty-bytes threshold, a WAL roll
// leaves a mostly-idle region's memstore alone (no tiny store file); the
// edits are carried into the fresh generation, the old generations are
// still deleted, and the carried edits stay durable — the master's log
// split recovers them.
func TestRollWALSkipsIdleRegionFlush(t *testing.T) {
	rec := &metrics.ReclaimMetrics{}
	ts, srv := newRollStore(t, 1<<20, rec) // everything below 1 MiB skips
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	if err := c.Flush(ctx, writeSet("c1", 5, "t", "a", "b"), 0, false); err != nil {
		t.Fatal(err)
	}
	if err := srv.SyncWAL(); err != nil {
		t.Fatal(err)
	}

	if err := srv.RollWAL(); err != nil {
		t.Fatal(err)
	}
	r := hostRegion(t, srv, "t", "a")
	if n := r.Files(); n != 0 {
		t.Fatalf("skipped region flushed %d store files", n)
	}
	if got := rec.Snapshot().FlushesSkipped; got != 1 {
		t.Fatalf("FlushesSkipped = %d, want 1", got)
	}
	// Old generations gone, exactly the current one remains.
	gens := ts.fs.List(walPrefix(srv.ID()))
	if len(gens) != 1 || !strings.Contains(gens[0], "00000001") {
		t.Fatalf("WAL generations after roll: %v", gens)
	}
	// The carried edits are durable in the new generation: a crash + log
	// split must recover them even though no store file was written.
	srv.Crash()
	edits := ts.master.splitWAL(srv.ID())
	found := map[string]bool{}
	for _, es := range edits {
		for _, e := range es {
			for _, kv := range e.KVs {
				found[string(kv.Row)] = true
			}
		}
	}
	if !found["a"] || !found["b"] {
		t.Fatalf("carried edits not recoverable from new WAL generation: %v", found)
	}
}

// TestRollWALFlushesPastThreshold: a region at or above the threshold still
// flushes on roll, exactly as before.
func TestRollWALFlushesPastThreshold(t *testing.T) {
	ts, srv := newRollStore(t, 1, nil) // everything is "big enough"
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	if err := c.Flush(context.Background(), writeSet("c1", 5, "t", "a", "b"), 0, false); err != nil {
		t.Fatal(err)
	}
	if err := srv.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if err := srv.RollWAL(); err != nil {
		t.Fatal(err)
	}
	if n := hostRegion(t, srv, "t", "a").Files(); n != 1 {
		t.Fatalf("store files after roll = %d, want 1", n)
	}
}

func hostRegion(t *testing.T, srv *RegionServer, table string, row kv.Key) *Region {
	t.Helper()
	r, ok := srv.findRegion(table, row, true)
	if !ok {
		t.Fatalf("server %s does not host %s/%s", srv.ID(), table, row)
	}
	return r
}

// TestUnlinkInvalidatesBlockCache: compaction inputs drop out of the block
// cache the moment they are unlinked, instead of lingering until LRU
// eviction.
func TestUnlinkInvalidatesBlockCache(t *testing.T) {
	r, _ := buildRegionWithFiles(t, 3, 50)
	cache := r.cache
	// Warm the cache over every file.
	if _, err := r.ScanRange(kv.KeyRange{}, kv.MaxTimestamp, 0); err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 {
		t.Fatal("scan did not warm the block cache")
	}
	// No readers in flight: Compact retires and unlinks its inputs inline;
	// it reads the inputs through the cache, so without invalidation the
	// cache would end full of dead blocks.
	if err := r.Compact(256, 0); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("block cache holds %d blocks of unlinked store files", n)
	}
	// Reads repopulate it from the merged file only.
	if _, err := r.ScanRange(kv.KeyRange{}, kv.MaxTimestamp, 0); err != nil {
		t.Fatal(err)
	}
	if n, files := cache.Len(), r.Files(); files != 1 || n == 0 {
		t.Fatalf("cache after re-read: %d blocks, %d files", n, files)
	}
}

// TestRollWALKeepsRecoveringRegionEdits: a region still behind its
// recovery gate has its split edits and replays only in this server's WAL
// (journaled, not flushed, not online). A roll inside the gate must flush
// or carry them before it deletes the old generation; otherwise a crash
// right after the roll leaves them in no WAL and no store file.
func TestRollWALKeepsRecoveringRegionEdits(t *testing.T) {
	ts, srv := newRollStore(t, 1<<20, nil)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	regions, err := ts.master.TableRegions("t")
	if err != nil {
		t.Fatal(err)
	}
	info := regions[0]
	srv.CloseRegion(info.ID) // reopened below as a recovering region

	split := []WALEntry{{RegionID: info.ID, KVs: []kv.KeyValue{
		{Cell: kv.Cell{Row: "a", Column: "f", TS: 5}, Value: []byte("split")},
	}}}
	gate := make(chan struct{})
	opened := make(chan error, 1)
	go func() {
		opened <- srv.OpenRegion(info, split, func() error { <-gate; return nil })
	}()
	for {
		if _, ok := srv.entryFor(info.ID); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// The recovery manager's replay into the recovering region.
	if err := srv.ApplyWriteSet(writeSet("rm", 6, "t", "b"), 0, true); err != nil {
		t.Fatal(err)
	}
	if err := srv.SyncWAL(); err != nil {
		t.Fatal(err)
	}

	if err := srv.RollWAL(); err != nil {
		t.Fatal(err)
	}
	srv.Crash()
	close(gate)
	<-opened

	// What the next host would see: the region's store files plus the
	// dead server's split WAL.
	r, err := OpenRegion(ts.fs, nil, info)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ts.master.splitWAL(srv.ID())[info.ID] {
		r.Apply(e.KVs)
	}
	for _, row := range []kv.Key{"a", "b"} {
		if _, ok, err := r.Get(row, "f", kv.MaxTimestamp); err != nil || !ok {
			t.Errorf("row %s lost after a roll inside the recovery gate and a crash (found %v, err %v)", row, ok, err)
		}
	}
}

package kvstore

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"txkv/internal/dfs"
	"txkv/internal/kv"
	"txkv/internal/netsim"
)

func regionCountsByServer(t *testing.T, ts *testStore) map[string]int {
	t.Helper()
	counts := make(map[string]int)
	for _, srv := range ts.srvs {
		if !srv.Crashed() {
			counts[srv.ID()] = len(srv.HostedRegionInfos())
		}
	}
	return counts
}

func TestMoveRegionPreservesData(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := c.Flush(ctx, writeSet("c1", kv.Timestamp(i+1), "t", fmt.Sprintf("row%02d", i)), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	info, src, err := ts.master.Locate("t", "row00")
	if err != nil {
		t.Fatal(err)
	}
	var target *RegionServer
	for _, s := range ts.srvs {
		if s.ID() != src.ID() {
			target = s
		}
	}
	if err := ts.master.MoveRegion(info.ID, target.ID()); err != nil {
		t.Fatal(err)
	}
	// Now served by the target, with all data intact.
	_, host, err := ts.master.Locate("t", "row00")
	if err != nil {
		t.Fatal(err)
	}
	if host.ID() != target.ID() {
		t.Fatalf("region on %s, want %s", host.ID(), target.ID())
	}
	for i := 0; i < 20; i++ {
		row := fmt.Sprintf("row%02d", i)
		got, found, err := c.Get(ctx, "t", kv.Key(row), "f", kv.MaxTimestamp)
		if err != nil || !found {
			t.Fatalf("row %s lost in move: %v %v", row, found, err)
		}
		want := fmt.Sprintf("v%d-%s", i+1, row)
		if string(got.Value) != want {
			t.Fatalf("row %s = %q, want %q", row, got.Value, want)
		}
	}
	// Writes continue to work post-move.
	if err := c.Flush(ctx, writeSet("c1", 100, "t", "row00"), 0, false); err != nil {
		t.Fatal(err)
	}
}

func TestMoveRegionErrors(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	info, host, err := ts.master.Locate("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.master.MoveRegion(info.ID, "server-xyz"); !errors.Is(err, ErrNoLiveServers) {
		t.Fatalf("unknown target: %v", err)
	}
	if err := ts.master.MoveRegion("no-such-region", ts.srvs[0].ID()); !errors.Is(err, ErrRegionNotServing) {
		t.Fatalf("unknown region: %v", err)
	}
	// Self-move is a no-op.
	if err := ts.master.MoveRegion(info.ID, host.ID()); err != nil {
		t.Fatalf("self move: %v", err)
	}
}

func TestRebalanceSpreadsRegions(t *testing.T) {
	ts := newTestStore(t, 1, false)
	// 6 regions all on the single server.
	if err := ts.master.CreateTable("t", []kv.Key{"b", "c", "d", "e", "f"}); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	for _, row := range []string{"a1", "b1", "c1", "d1", "e1", "f1"} {
		if err := c.Flush(ctx, writeSet("c1", kv.Timestamp(len(row)), "t", row), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	// Two fresh servers join.
	for i := 1; i <= 2; i++ {
		srv := NewRegionServer(ServerConfig{
			ID:                fmt.Sprintf("server-%d", i),
			WALSyncInterval:   20 * time.Millisecond,
			HeartbeatInterval: 20 * time.Millisecond,
		}, ts.fs)
		if err := ts.master.AddServer(srv); err != nil {
			t.Fatal(err)
		}
		ts.srvs = append(ts.srvs, srv)
	}
	moves, err := ts.master.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Fatal("rebalance moved nothing")
	}
	counts := regionCountsByServer(t, ts)
	for id, n := range counts {
		if n != 2 {
			t.Fatalf("server %s hosts %d regions, want 2 (counts %v)", id, n, counts)
		}
	}
	// All data still readable after the moves.
	for _, row := range []string{"a1", "b1", "c1", "d1", "e1", "f1"} {
		if _, found, err := c.Get(ctx, "t", kv.Key(row), "f", kv.MaxTimestamp); err != nil || !found {
			t.Fatalf("row %s lost in rebalance: %v %v", row, found, err)
		}
	}
	// Idempotent: another pass moves nothing.
	moves, err = ts.master.Rebalance()
	if err != nil || moves != 0 {
		t.Fatalf("second rebalance: %d moves, %v", moves, err)
	}
}

func TestRebalanceSingleServerNoOp(t *testing.T) {
	ts := newTestStore(t, 1, false)
	if err := ts.master.CreateTable("t", []kv.Key{"m"}); err != nil {
		t.Fatal(err)
	}
	moves, err := ts.master.Rebalance()
	if err != nil || moves != 0 {
		t.Fatalf("single-server rebalance: %d %v", moves, err)
	}
}

func TestMoveRegionUnderConcurrentWrites(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	done := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			ws := writeSet("c1", kv.Timestamp(i+1), "t", fmt.Sprintf("row%03d", i))
			if err := c.Flush(ctx, ws, 0, false); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Move the region back and forth while writes stream in.
	info, _, err := ts.master.Locate("t", "row")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		target := ts.srvs[i%2].ID()
		if err := ts.master.MoveRegion(info.ID, target); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	<-done
	select {
	case err := <-errs:
		t.Fatalf("writer failed: %v", err)
	default:
	}
	// Every acknowledged write survived the moves.
	for i := 0; i < 100; i++ {
		row := fmt.Sprintf("row%03d", i)
		_, found, err := c.Get(ctx, "t", kv.Key(row), "f", kv.MaxTimestamp)
		if err != nil || !found {
			t.Fatalf("row %s lost across moves: %v %v", row, found, err)
		}
	}
}

// holdingFS holds the first store-file read after hold is set until
// release closes, so a test can keep one read in flight across a move.
type holdingFS struct {
	dfs.FileSystem
	hold    atomic.Bool
	reading chan struct{} // closed when the held read starts
	release chan struct{}
}

func (h *holdingFS) ReadRange(path string, off int64, n int) ([]byte, error) {
	if strings.HasSuffix(path, ".sf") && h.hold.CompareAndSwap(true, false) {
		close(h.reading)
		<-h.release
	}
	return h.FileSystem.ReadRange(path, off, n)
}

// TestMoveWaitsForInflightRead: a move's source returns its file list only
// once the reads that found the region have finished. Otherwise the
// destination may compact and unlink a file that a page still in flight on
// the source reads next, and the page fails with dfs.ErrNotFound.
func TestMoveWaitsForInflightRead(t *testing.T) {
	fs := dfs.New(dfs.Config{Replication: 2, DataNodes: 3})
	hfs := &holdingFS{FileSystem: fs, reading: make(chan struct{}), release: make(chan struct{})}
	master := NewMaster(MasterConfig{HeartbeatTimeout: 200 * time.Millisecond, CheckInterval: 20 * time.Millisecond}, fs)
	master.Start()
	src := NewRegionServer(ServerConfig{ID: "server-0", WALSyncInterval: 20 * time.Millisecond, HeartbeatInterval: 20 * time.Millisecond}, hfs)
	dst := NewRegionServer(ServerConfig{ID: "server-1", WALSyncInterval: 20 * time.Millisecond, HeartbeatInterval: 20 * time.Millisecond}, fs)
	if err := master.AddServer(src); err != nil {
		t.Fatal(err)
	}
	if err := master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	if err := master.AddServer(dst); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(hfs.release)
		master.Stop()
		src.Stop()
		dst.Stop()
	})
	ts := &testStore{fs: fs, net: netsim.New(netsim.Config{}), master: master, srvs: []*RegionServer{src, dst}}
	c := ts.client("c1")
	ctx := context.Background()
	const rows = 10
	for i := 0; i < rows; i++ {
		if err := c.Flush(ctx, writeSet("c1", kv.Timestamp(i+1), "t", fmt.Sprintf("row%02d", i)), 0, false); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := src.FlushAll(); err != nil { // two store files to compact
				t.Fatal(err)
			}
		}
	}
	info, _, err := master.Locate("t", "row00")
	if err != nil {
		t.Fatal(err)
	}

	hfs.hold.Store(true)
	scanDone := make(chan error, 1)
	go func() {
		resp, err := src.ScanBatch(ctx, ScanRequest{Table: "t", MaxTS: kv.MaxTimestamp, Batch: 100})
		if err == nil && len(resp.KVs) != rows {
			err = fmt.Errorf("scan returned %d rows, want %d", len(resp.KVs), rows)
		}
		scanDone <- err
	}()
	<-hfs.reading

	moveDone := make(chan error, 1)
	go func() { moveDone <- master.MoveRegion(info.ID, dst.ID()) }()
	select {
	case err := <-moveDone:
		// The move finished under the held read: compact on the
		// destination, which unlinks the files that read is in.
		if err != nil {
			t.Fatal(err)
		}
		if err := hostRegion(t, dst, "t", "row00").Compact(256, 0); err != nil {
			t.Fatal(err)
		}
		moveDone <- nil
	case <-time.After(100 * time.Millisecond):
	}
	hfs.release <- struct{}{}
	if err := <-scanDone; err != nil {
		t.Fatalf("in-flight scan page across the move: %v", err)
	}
	if err := <-moveDone; err != nil {
		t.Fatal(err)
	}
	if err := hostRegion(t, dst, "t", "row00").Compact(256, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		row := fmt.Sprintf("row%02d", i)
		if _, found, err := c.Get(ctx, "t", kv.Key(row), "f", kv.MaxTimestamp); err != nil || !found {
			t.Fatalf("get %s after the move: found=%v err=%v", row, found, err)
		}
	}
}

package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"txkv/internal/kv"
)

func TestServerRejectsMisroutedWriteSet(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", []kv.Key{"m"}); err != nil {
		t.Fatal(err)
	}
	// Find a server and a row it does NOT host.
	hostA := hostFor(t, ts, "t", "a")
	hostZ := hostFor(t, ts, "t", "z")
	if hostA == hostZ {
		t.Skip("both regions on one server; routing can't misfire")
	}
	ws := writeSet("c", 1, "t", "z")
	if err := hostA.ApplyWriteSet(ws, 0, false); !errors.Is(err, ErrRegionNotServing) {
		t.Fatalf("misrouted write: %v", err)
	}
	// Nothing applied on either server.
	if _, found, _ := hostZ.Get("t", "z", "f", kv.MaxTimestamp); found {
		t.Fatal("misrouted write leaked")
	}
}

func TestServerOperationsAfterCrash(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	srv := hostFor(t, ts, "t", "a")
	srv.Crash()
	if err := srv.ApplyWriteSet(writeSet("c", 1, "t", "a"), 0, false); !errors.Is(err, ErrServerStopped) {
		t.Fatalf("apply after crash: %v", err)
	}
	if _, _, err := srv.Get("t", "a", "f", kv.MaxTimestamp); !errors.Is(err, ErrServerStopped) {
		t.Fatalf("get after crash: %v", err)
	}
	if _, err := srv.ScanBatch(context.Background(), ScanRequest{Table: "t", MaxTS: kv.MaxTimestamp}); !errors.Is(err, ErrServerStopped) {
		t.Fatalf("scan after crash: %v", err)
	}
	if err := srv.SyncWAL(); !errors.Is(err, ErrServerStopped) {
		t.Fatalf("sync after crash: %v", err)
	}
	if err := srv.OpenRegion(RegionInfo{ID: "x", Table: "t"}, nil, nil); !errors.Is(err, ErrServerStopped) {
		t.Fatalf("open after crash: %v", err)
	}
	if _, err := srv.CloseAndFlushRegion("anything"); !errors.Is(err, ErrServerStopped) {
		t.Fatalf("close-and-flush after crash: %v", err)
	}
	if !srv.Crashed() {
		t.Fatal("Crashed() = false")
	}
	// Idempotent crash.
	srv.Crash()
}

func TestCloseAndFlushUnknownRegion(t *testing.T) {
	ts := newTestStore(t, 1, false)
	if _, err := ts.srvs[0].CloseAndFlushRegion("nope"); !errors.Is(err, ErrRegionNotServing) {
		t.Fatalf("unknown region: %v", err)
	}
}

// TestDrainAllowsStartsDuringWait is the in-flight apply counter a region
// move drains: operations keep starting while waiters wait (a
// sync.WaitGroup panics on that: "WaitGroup is reused before previous Wait
// has returned"), and wait returns only once every operation that started
// before it has finished.
func TestDrainAllowsStartsDuringWait(t *testing.T) {
	s := NewRegionServer(ServerConfig{ID: "rs"}, nil)
	d := &s.inflight
	stop := make(chan struct{})
	var ops sync.WaitGroup
	for g := 0; g < 4; g++ {
		ops.Add(1)
		go func() {
			defer ops.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.add()
				d.done()
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		d.wait()
	}
	close(stop)
	ops.Wait()

	d.add()
	waited := make(chan struct{})
	go func() {
		d.wait()
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("wait returned with an operation in progress")
	case <-time.After(20 * time.Millisecond):
	}
	d.done()
	<-waited
}

func TestAutomaticMemstoreFlush(t *testing.T) {
	fs := newTestStore(t, 1, false).fs
	srv := NewRegionServer(ServerConfig{
		ID:                 "auto-flush",
		MemstoreFlushBytes: 2048,
		FlushCheckInterval: 10 * time.Millisecond,
		WALSyncInterval:    10 * time.Millisecond,
	}, fs)
	master := NewMaster(MasterConfig{HeartbeatTimeout: time.Hour}, fs)
	master.Start()
	defer master.Stop()
	if err := master.AddServer(srv); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	if err := master.CreateTable("af", nil); err != nil {
		t.Fatal(err)
	}
	// Write enough to exceed the flush threshold.
	for i := 0; i < 50; i++ {
		ws := kv.WriteSet{TxnID: uint64(i), ClientID: "c", CommitTS: kv.Timestamp(i + 1)}
		ws.Updates = append(ws.Updates, kv.Update{
			Table: "af", Row: kv.Key(fmt.Sprintf("row%03d", i)), Column: "f",
			Value: make([]byte, 100),
		})
		if err := srv.ApplyWriteSet(ws, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if len(fs.List("/data/af/")) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("memstore never auto-flushed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAutomaticCompaction(t *testing.T) {
	fs := newTestStore(t, 1, false).fs
	srv := NewRegionServer(ServerConfig{
		ID:                  "auto-compact",
		MemstoreFlushBytes:  512,
		FlushCheckInterval:  5 * time.Millisecond,
		WALSyncInterval:     10 * time.Millisecond,
		CompactionThreshold: 3,
	}, fs)
	master := NewMaster(MasterConfig{HeartbeatTimeout: time.Hour}, fs)
	master.Start()
	defer master.Stop()
	if err := master.AddServer(srv); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	if err := master.CreateTable("ac", nil); err != nil {
		t.Fatal(err)
	}
	// Many small writes => many flushes => compaction keeps file count low.
	for i := 0; i < 200; i++ {
		ws := kv.WriteSet{TxnID: uint64(i), ClientID: "c", CommitTS: kv.Timestamp(i + 1)}
		ws.Updates = append(ws.Updates, kv.Update{
			Table: "ac", Row: kv.Key(fmt.Sprintf("row%03d", i%20)), Column: "f",
			Value: make([]byte, 64),
		})
		if err := srv.ApplyWriteSet(ws, 0, false); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		regions := srv.hostedRegions(false)
		if len(regions) == 1 && regions[0].Files() <= 4 && regions[0].Files() >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction never bounded files: %d", regions[0].Files())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// All newest versions still readable.
	for i := 0; i < 20; i++ {
		row := kv.Key(fmt.Sprintf("row%03d", i))
		if _, found, err := srv.Get("ac", row, "f", kv.MaxTimestamp); err != nil || !found {
			t.Fatalf("row %s lost after auto-compaction: %v %v", row, found, err)
		}
	}
}

func TestScanLimitAtServer(t *testing.T) {
	ts := newTestStore(t, 1, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	rows := make([]string, 20)
	for i := range rows {
		rows[i] = fmt.Sprintf("row%02d", i)
	}
	if err := c.Flush(ctx, writeSet("c1", 1, "t", rows...), 0, false); err != nil {
		t.Fatal(err)
	}
	got, err := c.Scan(ctx, "t", kv.KeyRange{}, kv.MaxTimestamp, 7)
	if err != nil || len(got) != 7 {
		t.Fatalf("limited scan: %d %v", len(got), err)
	}
}

func TestServerStopIsClean(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	if err := c.Flush(ctx, writeSet("c1", 5, "t", "a"), 0, false); err != nil {
		t.Fatal(err)
	}
	host := hostFor(t, ts, "t", "a")
	host.Stop() // clean: WAL synced first
	ts.net.SetDown(host.ID(), true)
	// After reassignment, the write is durable via the WAL even though
	// Stop (not Crash) was used and no recovery middleware exists here.
	waitLocated(t, ts, "t", "a", host.ID())
	got, found, err := c.Get(ctx, "t", "a", "f", kv.MaxTimestamp)
	if err != nil || !found || string(got.Value) != "v5-a" {
		t.Fatalf("after clean stop: %q %v %v", got.Value, found, err)
	}
}

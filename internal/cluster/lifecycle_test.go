package cluster

import (
	"fmt"
	"testing"
	"time"

	"txkv/internal/kv"
)

// flushAllServers persists every live server's memstores so compaction has
// store files to merge.
func flushAllServers(t *testing.T, c *Cluster) {
	t.Helper()
	for _, id := range c.ServerIDs() {
		if srv, ok := c.Server(id); ok && !srv.Crashed() {
			if err := srv.FlushAll(); err != nil {
				t.Fatalf("flush %s: %v", id, err)
			}
		}
	}
}

// TestReclaimStorageRoundTripsThroughReopen: write several store-file
// generations, reclaim (store-file compaction + DFS log compaction), verify
// the data directory shrank, then stop and reopen — the compacted layout
// must restore every committed value, and keep working through another
// write/reclaim/reopen cycle whose cold reads go through bloom-carrying
// compressed files.
func TestReclaimStorageRoundTripsThroughReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := diskConfig(2, dir)
	cfg.StorageSegmentBytes = 8 << 10 // small segments: compaction has sealed ones to drop

	c, err := New(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := c.CreateTable("t", []kv.Key{"row-020"}); err != nil {
		t.Fatalf("create table: %v", err)
	}

	// Several overwrite generations, each flushed to its own store files:
	// plenty of shadowed versions and dead journal bytes.
	var want map[string]string
	for gen := 0; gen < 4; gen++ {
		want = commitValues(t, c, fmt.Sprintf("w%d", gen), "t", 40, gen)
		if err := c.WaitFlushed(c.TM().LastIssued(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		flushAllServers(t, c)
	}

	before, err := c.DataDirBytes()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.ReclaimStorage()
	if err != nil {
		t.Fatalf("reclaim: %v", err)
	}
	if rep.DFS.SegmentsDropped == 0 || rep.DFS.BytesReclaimed == 0 {
		t.Fatalf("DFS compaction reclaimed nothing: %+v", rep)
	}
	after, err := c.DataDirBytes()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("DataDir did not shrink: %d -> %d", before, after)
	}
	if rc := c.ReclaimStats(); rc.FilesRetired == 0 || rc.BytesReclaimed == 0 {
		t.Fatalf("reclaim counters empty: %+v", rc)
	}
	auditValues(t, c, "audit-pre", "t", want)

	// The compacted layout must round-trip a full stop + reopen.
	c.Stop()
	c2, err := Reopen(cfg)
	if err != nil {
		t.Fatalf("reopen over compacted layout: %v", err)
	}
	auditValues(t, c2, "audit-post", "t", want)

	// And the reopened cluster keeps reclaiming: another generation,
	// another pass, another reopen.
	want = commitValues(t, c2, "w-post", "t", 40, 9)
	if err := c2.WaitFlushed(c2.TM().LastIssued(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	flushAllServers(t, c2)
	if _, err := c2.ReclaimStorage(); err != nil {
		t.Fatalf("reclaim after reopen: %v", err)
	}
	if s := c2.FileStats(); s.BlockCompressedBytes == 0 {
		t.Fatalf("reclaim after reopen wrote no compressed blocks: %+v", s)
	}
	// Cold reads go through the reclaimed store files, and point reads
	// consult their bloom filters before fetching a block.
	for _, id := range c2.ServerIDs() {
		if srv, ok := c2.Server(id); ok {
			srv.Cache().Clear()
		}
	}
	auditValues(t, c2, "audit-post2", "t", want)
	if s := c2.FileStats(); s.BloomProbes == 0 {
		t.Fatalf("cold reads after reopen never consulted a bloom filter: %+v", s)
	}
	c2.Stop()

	c3, err := Reopen(cfg)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer c3.Stop()
	auditValues(t, c3, "audit-final", "t", want)
}

// TestWALRollSurvivesServerCrash: rolling the WAL (which deletes old
// generations after a covering flush) must not lose any acknowledged write
// when the server then crashes — recovery splits whatever generations
// survive and the store files plus TM-log replay cover the rest.
func TestWALRollSurvivesServerCrash(t *testing.T) {
	c := newCluster(t, fastConfig(2))
	if err := c.CreateTable("t", []kv.Key{"row-020"}); err != nil {
		t.Fatal(err)
	}

	want := commitValues(t, c, "w-pre", "t", 40, 0)
	// Roll every live server: pre-roll edits move into store files, old
	// WAL generations are deleted.
	for _, id := range c.ServerIDs() {
		srv, _ := c.Server(id)
		if err := srv.RollWAL(); err != nil {
			t.Fatalf("roll %s: %v", id, err)
		}
	}
	// Post-roll writes land in the fresh generations only.
	for k, v := range commitValues(t, c, "w-post", "t", 40, 1) {
		want[k] = v
	}

	victim := c.ServerIDs()[1]
	if err := c.CrashServer(victim); err != nil {
		t.Fatal(err)
	}
	rm := c.RecoveryManager()
	deadline := time.Now().Add(15 * time.Second)
	for rm.StatsSnapshot().RegionsRecovered == 0 {
		if time.Now().After(deadline) {
			t.Fatal("recovery never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	auditValues(t, c, "audit", "t", want)
}

// TestJanitorBoundsDataDirUnderContinuousWrites is the in-tree soak: with
// the janitor running, continuous overwrites must not grow DataDir
// monotonically — the size at the end of the run stays within a small
// factor of the size after the first reclamation settles, while acknowledged
// data stays readable throughout.
func TestJanitorBoundsDataDirUnderContinuousWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	dir := t.TempDir()
	cfg := diskConfig(2, dir)
	cfg.StorageSegmentBytes = 8 << 10
	cfg.CompactionInterval = 100 * time.Millisecond
	cfg.CompactionThreshold = 3
	cfg.MemstoreFlushBytes = 16 << 10 // frequent flushes: store files churn

	c, err := New(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Stop()
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatalf("create table: %v", err)
	}
	cl, err := c.NewClient("soaker")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	write := func(rounds int) {
		for i := 0; i < rounds; i++ {
			txn := begin(t, cl)
			row := fmt.Sprintf("row-%03d", i%50)
			if err := txn.Put(bgctx, "t", kv.Key(row), "f", []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("put: %v", err)
			}
			if _, err := txn.Commit(bgctx); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
	}

	// Warm-up: enough writes for flushes, compactions, and a couple of
	// janitor passes to have happened.
	write(1200)
	if err := c.WaitFlushed(c.TM().LastIssued(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReclaimStorage(); err != nil {
		t.Fatal(err)
	}
	baseline, err := c.DataDirBytes()
	if err != nil {
		t.Fatal(err)
	}

	// Soak: the same keyspace overwritten again and again. Without
	// reclamation DataDir grows linearly with every round; with it the
	// size must return to the baseline's neighbourhood once the round's
	// reclamation settles. Mid-round sizes are NOT asserted — under
	// parallel test load the heartbeat-driven TM-log truncation can lag
	// a round, which is transient occupancy, not a leak.
	for round := 0; round < 6; round++ {
		write(600)
		if err := c.WaitFlushed(c.TM().LastIssued(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReclaimStorage(); err != nil {
			t.Fatal(err)
		}
	}
	// Settle: let the recovery middleware's checkpoint (T_P) catch up so
	// the TM log truncates, then reclaim once more and measure.
	var final int64
	deadline := time.Now().Add(10 * time.Second)
	for {
		time.Sleep(100 * time.Millisecond)
		if _, err := c.ReclaimStorage(); err != nil {
			t.Fatal(err)
		}
		var err error
		if final, err = c.DataDirBytes(); err != nil {
			t.Fatal(err)
		}
		if final <= baseline*3 || time.Now().After(deadline) {
			break
		}
	}
	if final > baseline*3 {
		t.Fatalf("DataDir grew monotonically under soak: baseline %d, settled %d", baseline, final)
	}
	if rc := c.ReclaimStats(); rc.Compactions == 0 || rc.BytesReclaimed == 0 {
		t.Fatalf("reclamation never ran during soak: %+v", rc)
	}

	// Acknowledged data remains correct after all that churn.
	txn := beginStrict(t, cl)
	v, ok, err := txn.Get(bgctx, "t", kv.Key("row-000"), "f")
	txn.Abort()
	if err != nil || !ok {
		t.Fatalf("post-soak read: ok=%v err=%v", ok, err)
	}
	if len(v) == 0 {
		t.Fatal("post-soak read returned empty value")
	}
}

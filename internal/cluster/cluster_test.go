package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"txkv/internal/kv"
	"txkv/internal/txmgr"
)

// bgctx is the default context for test transaction operations.
var bgctx = context.Background()

// begin/beginStrict/beginLatest adapt BeginTxn to the test style: fail the
// test on a begin-time error, return the transaction.
func begin(t testing.TB, cl *Client) *Txn {
	t.Helper()
	txn, err := cl.BeginTxn(TxnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return txn
}

func beginStrict(t testing.TB, cl *Client) *Txn {
	t.Helper()
	txn, err := cl.BeginTxn(TxnOptions{Mode: SnapshotFrontier})
	if err != nil {
		t.Fatal(err)
	}
	return txn
}

func beginLatest(t testing.TB, cl *Client) *Txn {
	t.Helper()
	txn, err := cl.BeginTxn(TxnOptions{Mode: SnapshotLatest})
	if err != nil {
		t.Fatal(err)
	}
	return txn
}

// fastConfig returns a config with tight intervals for quick tests.
func fastConfig(servers int) Config {
	return Config{
		Servers:                servers,
		HeartbeatInterval:      25 * time.Millisecond,
		SessionTTL:             100 * time.Millisecond,
		RMPollInterval:         15 * time.Millisecond,
		MasterHeartbeatTimeout: 150 * time.Millisecond,
		WALSyncInterval:        10 * time.Millisecond,
	}
}

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func TestTxnCommitAndRead(t *testing.T) {
	c := newCluster(t, fastConfig(2))
	if err := c.CreateTable("t", []kv.Key{"m"}); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("c1")
	if err != nil {
		t.Fatal(err)
	}

	txn := begin(t, cl)
	if err := txn.Put(bgctx, "t", "alpha", "f", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Put(bgctx, "t", "zulu", "f", []byte("2")); err != nil {
		t.Fatal(err)
	}
	// Read-your-own-writes before commit.
	if v, ok, _ := txn.Get(bgctx, "t", "alpha", "f"); !ok || string(v) != "1" {
		t.Fatalf("own write read: %q %v", v, ok)
	}
	cts, err := txn.CommitWait(bgctx)
	if err != nil {
		t.Fatal(err)
	}
	if cts == 0 {
		t.Fatal("zero commit ts")
	}

	// A later transaction sees it.
	txn2 := begin(t, cl)
	if v, ok, err := txn2.Get(bgctx, "t", "alpha", "f"); err != nil || !ok || string(v) != "1" {
		t.Fatalf("read committed: %q %v %v", v, ok, err)
	}
	txn2.Abort()
}

func TestTxnSnapshotIsolationEndToEnd(t *testing.T) {
	c := newCluster(t, fastConfig(1))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, _ := c.NewClient("c1")

	setup := begin(t, cl)
	_ = setup.Put(bgctx, "t", "x", "f", []byte("old"))
	if _, err := setup.CommitWait(bgctx); err != nil {
		t.Fatal(err)
	}

	// Old snapshot taken before a new write lands.
	old := begin(t, cl)
	writer := begin(t, cl)
	_ = writer.Put(bgctx, "t", "x", "f", []byte("new"))
	if _, err := writer.CommitWait(bgctx); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := old.Get(bgctx, "t", "x", "f"); err != nil || !ok || string(v) != "old" {
		t.Fatalf("snapshot read: %q %v %v", v, ok, err)
	}
	// Write-write conflict: old txn writing x must abort.
	_ = old.Put(bgctx, "t", "x", "f", []byte("conflict"))
	if _, err := old.Commit(bgctx); !errors.Is(err, txmgr.ErrConflict) {
		t.Fatalf("expected conflict, got %v", err)
	}
}

func TestTxnDelete(t *testing.T) {
	c := newCluster(t, fastConfig(1))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, _ := c.NewClient("c1")
	w := begin(t, cl)
	_ = w.Put(bgctx, "t", "r", "f", []byte("v"))
	if _, err := w.CommitWait(bgctx); err != nil {
		t.Fatal(err)
	}
	d := begin(t, cl)
	if err := d.Delete(bgctx, "t", "r", "f"); err != nil {
		t.Fatal(err)
	}
	// Own delete visible inside the txn.
	if _, ok, _ := d.Get(bgctx, "t", "r", "f"); ok {
		t.Fatal("own delete not visible")
	}
	if _, err := d.CommitWait(bgctx); err != nil {
		t.Fatal(err)
	}
	after := begin(t, cl)
	if _, ok, _ := after.Get(bgctx, "t", "r", "f"); ok {
		t.Fatal("deleted row visible after commit")
	}
	after.Abort()
}

func TestTxnScanWithOverlay(t *testing.T) {
	c := newCluster(t, fastConfig(1))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, _ := c.NewClient("c1")
	seed := begin(t, cl)
	for i := 0; i < 5; i++ {
		_ = seed.Put(bgctx, "t", kv.Key(fmt.Sprintf("r%d", i)), "f", []byte("base"))
	}
	if _, err := seed.CommitWait(bgctx); err != nil {
		t.Fatal(err)
	}
	txn := begin(t, cl)
	_ = txn.Put(bgctx, "t", "r2", "f", []byte("mine"))
	_ = txn.Delete(bgctx, "t", "r3", "f")
	_ = txn.Put(bgctx, "t", "r9", "f", []byte("extra"))
	got, err := collectScan(txn.Scan(bgctx, "t", kv.KeyRange{}, ScanOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	// r0,r1,r2(mine),r4,r9 — r3 deleted.
	if len(got) != 5 {
		t.Fatalf("scan = %d entries: %v", len(got), got)
	}
	for _, e := range got {
		if e.Row == "r3" {
			t.Fatal("deleted row in scan")
		}
		if e.Row == "r2" && string(e.Value) != "mine" {
			t.Fatalf("overlay lost: %q", e.Value)
		}
	}
	txn.Abort()
}

func TestTxnAbortDiscardsWrites(t *testing.T) {
	c := newCluster(t, fastConfig(1))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, _ := c.NewClient("c1")
	txn := begin(t, cl)
	_ = txn.Put(bgctx, "t", "r", "f", []byte("v"))
	txn.Abort()
	if _, err := txn.Commit(bgctx); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("commit after abort: %v", err)
	}
	check := begin(t, cl)
	if _, ok, _ := check.Get(bgctx, "t", "r", "f"); ok {
		t.Fatal("aborted write visible")
	}
	check.Abort()
	// Nothing in the TM log either.
	if s := c.Log().Stats(); s.TotalAppends != 0 {
		t.Fatalf("log appends = %d", s.TotalAppends)
	}
}

// TestServerCrashNoCommittedWriteLost is the headline end-to-end guarantee:
// commits acknowledged before a server crash survive it, even with fully
// asynchronous persistence.
func TestServerCrashNoCommittedWriteLost(t *testing.T) {
	cfg := fastConfig(2)
	cfg.WALSyncInterval = 0 // the default 50ms async WAL sync: a crash loses the unsynced tail
	c := newCluster(t, cfg)
	if err := c.CreateTable("t", []kv.Key{"m"}); err != nil {
		t.Fatal(err)
	}
	cl, _ := c.NewClient("c1")

	const n = 30
	var lastTS kv.Timestamp
	for i := 0; i < n; i++ {
		txn := begin(t, cl)
		_ = txn.Put(bgctx, "t", kv.Key(fmt.Sprintf("key%03d", i)), "f", []byte(strconv.Itoa(i)))
		cts, err := txn.Commit(bgctx) // async flush
		if err != nil {
			t.Fatal(err)
		}
		lastTS = cts
	}
	// Wait until everything is at least flushed (not necessarily
	// persisted), then crash a server.
	if err := c.WaitFlushed(lastTS, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	ids := c.ServerIDs()
	if err := c.CrashServer(ids[0]); err != nil {
		t.Fatal(err)
	}

	// Every committed write must be readable after recovery.
	deadline := time.Now().Add(15 * time.Second)
	reader, _ := c.NewClient("reader")
	for i := 0; i < n; i++ {
		row := kv.Key(fmt.Sprintf("key%03d", i))
		for {
			txn := begin(t, reader)
			v, ok, err := txn.Get(bgctx, "t", row, "f")
			txn.Abort()
			if err == nil && ok && string(v) == strconv.Itoa(i) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("row %s lost after crash: %q ok=%v err=%v", row, v, ok, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// TestClientCrashCommittedTxnRecovered: commit acked, client dies before
// flushing; the write must appear via RM replay.
func TestClientCrashCommittedTxnRecovered(t *testing.T) {
	cfg := fastConfig(2)
	// Huge RPC latency floor isn't needed; instead stall the flush by
	// partitioning the client right after commit.
	c := newCluster(t, cfg)
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, _ := c.NewClient("victim")

	// Partition the client so its flush cannot reach any server, commit
	// (the TM and coord are modelled in-process and reachable), then
	// crash.
	txn := begin(t, cl)
	_ = txn.Put(bgctx, "t", "orphan", "f", []byte("must-survive"))
	c.Network().SetPartition("victim", 9)
	cts, err := txn.Commit(bgctx)
	if err != nil {
		t.Fatal(err)
	}
	cl.Crash()

	// RM replays after the session expires.
	rm := c.RecoveryManager()
	deadline := time.Now().Add(10 * time.Second)
	for rm.StatsSnapshot().ClientsRecovered == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client recovery never ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	reader, _ := c.NewClient("reader")
	txn2 := begin(t, reader)
	v, ok, err := txn2.Get(bgctx, "t", "orphan", "f")
	txn2.Abort()
	if err != nil || !ok || string(v) != "must-survive" {
		t.Fatalf("committed txn %d lost with client: %q ok=%v err=%v", cts, v, ok, err)
	}
}

func TestRMCrashDoesNotBlockTransactions(t *testing.T) {
	c := newCluster(t, fastConfig(2))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, _ := c.NewClient("c1")
	c.CrashRecoveryManager()
	// Processing continues while the RM is down (paper §3.3).
	for i := 0; i < 5; i++ {
		txn := begin(t, cl)
		_ = txn.Put(bgctx, "t", kv.Key(fmt.Sprintf("r%d", i)), "f", []byte("v"))
		if _, err := txn.CommitWait(bgctx); err != nil {
			t.Fatalf("commit with RM down: %v", err)
		}
	}
	c.RestartRecoveryManager()
	if c.RecoveryManager() == nil {
		t.Fatal("RM not restarted")
	}
	// And a server failure after the restart still recovers.
	ids := c.ServerIDs()
	if err := c.CrashServer(ids[1]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	reader, _ := c.NewClient("reader")
	for i := 0; i < 5; i++ {
		row := kv.Key(fmt.Sprintf("r%d", i))
		for {
			txn := begin(t, reader)
			_, ok, err := txn.Get(bgctx, "t", row, "f")
			txn.Abort()
			if err == nil && ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("row %s unreadable after post-restart recovery", row)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

func TestDisableRecoveryMode(t *testing.T) {
	cfg := fastConfig(1)
	cfg.DisableRecovery = true
	c := newCluster(t, cfg)
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("c1")
	if err != nil {
		t.Fatal(err)
	}
	txn := begin(t, cl)
	_ = txn.Put(bgctx, "t", "r", "f", []byte("v"))
	if _, err := txn.CommitWait(bgctx); err != nil {
		t.Fatal(err)
	}
	if cl.TF() != 0 {
		t.Fatal("tracking active despite DisableRecovery")
	}
	if c.RecoveryManager() != nil {
		t.Fatal("RM exists despite DisableRecovery")
	}
}

func TestThresholdsReachSteadyState(t *testing.T) {
	c := newCluster(t, fastConfig(2))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, _ := c.NewClient("c1")
	var last kv.Timestamp
	for i := 0; i < 10; i++ {
		txn := begin(t, cl)
		_ = txn.Put(bgctx, "t", kv.Key(fmt.Sprintf("r%d", i)), "f", []byte("v"))
		cts, err := txn.CommitWait(bgctx)
		if err != nil {
			t.Fatal(err)
		}
		last = cts
	}
	rm := c.RecoveryManager()
	deadline := time.Now().Add(5 * time.Second)
	for rm.TP() < last {
		if time.Now().After(deadline) {
			t.Fatalf("TP stuck at %d, want %d (TF=%d)", rm.TP(), last, rm.TF())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Log fully truncated at steady state.
	for c.Log().Stats().DurableRecords != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("log not truncated: %+v", c.Log().Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIdleClientDoesNotHoldTruncation: a registered client that never
// commits must not pin the global T_F at its registration value. Its empty
// flush queue lets T_F(c) follow the transaction manager, so T_F and T_P
// reach the writer's last commit and the log is truncated.
func TestIdleClientDoesNotHoldTruncation(t *testing.T) {
	c := newCluster(t, fastConfig(2))
	if err := c.CreateTable("t", []kv.Key{"m"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewClient("idle"); err != nil {
		t.Fatal(err)
	}
	w, _ := c.NewClient("writer")
	const n = 200
	var last kv.Timestamp
	for i := 0; i < n; i++ {
		txn := begin(t, w)
		_ = txn.Put(bgctx, "t", kv.Key(fmt.Sprintf("r%03d", i)), "f", []byte("v"))
		cts, err := txn.Commit(bgctx)
		if err != nil {
			t.Fatal(err)
		}
		last = cts
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Stats()
		if st.GlobalTF >= last && st.GlobalTP >= last && st.LogTruncated > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d commits (last %d): T_F %d, T_P %d, %d records truncated",
				n, last, st.GlobalTF, st.GlobalTP, st.LogTruncated)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosRandomCrashesNoLostCommits runs concurrent clients while
// crashing a server mid-run, then verifies every acknowledged commit is
// readable — the paper's overall durability claim under load.
func TestChaosRandomCrashesNoLostCommits(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test in -short mode")
	}
	cfg := fastConfig(3)
	cfg.WALSyncInterval = 0
	c := newCluster(t, cfg)
	if err := c.CreateTable("t", []kv.Key{"g", "s"}); err != nil {
		t.Fatal(err)
	}

	const (
		nClients     = 4
		txnsPerCli   = 40
		rowsPerTxn   = 3
		crashAtTxn   = 15 // a server dies while clients are mid-stream
		keySpaceSize = 400
	)
	type committed struct {
		row string
		val string
	}
	var (
		mu   sync.Mutex
		acks []committed
	)
	var wg sync.WaitGroup
	for ci := 0; ci < nClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl, err := c.NewClient(fmt.Sprintf("chaos-%d", ci))
			if err != nil {
				t.Errorf("client: %v", err)
				return
			}
			defer cl.Stop()
			rng := rand.New(rand.NewSource(int64(ci)))
			for i := 0; i < txnsPerCli; i++ {
				txn := begin(t, cl)
				var rows []committed
				for r := 0; r < rowsPerTxn; r++ {
					row := fmt.Sprintf("k%03d", rng.Intn(keySpaceSize))
					val := fmt.Sprintf("c%d-t%d", ci, i)
					_ = txn.Put(bgctx, "t", kv.Key(row), "f", []byte(val))
					rows = append(rows, committed{row: row, val: val})
				}
				if _, err := txn.Commit(bgctx); err != nil {
					continue // SI conflict: fine, not acknowledged
				}
				mu.Lock()
				acks = append(acks, rows...)
				mu.Unlock()
			}
		}(ci)
	}
	// Crash one server mid-run.
	time.Sleep(50 * time.Millisecond)
	_ = c.CrashServer(c.ServerIDs()[1])
	wg.Wait()

	// Every acknowledged write must be readable at the LATEST version of
	// its row (later acks may overwrite earlier ones; check at least that
	// the row exists and carries one of the acknowledged values).
	byRow := make(map[string][]string)
	mu.Lock()
	for _, a := range acks {
		byRow[a.row] = append(byRow[a.row], a.val)
	}
	mu.Unlock()

	reader, _ := c.NewClient("chaos-reader")
	deadline := time.Now().Add(20 * time.Second)
	for row, vals := range byRow {
		for {
			txn := beginStrict(t, reader)
			v, ok, err := txn.Get(bgctx, "t", kv.Key(row), "f")
			txn.Abort()
			if err == nil && ok {
				match := false
				for _, want := range vals {
					if string(v) == want {
						match = true
						break
					}
				}
				if match {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("row %s: committed values %v, got %q ok=%v err=%v", row, vals, v, ok, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

func TestClientStopWaitsForFlushes(t *testing.T) {
	c := newCluster(t, fastConfig(1))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, _ := c.NewClient("c1")
	txn := begin(t, cl)
	_ = txn.Put(bgctx, "t", "r", "f", []byte("v"))
	cts, err := txn.Commit(bgctx) // async flush in flight
	if err != nil {
		t.Fatal(err)
	}
	cl.Stop() // must wait for the flush
	if c.TM().Frontier() < cts {
		t.Fatalf("Stop returned with unflushed commit %d (frontier %d)", cts, c.TM().Frontier())
	}
	// Further use fails cleanly — at begin time.
	if _, err := cl.BeginTxn(TxnOptions{}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("begin on closed client: %v", err)
	}
}

func TestDuplicateClientID(t *testing.T) {
	c := newCluster(t, fastConfig(1))
	if _, err := c.NewClient("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewClient("dup"); err == nil {
		t.Fatal("duplicate client id accepted")
	}
}

func TestAddServerGrowsCluster(t *testing.T) {
	c := newCluster(t, fastConfig(1))
	id, err := c.AddServer()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Server(id); !ok {
		t.Fatal("new server not registered")
	}
	if len(c.ServerIDs()) != 2 {
		t.Fatalf("server count = %d", len(c.ServerIDs()))
	}
}

func TestClusterStats(t *testing.T) {
	c := newCluster(t, fastConfig(2))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, _ := c.NewClient("c1")
	txn := begin(t, cl)
	_ = txn.Put(bgctx, "t", "a", "f", []byte("v"))
	if _, err := txn.CommitWait(bgctx); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Commits != 1 || s.LiveServers != 2 {
		t.Fatalf("stats: %+v", s)
	}
	if s.VisibilityFront == 0 {
		t.Fatalf("frontier not advanced: %+v", s)
	}
	// Stats while the RM is down must not panic and omit RM fields.
	c.CrashRecoveryManager()
	s2 := c.Stats()
	if s2.Commits != 1 {
		t.Fatalf("stats with RM down: %+v", s2)
	}
}

package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txkv/internal/kv"
	"txkv/internal/txmgr"
)

// TestUpdateConcurrentConvergence is the managed-retry property test (run
// under -race by CI): concurrent Update closures hammering a tiny set of
// contended accounts must all converge — every transfer commits within the
// retry budget and the conserved-total invariant holds — with zero
// caller-side retry code.
func TestUpdateConcurrentConvergence(t *testing.T) {
	c := newCluster(t, fastConfig(2))
	if err := c.CreateTable("bank", nil); err != nil {
		t.Fatal(err)
	}
	const (
		accounts = 4 // tiny: heavy write-write contention
		workers  = 8
		each     = 20
		initial  = 1000
	)
	loader, err := c.NewClient("loader")
	if err != nil {
		t.Fatal(err)
	}
	puts := make([]PutOp, accounts)
	for i := range puts {
		puts[i] = PutOp{Row: kv.Key(fmt.Sprintf("a%d", i)), Column: "bal", Value: []byte(strconv.Itoa(initial))}
	}
	if _, err := loader.Update(bgctx, func(txn *Txn) error {
		return txn.PutBatch(bgctx, "bank", puts)
	}); err != nil {
		t.Fatal(err)
	}

	var (
		wg       sync.WaitGroup
		failures atomic.Int64
		retries  atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := c.NewClient(fmt.Sprintf("w%d", w))
			if err != nil {
				t.Errorf("client: %v", err)
				return
			}
			defer cl.Stop()
			opts := TxnOptions{MaxRetries: 100} // generous: every transfer must land
			for i := 0; i < each; i++ {
				from := kv.Key(fmt.Sprintf("a%d", (w+i)%accounts))
				to := kv.Key(fmt.Sprintf("a%d", (w+i+1)%accounts))
				_, err := cl.UpdateWith(bgctx, opts, func(txn *Txn) error {
					fv, ok, err := txn.Get(bgctx, "bank", from, "bal")
					if err != nil || !ok {
						return fmt.Errorf("read %s: ok=%v err=%w", from, ok, err)
					}
					tv, ok, err := txn.Get(bgctx, "bank", to, "bal")
					if err != nil || !ok {
						return fmt.Errorf("read %s: ok=%v err=%w", to, ok, err)
					}
					f, _ := strconv.Atoi(string(fv))
					g, _ := strconv.Atoi(string(tv))
					if err := txn.Put(bgctx, "bank", from, "bal", []byte(strconv.Itoa(f-1))); err != nil {
						return err
					}
					return txn.Put(bgctx, "bank", to, "bal", []byte(strconv.Itoa(g+1)))
				})
				if err != nil {
					failures.Add(1)
					t.Errorf("worker %d transfer %d: %v", w, i, err)
				}
			}
			commits, r := cl.UpdateStats()
			if commits != each {
				t.Errorf("worker %d committed %d, want %d", w, commits, each)
			}
			retries.Add(r)
		}(w)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d transfers failed under contention", failures.Load())
	}
	// Retries are bounded by the budget per transfer.
	if max := int64(workers * each * 100); retries.Load() > max {
		t.Fatalf("retries %d exceed aggregate budget %d", retries.Load(), max)
	}
	t.Logf("converged with %d conflict retries across %d transfers", retries.Load(), workers*each)

	// Invariant: the total is conserved.
	auditor, err := c.NewClient("auditor")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	if err := auditor.View(bgctx, func(txn *Txn) error {
		for e, err := range txn.Scan(bgctx, "bank", kv.KeyRange{}, ScanOptions{}).All() {
			if err != nil {
				return err
			}
			v, _ := strconv.Atoi(string(e.Value))
			total += v
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d (transfers lost or duplicated)", total, accounts*initial)
	}
}

// TestViewPinSurvivesCompaction is the snapshot-lifetime property test (run
// under -race by CI): a long-lived read-only transaction pinned at an old
// snapshot keeps reading exactly its snapshot's values while continuous
// overwrites, memstore flushes, store-file compactions, and reclamation
// churn the versions underneath it — because the pin holds the version-GC
// horizon (txmgr.SafeSnapshot) at or below its timestamp. After release the
// horizon moves past the snapshot and a new pin there is refused.
func TestViewPinSurvivesCompaction(t *testing.T) {
	cfg := fastConfig(2)
	cfg.MemstoreFlushBytes = 8 << 10 // frequent flushes: store files churn
	cfg.CompactionThreshold = 2      // background compaction kicks in fast
	cfg.CompactionInterval = 50 * time.Millisecond
	// The test checks pins, not session expiry: a session TTL that
	// outlives a scheduling stall of the parallel suite keeps the only
	// client from being declared dead mid-test.
	cfg.SessionTTL = 10 * time.Second
	c := newCluster(t, cfg)
	if err := c.CreateTable("t", []kv.Key{"row-020"}); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("c1")
	if err != nil {
		t.Fatal(err)
	}

	const rows = 40
	want := make(map[string]string, rows)
	loadPuts := make([]PutOp, rows)
	for i := 0; i < rows; i++ {
		row := fmt.Sprintf("row-%03d", i)
		val := fmt.Sprintf("gen0-%d", i)
		loadPuts[i] = PutOp{Row: kv.Key(row), Column: "f", Value: []byte(val)}
		want[row] = val
	}
	if _, err := cl.Update(bgctx, func(txn *Txn) error {
		return txn.PutBatch(bgctx, "t", loadPuts)
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitFlushed(c.TM().LastIssued(), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Pin the snapshot: every gen0 value must stay readable through it.
	pin, err := cl.BeginTxn(TxnOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	pinTS := pin.StartTS()

	// Writer: continuous overwrites, many generations.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := make([]PutOp, rows)
			for i := 0; i < rows; i++ {
				p[i] = PutOp{Row: kv.Key(fmt.Sprintf("row-%03d", i)), Column: "f",
					Value: []byte(fmt.Sprintf("gen%d-%d", gen, i))}
			}
			if _, err := cl.Update(bgctx, func(txn *Txn) error {
				return txn.PutBatch(bgctx, "t", p)
			}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			gen++
		}
	}()

	// Reader: the pinned transaction must see gen0 exactly, every time,
	// while the janitor compacts around it.
	deadline := time.Now().Add(2 * time.Second)
	if testing.Short() {
		deadline = time.Now().Add(400 * time.Millisecond)
	}
	reads := 0
	for time.Now().Before(deadline) {
		for i := 0; i < rows; i += 7 {
			row := fmt.Sprintf("row-%03d", i)
			v, ok, err := pin.Get(bgctx, "t", kv.Key(row), "f")
			if err != nil || !ok || string(v) != want[row] {
				t.Fatalf("pinned read of %s after %d reads: %q ok=%v err=%v (want %q)",
					row, reads, v, ok, err, want[row])
			}
			reads++
		}
		// The pin must hold the GC horizon at or below its snapshot.
		if h := c.TM().SafeSnapshot(); h > pinTS {
			t.Fatalf("GC horizon %d overran pinned snapshot %d", h, pinTS)
		}
		// Streaming scans through the pin see the full gen0 state too.
		sc := pin.Scan(bgctx, "t", kv.KeyRange{}, ScanOptions{Batch: 8})
		n := 0
		for sc.Next() {
			e := sc.KV()
			if string(e.Value) != want[string(e.Row)] {
				t.Fatalf("pinned scan saw %s=%q, want %q", e.Row, e.Value, want[string(e.Row)])
			}
			n++
		}
		if sc.Err() != nil || n != rows {
			t.Fatalf("pinned scan: n=%d err=%v", n, sc.Err())
		}
	}
	close(stop)
	wg.Wait()
	if c.Obs().Snapshot().Counters["reclaim.compactions"] == 0 {
		t.Skip("janitor never ran during the window; pin property not exercised")
	}

	// Release the pin; the horizon may now pass the snapshot. Once it has,
	// re-pinning at the old timestamp is refused: the data may be gone.
	pin.Abort()
	if err := c.WaitFlushed(c.TM().LastIssued(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if h := c.TM().SafeSnapshot(); h <= pinTS {
		t.Fatalf("horizon %d did not advance past released pin %d", h, pinTS)
	}
	if _, err := cl.BeginAt(pinTS); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("BeginAt(%d) after horizon passed: %v", pinTS, err)
	}
}

// TestBeginAtBounds: the time-travel begin validates its window on both
// sides and ViewAt reads historical versions inside it.
func TestBeginAtBounds(t *testing.T) {
	c := newCluster(t, fastConfig(1))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("c1")
	if err != nil {
		t.Fatal(err)
	}
	old, err := cl.Update(bgctx, func(txn *Txn) error {
		return txn.Put(bgctx, "t", "k", "f", []byte("v1"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Update(bgctx, func(txn *Txn) error {
		return txn.Put(bgctx, "t", "k", "f", []byte("v2"))
	}); err != nil {
		t.Fatal(err)
	}

	// Future timestamps are refused.
	if _, err := cl.BeginAt(c.TM().LastIssued() + 10); !errors.Is(err, ErrFutureSnapshot) {
		t.Fatalf("future BeginAt: %v", err)
	}
	// Valid pin reads the historical version; writes are refused.
	if err := cl.ViewAt(bgctx, old, func(txn *Txn) error {
		v, ok, err := txn.Get(bgctx, "t", "k", "f")
		if err != nil || !ok || string(v) != "v1" {
			return fmt.Errorf("historical read: %q ok=%v err=%v", v, ok, err)
		}
		if err := txn.Put(bgctx, "t", "k", "f", []byte("x")); !errors.Is(err, ErrReadOnlyTxn) {
			return fmt.Errorf("write through pin: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateRetryBudgetExhausted forces a conflict on every attempt (an
// adversary commits to the contended row inside the closure, after the
// snapshot is taken) and checks the budget and the structured error.
func TestUpdateRetryBudgetExhausted(t *testing.T) {
	c := newCluster(t, fastConfig(1))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("c1")
	if err != nil {
		t.Fatal(err)
	}
	adversary, err := c.NewClient("adversary")
	if err != nil {
		t.Fatal(err)
	}

	attempts := 0
	_, err = cl.UpdateWith(bgctx, TxnOptions{MaxRetries: 2, RetryBackoff: time.Millisecond},
		func(txn *Txn) error {
			attempts++
			// The adversary commits to the row after txn's snapshot: txn's
			// commit must conflict, every attempt.
			if _, aerr := adversary.Update(bgctx, func(a *Txn) error {
				return a.Put(bgctx, "t", "hot", "f", []byte(fmt.Sprintf("adv-%d", attempts)))
			}); aerr != nil {
				return fmt.Errorf("adversary: %w", aerr)
			}
			return txn.Put(bgctx, "t", "hot", "f", []byte("mine"))
		})
	if !errors.Is(err, txmgr.ErrConflict) {
		t.Fatalf("want ErrConflict after budget, got %v", err)
	}
	if attempts != 3 { // initial try + 2 retries
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	var txErr *Error
	if !errors.As(err, &txErr) || txErr.Op != "commit" {
		t.Fatalf("want structured commit error, got %#v", err)
	}
	if commits, retries := cl.UpdateStats(); commits != 0 || retries != 2 {
		t.Fatalf("stats = (%d commits, %d retries), want (0, 2)", commits, retries)
	}
}

// TestUpdateClosureErrorAbortsWithoutRetry: a non-conflict error from fn
// aborts once, surfaces unchanged, and leaves nothing behind.
func TestUpdateClosureErrorAbortsWithoutRetry(t *testing.T) {
	c := newCluster(t, fastConfig(1))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("c1")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("application error")
	attempts := 0
	_, err = cl.Update(bgctx, func(txn *Txn) error {
		attempts++
		_ = txn.Put(bgctx, "t", "k", "f", []byte("v"))
		return boom
	})
	if !errors.Is(err, boom) || attempts != 1 {
		t.Fatalf("fn error: attempts=%d err=%v", attempts, err)
	}
	if err := cl.View(bgctx, func(txn *Txn) error {
		if _, ok, _ := txn.Get(bgctx, "t", "k", "f"); ok {
			t.Fatal("aborted closure write became visible")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateContextCancelled: a cancelled context stops the retry loop with
// the ctx error.
func TestUpdateContextCancelled(t *testing.T) {
	c := newCluster(t, fastConfig(1))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("c1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = cl.Update(ctx, func(txn *Txn) error {
		return txn.Put(ctx, "t", "k", "f", []byte("v"))
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Update: %v", err)
	}
}

// TestViewSkipsValidationAndLog: read-only transactions never touch the
// commit log or the abort counters — commit is a pure snapshot release.
func TestViewSkipsValidationAndLog(t *testing.T) {
	c := newCluster(t, fastConfig(1))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("c1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Update(bgctx, func(txn *Txn) error {
		return txn.Put(bgctx, "t", "k", "f", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	appendsBefore := c.Log().Stats().TotalAppends
	_, abortsBefore := c.TM().Stats()

	for i := 0; i < 5; i++ {
		if err := cl.View(bgctx, func(txn *Txn) error {
			_, _, err := txn.Get(bgctx, "t", "k", "f")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Commit on an explicit read-only txn is release too.
	ro, err := cl.BeginTxn(TxnOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if cts, err := ro.Commit(bgctx); err != nil || cts != ro.StartTS() {
		t.Fatalf("read-only commit: cts=%d err=%v (start %d)", cts, err, ro.StartTS())
	}

	if got := c.Log().Stats().TotalAppends; got != appendsBefore {
		t.Fatalf("read-only transactions appended to the log: %d -> %d", appendsBefore, got)
	}
	if _, aborts := c.TM().Stats(); aborts != abortsBefore {
		t.Fatalf("read-only transactions counted as aborts: %d -> %d", abortsBefore, aborts)
	}
}

// TestDeleteRangeConflictSemantics: range deletes join the write-set, so a
// concurrent write to a swept row conflicts first-committer-wins, and the
// delete covers the transaction's own buffered writes.
func TestDeleteRangeConflictSemantics(t *testing.T) {
	c := newCluster(t, fastConfig(1))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("c1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Update(bgctx, func(txn *Txn) error {
		return txn.PutBatch(bgctx, "t", []PutOp{
			{Row: "a", Column: "f", Value: []byte("va")},
			{Row: "m", Column: "f", Value: []byte("vm")},
			{Row: "z", Column: "f", Value: []byte("vz")},
		})
	}); err != nil {
		t.Fatal(err)
	}

	// deleter sweeps [a, z); rival commits to "m" first -> deleter aborts.
	deleter := begin(t, cl)
	n, err := deleter.DeleteRange(bgctx, "t", kv.KeyRange{Start: "a", End: "z"})
	if err != nil || n != 2 {
		t.Fatalf("DeleteRange = %d, %v (want 2)", n, err)
	}
	if _, err := cl.Update(bgctx, func(txn *Txn) error {
		return txn.Put(bgctx, "t", "m", "f", []byte("rival"))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := deleter.Commit(bgctx); !errors.Is(err, txmgr.ErrConflict) {
		t.Fatalf("range delete racing a row write: %v", err)
	}

	// Own buffered writes inside the range are swept too (even ones the
	// store has never seen), and a repeated sweep sees the transaction's
	// own tombstones: it deletes nothing further.
	if _, err := cl.Update(bgctx, func(txn *Txn) error {
		if err := txn.Put(bgctx, "t", "b", "f", []byte("buffered-only")); err != nil {
			return err
		}
		n, err := txn.DeleteRange(bgctx, "t", kv.KeyRange{Start: "a", End: "z"})
		if err != nil {
			return err
		}
		if n != 3 { // a, m (store) + b (own buffer)
			return fmt.Errorf("DeleteRange swept %d cells, want 3", n)
		}
		if _, ok, _ := txn.Get(bgctx, "t", "b", "f"); ok {
			return errors.New("own buffered write visible after range delete")
		}
		if n, err := txn.DeleteRange(bgctx, "t", kv.KeyRange{Start: "a", End: "z"}); err != nil || n != 0 {
			return fmt.Errorf("second DeleteRange = %d, %v (want 0)", n, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.View(bgctx, func(txn *Txn) error {
		sc := txn.Scan(bgctx, "t", kv.KeyRange{Start: "a", End: "z"}, ScanOptions{})
		for sc.Next() {
			t.Fatalf("row %s survived the committed range delete", sc.KV().Row)
		}
		return sc.Err()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestKeysOnlyScanStripsOwnWrites: a keys-only transactional scan carries
// no value bytes for stored entries AND for the transaction's own buffered
// writes — the overlay matches the server's stripping.
func TestKeysOnlyScanStripsOwnWrites(t *testing.T) {
	c := newCluster(t, fastConfig(1))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("c1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Update(bgctx, func(txn *Txn) error {
		return txn.Put(bgctx, "t", "stored", "f", []byte("big-stored-value"))
	}); err != nil {
		t.Fatal(err)
	}
	txn := begin(t, cl)
	defer txn.Abort()
	if err := txn.Put(bgctx, "t", "buffered", "f", []byte("big-buffered-value")); err != nil {
		t.Fatal(err)
	}
	sc := txn.Scan(bgctx, "t", kv.KeyRange{}, ScanOptions{KeysOnly: true})
	rows := 0
	for sc.Next() {
		e := sc.KV()
		if e.Value != nil {
			t.Fatalf("keys-only scan shipped value for %s: %q", e.Row, e.Value)
		}
		rows++
	}
	if sc.Err() != nil || rows != 2 {
		t.Fatalf("keys-only scan: rows=%d err=%v", rows, sc.Err())
	}
}

// TestUpdateClosurePanicReleasesTxn: a panicking closure must not leak its
// transaction handle — a leaked handle would pin the GC horizon forever.
func TestUpdateClosurePanicReleasesTxn(t *testing.T) {
	c := newCluster(t, fastConfig(1))
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("c1")
	if err != nil {
		t.Fatal(err)
	}
	before := c.TM().SafeSnapshot()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic swallowed")
			}
		}()
		_, _ = cl.Update(bgctx, func(txn *Txn) error {
			panic("application bug")
		})
	}()
	// Commit more work; the horizon must advance past the panicked txn's
	// snapshot (i.e. its handle was released, not leaked).
	cts, err := cl.Update(bgctx, func(txn *Txn) error {
		return txn.Put(bgctx, "t", "k", "f", []byte("v"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitFlushed(cts, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if h := c.TM().SafeSnapshot(); h < cts || h < before {
		t.Fatalf("horizon %d stuck below %d: panicked closure leaked its txn", h, cts)
	}
}

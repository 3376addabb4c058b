package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"txkv/internal/kv"
)

// noIssue is a timestamp source that reports nothing issued, which leaves
// T_F(c) to Alg. 1's queue rule alone.
func noIssue() kv.Timestamp { return 0 }

func TestClientTrackerInOrderFlushes(t *testing.T) {
	tr := NewClientTracker(0)
	for ts := kv.Timestamp(1); ts <= 5; ts++ {
		tr.OnCommitted(ts)
	}
	if tf := tr.Advance(noIssue); tf != 0 {
		t.Fatalf("TF advanced to %d with nothing flushed", tf)
	}
	tr.OnFlushed(1)
	tr.OnFlushed(2)
	if tf := tr.Advance(noIssue); tf != 2 {
		t.Fatalf("TF = %d, want 2", tf)
	}
	tr.OnFlushed(3)
	tr.OnFlushed(4)
	tr.OnFlushed(5)
	if tf := tr.Advance(noIssue); tf != 5 {
		t.Fatalf("TF = %d, want 5", tf)
	}
	if tr.PendingFlushes() != 0 {
		t.Fatalf("pending = %d", tr.PendingFlushes())
	}
}

// TestClientTrackerOutOfOrderFlush reproduces the paper's §3.1 example: a
// later transaction's flush completing first must NOT advance T_F past the
// earlier, still-unflushed transaction.
func TestClientTrackerOutOfOrderFlush(t *testing.T) {
	tr := NewClientTracker(0)
	tr.OnCommitted(10)
	tr.OnCommitted(11)
	tr.OnFlushed(11) // T_j flushed before T_i
	if tf := tr.Advance(noIssue); tf != 0 {
		t.Fatalf("TF = %d, must hold at 0 while 10 is unflushed", tf)
	}
	if tr.PendingFlushes() != 2 {
		t.Fatalf("pending = %d, want 2", tr.PendingFlushes())
	}
	tr.OnFlushed(10)
	// Now BOTH advance in one step, in commit order.
	if tf := tr.Advance(noIssue); tf != 11 {
		t.Fatalf("TF = %d, want 11", tf)
	}
}

func TestClientTrackerInitialValue(t *testing.T) {
	tr := NewClientTracker(42)
	if tr.TF() != 42 {
		t.Fatalf("initial TF = %d", tr.TF())
	}
	if tf := tr.Advance(noIssue); tf != 42 {
		t.Fatalf("idle advance moved TF to %d", tf)
	}
}

// TestClientTrackerQuickInvariant drives random commit/flush interleavings
// and checks the local invariant after every advance: every committed ts <=
// TF has been flushed, and TF is monotonic.
func TestClientTrackerQuickInvariant(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewClientTracker(0)
		n := int(nOps%40) + 5
		committed := make([]kv.Timestamp, 0, n)
		flushed := make(map[kv.Timestamp]bool)
		next := kv.Timestamp(1)
		var lastTF kv.Timestamp
		for i := 0; i < n; i++ {
			switch {
			case rng.Intn(2) == 0:
				tr.OnCommitted(next)
				committed = append(committed, next)
				next++
			case len(committed) > 0:
				// Flush a random committed-but-unflushed txn.
				unflushed := committed[:0:0]
				for _, ts := range committed {
					if !flushed[ts] {
						unflushed = append(unflushed, ts)
					}
				}
				if len(unflushed) == 0 {
					continue
				}
				ts := unflushed[rng.Intn(len(unflushed))]
				flushed[ts] = true
				tr.OnFlushed(ts)
			}
			tf := tr.Advance(noIssue)
			if tf < lastTF {
				return false // regression
			}
			lastTF = tf
			for _, ts := range committed {
				if ts <= tf && !flushed[ts] {
					return false // invariant violation
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClientTrackerConcurrent(t *testing.T) {
	tr := NewClientTracker(0)
	const n = 500
	// Committer feeds in order; flusher completes out of order; advancer
	// races both.
	var wg sync.WaitGroup
	wg.Add(2)
	flushCh := make(chan kv.Timestamp, n)
	go func() {
		defer wg.Done()
		for ts := kv.Timestamp(1); ts <= n; ts++ {
			tr.OnCommitted(ts)
			flushCh <- ts
		}
		close(flushCh)
	}()
	go func() {
		defer wg.Done()
		var batch []kv.Timestamp
		for ts := range flushCh {
			batch = append(batch, ts)
			if len(batch) == 10 {
				// Flush the batch in reverse (out of order).
				for i := len(batch) - 1; i >= 0; i-- {
					tr.OnFlushed(batch[i])
				}
				batch = batch[:0]
			}
		}
		for i := len(batch) - 1; i >= 0; i-- {
			tr.OnFlushed(batch[i])
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	var last kv.Timestamp
	for {
		tf := tr.Advance(noIssue)
		if tf < last {
			t.Fatalf("TF regressed %d -> %d", last, tf)
		}
		last = tf
		select {
		case <-done:
			if tf := tr.Advance(noIssue); tf != n {
				t.Fatalf("final TF = %d, want %d", tf, n)
			}
			return
		default:
		}
	}
}

// TestClientTrackerIdleAdvance: with an empty FQ, T_F(c) follows the
// manager's last issued timestamp; with a commit pending it does not.
func TestClientTrackerIdleAdvance(t *testing.T) {
	tr := NewClientTracker(3)
	issued := kv.Timestamp(9)
	last := func() kv.Timestamp { return issued }
	if tf := tr.Advance(last); tf != 9 {
		t.Fatalf("idle TF = %d, want 9", tf)
	}
	tr.OnCommitted(10)
	issued = 12
	if tf := tr.Advance(last); tf != 9 {
		t.Fatalf("TF = %d passed unflushed commit 10", tf)
	}
	tr.OnFlushed(10)
	if tf := tr.Advance(last); tf != 12 {
		t.Fatalf("TF = %d, want 12", tf)
	}
}

// TestClientTrackerIdleAdvanceRace races the idle rule against commits the
// way the transaction manager issues them: each commit takes a timestamp
// and enters FQ under one sequencing lock, which LastIssued also takes;
// some timestamps go to other clients; flushes complete late and out of
// order. After every beat, each of this client's commits at or below T_F(c)
// must have recorded its flush. Reading L after inspecting FQ, or moving to
// L with commits pending, breaks this.
func TestClientTrackerIdleAdvanceRace(t *testing.T) {
	tr := NewClientTracker(0)
	var (
		seqMu  sync.Mutex // the manager's sequencing lock
		issued kv.Timestamp
		ours   = map[kv.Timestamp]bool{} // guarded by seqMu

		flushMu sync.Mutex
		flushed = map[kv.Timestamp]bool{}
	)
	lastIssued := func() kv.Timestamp {
		seqMu.Lock()
		defer seqMu.Unlock()
		return issued
	}
	const committers, perCommitter = 4, 1000
	var commits, flushes sync.WaitGroup
	for g := 0; g < committers; g++ {
		commits.Add(1)
		go func(g int) {
			defer commits.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perCommitter; i++ {
				mine := rng.Intn(4) != 0
				seqMu.Lock()
				issued++
				cts := issued
				if mine {
					ours[cts] = true
					tr.OnCommitted(cts)
				}
				seqMu.Unlock()
				if !mine {
					continue
				}
				delay := time.Duration(rng.Intn(300)) * time.Microsecond
				flushes.Add(1)
				go func() {
					defer flushes.Done()
					time.Sleep(delay)
					flushMu.Lock()
					flushed[cts] = true
					flushMu.Unlock()
					tr.OnFlushed(cts)
				}()
				if rng.Intn(8) == 0 {
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		commits.Wait()
		flushes.Wait()
		close(done)
	}()

	var checked kv.Timestamp // every own commit <= checked is verified
	beat := func() {
		tf := tr.Advance(lastIssued)
		if tf < checked {
			t.Fatalf("TF regressed %d -> %d", checked, tf)
		}
		seqMu.Lock()
		flushMu.Lock()
		for ts := checked + 1; ts <= tf; ts++ {
			if ours[ts] && !flushed[ts] {
				flushMu.Unlock()
				seqMu.Unlock()
				t.Fatalf("TF(c) = %d reached commit %d before its flush", tf, ts)
			}
		}
		flushMu.Unlock()
		seqMu.Unlock()
		checked = tf
	}
	for {
		select {
		case <-done:
			beat()
			if want := lastIssued(); checked != want {
				t.Fatalf("final TF = %d, want %d", checked, want)
			}
			return
		default:
			beat()
		}
	}
}

// TestClientTrackerDuplicateSafety: the tracker tolerates a flush notified
// twice (a retried flush can complete twice under races); T_F must still be
// exact.
func TestClientTrackerDuplicateFlushBlocks(t *testing.T) {
	tr := NewClientTracker(0)
	tr.OnCommitted(1)
	tr.OnCommitted(2)
	tr.OnFlushed(1)
	tr.OnFlushed(1) // duplicate
	if tf := tr.Advance(noIssue); tf != 1 {
		t.Fatalf("TF = %d, want 1", tf)
	}
	// The stray duplicate must not let TF skip txn 2.
	if tf := tr.Advance(noIssue); tf != 1 {
		t.Fatalf("TF advanced to %d past unflushed txn 2", tf)
	}
	tr.OnFlushed(2)
	if tf := tr.Advance(noIssue); tf != 2 {
		t.Fatalf("TF = %d, want 2", tf)
	}
}

func TestTsHeap(t *testing.T) {
	var h tsHeap
	in := []kv.Timestamp{5, 1, 9, 3, 7, 2, 8}
	for _, ts := range in {
		h.push(ts)
	}
	want := []kv.Timestamp{1, 2, 3, 5, 7, 8, 9}
	for i, w := range want {
		if h.min() != w {
			t.Fatalf("step %d: min = %d, want %d", i, h.min(), w)
		}
		if got := h.pop(); got != w {
			t.Fatalf("step %d: pop = %d, want %d", i, got, w)
		}
	}
	if h.len() != 0 {
		t.Fatalf("len = %d", h.len())
	}
}

func TestTsHeapQuickSorted(t *testing.T) {
	f := func(vals []uint32) bool {
		var h tsHeap
		for _, v := range vals {
			h.push(kv.Timestamp(v))
		}
		var last kv.Timestamp
		for h.len() > 0 {
			got := h.pop()
			if got < last {
				return false
			}
			last = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

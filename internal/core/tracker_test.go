package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"txkv/internal/kv"
)

func TestClientTrackerInOrderFlushes(t *testing.T) {
	tr := NewClientTracker(0)
	for ts := kv.Timestamp(1); ts <= 5; ts++ {
		tr.OnCommitted(ts)
	}
	if tf := tr.Advance(); tf != 0 {
		t.Fatalf("TF advanced to %d with nothing flushed", tf)
	}
	tr.OnFlushed(1)
	tr.OnFlushed(2)
	if tf := tr.Advance(); tf != 2 {
		t.Fatalf("TF = %d, want 2", tf)
	}
	tr.OnFlushed(3)
	tr.OnFlushed(4)
	tr.OnFlushed(5)
	if tf := tr.Advance(); tf != 5 {
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
	if tf := tr.Advance(); tf != 0 {
		t.Fatalf("TF = %d, must hold at 0 while 10 is unflushed", tf)
	}
	if tr.PendingFlushes() != 2 {
		t.Fatalf("pending = %d, want 2", tr.PendingFlushes())
	}
	tr.OnFlushed(10)
	// Now BOTH advance in one step, in commit order.
	if tf := tr.Advance(); tf != 11 {
		t.Fatalf("TF = %d, want 11", tf)
	}
}

func TestClientTrackerInitialValue(t *testing.T) {
	tr := NewClientTracker(42)
	if tr.TF() != 42 {
		t.Fatalf("initial TF = %d", tr.TF())
	}
	if tf := tr.Advance(); tf != 42 {
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
			tf := tr.Advance()
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
		tf := tr.Advance()
		if tf < last {
			t.Fatalf("TF regressed %d -> %d", last, tf)
		}
		last = tf
		select {
		case <-done:
			if tf := tr.Advance(); tf != n {
				t.Fatalf("final TF = %d, want %d", tf, n)
			}
			return
		default:
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
	if tf := tr.Advance(); tf != 1 {
		t.Fatalf("TF = %d, want 1", tf)
	}
	// The stray duplicate must not let TF skip txn 2.
	if tf := tr.Advance(); tf != 1 {
		t.Fatalf("TF advanced to %d past unflushed txn 2", tf)
	}
	tr.OnFlushed(2)
	if tf := tr.Advance(); tf != 2 {
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

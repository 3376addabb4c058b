package replica

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"txkv/internal/kv"
	"txkv/internal/kvstore"
)

// fakeFollower is an in-memory follower: strict-contiguity apply with a
// retained view of everything received, plus fault injection.
type fakeFollower struct {
	id string

	mu         sync.Mutex
	epoch      uint64
	lastSeq    uint64
	checkpoint uint64
	entries    []kvstore.ReplEntry
	tipSeq     uint64
	safeTS     kv.Timestamp
	ckpts      int

	failAppends bool // transient transport failure
	staleEpoch  bool // pretend a newer epoch was installed
}

type fakeLink struct{ f *fakeFollower }

func (l fakeLink) ServerID() string { return l.f.id }

func (l fakeLink) AppendEntries(regionID string, epoch uint64, entries []kvstore.ReplEntry, tipSeq uint64, safeTS kv.Timestamp) (uint64, error) {
	f := l.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failAppends {
		return f.lastSeq, errors.New("injected transport failure")
	}
	if f.staleEpoch || epoch < f.epoch {
		return f.lastSeq, kvstore.ErrStaleEpoch
	}
	f.epoch = epoch
	for _, e := range entries {
		if e.Seq <= f.lastSeq {
			continue
		}
		if e.Seq != f.lastSeq+1 {
			return f.lastSeq, fmt.Errorf("%w: have %d got %d", kvstore.ErrReplicaGap, f.lastSeq, e.Seq)
		}
		f.entries = append(f.entries, e)
		f.lastSeq = e.Seq
	}
	f.tipSeq = tipSeq
	if safeTS > 0 && f.lastSeq == tipSeq {
		f.safeTS = safeTS
	}
	return f.lastSeq, nil
}

func (l fakeLink) Checkpoint(regionID string, epoch, seq uint64) error {
	f := l.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failAppends {
		return errors.New("injected transport failure")
	}
	if f.staleEpoch || epoch < f.epoch {
		return kvstore.ErrStaleEpoch
	}
	f.ckpts++
	if epoch > f.epoch {
		// New primary incarnation renumbers the stream.
		f.epoch = epoch
		f.lastSeq = seq
		f.entries = nil
		f.checkpoint = seq
		return nil
	}
	if seq > f.lastSeq {
		f.lastSeq = seq
	}
	f.checkpoint = seq
	kept := f.entries[:0]
	for _, e := range f.entries {
		if e.Seq > seq {
			kept = append(kept, e)
		}
	}
	f.entries = kept
	return nil
}

func (l fakeLink) Close() {}

func (f *fakeFollower) pos() (last, ckpt uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastSeq, f.checkpoint
}

func dialerFor(fs ...*fakeFollower) kvstore.LinkDialer {
	byID := make(map[string]*fakeFollower)
	for _, f := range fs {
		byID[f.id] = f
	}
	return func(t kvstore.ReplicaTarget) (kvstore.FollowerLink, error) {
		f, ok := byID[t.ServerID]
		if !ok {
			return nil, fmt.Errorf("no such follower %s", t.ServerID)
		}
		return fakeLink{f: f}, nil
	}
}

func targets(fs ...*fakeFollower) []kvstore.ReplicaTarget {
	var ts []kvstore.ReplicaTarget
	for _, f := range fs {
		ts = append(ts, kvstore.ReplicaTarget{ServerID: f.id})
	}
	return ts
}

func testKVs(n int) []kv.KeyValue {
	kvs := make([]kv.KeyValue, n)
	for i := range kvs {
		kvs[i] = kv.KeyValue{Cell: kv.Cell{Row: kv.Key(fmt.Sprintf("r%04d", i)), Column: "c", TS: 7}, Value: []byte("v")}
	}
	return kvs
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestShipperQuorumAndCatchUp(t *testing.T) {
	f1 := &fakeFollower{id: "f1"}
	f2 := &fakeFollower{id: "f2"}
	sh := NewShipper(Config{
		ServerID:      "p",
		Dial:          dialerFor(f1, f2),
		SafeTS:        func() kv.Timestamp { return 99 },
		QuorumTimeout: 2 * time.Second,
	})
	defer sh.Close()

	sh.SetFollowers("rg", 1, targets(f1, f2))
	for i := 0; i < 20; i++ {
		if err := sh.Replicate("rg", testKVs(3)); err != nil {
			t.Fatalf("Replicate: %v", err)
		}
	}
	if got := sh.LastSeq("rg"); got != 20 {
		t.Fatalf("LastSeq = %d, want 20", got)
	}
	// Quorum is majority: with 2 followers one ack suffices, but both should
	// converge to the tip shortly.
	waitFor(t, "both followers at seq 20", func() bool {
		a, _ := f1.pos()
		b, _ := f2.pos()
		return a == 20 && b == 20
	})
	// Frontier heartbeats reach caught-up followers.
	waitFor(t, "frontier propagated", func() bool {
		f1.mu.Lock()
		defer f1.mu.Unlock()
		return f1.safeTS == 99
	})
	st := sh.Stats()
	if st.ShippedEntries != 40 { // 20 entries × 2 followers
		t.Fatalf("ShippedEntries = %d, want 40", st.ShippedEntries)
	}
}

func TestShipperQuorumWithDeadFollowerMinority(t *testing.T) {
	live := &fakeFollower{id: "live"}
	dead := &fakeFollower{id: "dead", failAppends: true}
	sh := NewShipper(Config{ServerID: "p", Dial: dialerFor(live, dead), QuorumTimeout: 2 * time.Second})
	defer sh.Close()

	sh.SetFollowers("rg", 1, targets(live, dead))
	// 3-way replica set: primary + live follower form the majority even with
	// one follower down.
	if err := sh.Replicate("rg", testKVs(1)); err != nil {
		t.Fatalf("Replicate with one dead follower: %v", err)
	}
}

func TestShipperQuorumTimeout(t *testing.T) {
	dead := &fakeFollower{id: "dead", failAppends: true}
	sh := NewShipper(Config{ServerID: "p", Dial: dialerFor(dead), QuorumTimeout: 80 * time.Millisecond})
	defer sh.Close()

	sh.SetFollowers("rg", 1, targets(dead))
	// RF=2: the single follower must ack; it can't, so the write times out
	// with a retryable not-serving error.
	err := sh.Replicate("rg", testKVs(1))
	if !errors.Is(err, kvstore.ErrRegionNotServing) {
		t.Fatalf("Replicate = %v, want ErrRegionNotServing", err)
	}
	if st := sh.Stats(); st.QuorumTimeouts == 0 {
		t.Fatal("QuorumTimeouts not counted")
	}
	// Quorum restored once the follower heals.
	dead.mu.Lock()
	dead.failAppends = false
	dead.mu.Unlock()
	if err := sh.Replicate("rg", testKVs(1)); err != nil {
		t.Fatalf("Replicate after heal: %v", err)
	}
}

func TestShipperFencedByStaleEpoch(t *testing.T) {
	f := &fakeFollower{id: "f"}
	sh := NewShipper(Config{ServerID: "p", Dial: dialerFor(f), QuorumTimeout: 2 * time.Second})
	defer sh.Close()

	sh.SetFollowers("rg", 1, targets(f))
	if err := sh.Replicate("rg", testKVs(1)); err != nil {
		t.Fatalf("Replicate: %v", err)
	}
	// A new primary was elected elsewhere: the follower now rejects epoch 1.
	f.mu.Lock()
	f.staleEpoch = true
	f.mu.Unlock()
	err := sh.Replicate("rg", testKVs(1))
	if !errors.Is(err, kvstore.ErrStaleEpoch) {
		t.Fatalf("Replicate after fence = %v, want ErrStaleEpoch", err)
	}
	// Fenced is sticky: immediate rejection without touching the network.
	if err := sh.Replicate("rg", testKVs(1)); !errors.Is(err, kvstore.ErrStaleEpoch) {
		t.Fatalf("Replicate while fenced = %v, want ErrStaleEpoch", err)
	}
	// A new epoch from the master revives the stream.
	f.mu.Lock()
	f.staleEpoch = false
	f.mu.Unlock()
	sh.SetFollowers("rg", 2, targets(f))
	if err := sh.Replicate("rg", testKVs(1)); err != nil {
		t.Fatalf("Replicate at new epoch: %v", err)
	}
}

func TestShipperCheckpointPrunesAndReanchors(t *testing.T) {
	f := &fakeFollower{id: "f"}
	sh := NewShipper(Config{ServerID: "p", Dial: dialerFor(f), QuorumTimeout: 2 * time.Second})
	defer sh.Close()

	sh.SetFollowers("rg", 1, targets(f))
	for i := 0; i < 10; i++ {
		if err := sh.Replicate("rg", testKVs(2)); err != nil {
			t.Fatalf("Replicate: %v", err)
		}
	}
	sh.Checkpoint("rg", 10)
	waitFor(t, "follower pruned to checkpoint 10", func() bool {
		_, ckpt := f.pos()
		return ckpt == 10
	})
	if st := sh.Stats(); st.RetainedEntries != 0 {
		t.Fatalf("RetainedEntries = %d after full prune, want 0", st.RetainedEntries)
	}

	// A follower joining after the prune anchors at the checkpoint first,
	// then streams only the post-checkpoint tail.
	late := &fakeFollower{id: "late"}
	sh2 := NewShipper(Config{ServerID: "p2", Dial: dialerFor(late), QuorumTimeout: 2 * time.Second})
	defer sh2.Close()
	sh2.AdoptRegion("rg", 3, 10, 10, nil)
	sh2.SetFollowers("rg", 3, targets(late))
	if err := sh2.Replicate("rg", testKVs(1)); err != nil {
		t.Fatalf("Replicate on adopted region: %v", err)
	}
	late.mu.Lock()
	last, ckpt, n := late.lastSeq, late.checkpoint, len(late.entries)
	late.mu.Unlock()
	if last != 11 || ckpt != 10 || n != 1 {
		t.Fatalf("late follower last=%d ckpt=%d entries=%d, want 11/10/1", last, ckpt, n)
	}
}

func TestShipperGapRewind(t *testing.T) {
	f := &fakeFollower{id: "f"}
	sh := NewShipper(Config{ServerID: "p", Dial: dialerFor(f), QuorumTimeout: 2 * time.Second})
	defer sh.Close()

	sh.SetFollowers("rg", 1, targets(f))
	for i := 0; i < 5; i++ {
		if err := sh.Replicate("rg", testKVs(1)); err != nil {
			t.Fatalf("Replicate: %v", err)
		}
	}
	// Simulate follower state loss: it restarts empty; the next append hits a
	// gap and the shipper rewinds to the follower's reported position.
	f.mu.Lock()
	f.lastSeq, f.entries = 0, nil
	f.mu.Unlock()
	if err := sh.Replicate("rg", testKVs(1)); err != nil {
		t.Fatalf("Replicate after follower reset: %v", err)
	}
	waitFor(t, "follower re-converged to seq 6", func() bool {
		last, _ := f.pos()
		return last == 6
	})
}

func TestShipperRFOneNoFollowers(t *testing.T) {
	sh := NewShipper(Config{ServerID: "p", Dial: dialerFor()})
	defer sh.Close()
	// Without followers the primary alone is the majority: acks are
	// immediate and nothing blocks.
	for i := 0; i < 100; i++ {
		if err := sh.Replicate("solo", testKVs(1)); err != nil {
			t.Fatalf("Replicate: %v", err)
		}
	}
	if got := sh.LastSeq("solo"); got != 100 {
		t.Fatalf("LastSeq = %d, want 100", got)
	}
}

// TestShipperDropRegion: dropping a region forgets its stream and fails
// an append still waiting for its quorum with ErrRegionNotServing.
func TestShipperDropRegion(t *testing.T) {
	f := &fakeFollower{id: "f"}
	sh := NewShipper(Config{ServerID: "p", Dial: dialerFor(f), QuorumTimeout: 5 * time.Second})
	defer sh.Close()
	sh.SetFollowers("rg", 1, targets(f))
	for i := 0; i < 8; i++ {
		if err := sh.Replicate("rg", testKVs(1)); err != nil {
			t.Fatalf("Replicate: %v", err)
		}
	}
	f.mu.Lock()
	f.failAppends = true
	f.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- sh.Replicate("rg", testKVs(1)) }()
	for sh.LastSeq("rg") != 9 {
		time.Sleep(time.Millisecond)
	}
	sh.DropRegion("rg")
	if err := <-done; !errors.Is(err, kvstore.ErrRegionNotServing) {
		t.Fatalf("Replicate waiting across the drop = %v, want ErrRegionNotServing", err)
	}
	if got := sh.LastSeq("rg"); got != 0 {
		t.Fatalf("LastSeq after drop = %d, want 0", got)
	}
}

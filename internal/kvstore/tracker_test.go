package kvstore

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"txkv/internal/dfs"
	"txkv/internal/kv"
)

// syncAt runs one successful persist cycle at the given known T_F.
func (t *serverTracker) syncAt(tf kv.Timestamp) kv.Timestamp {
	t.learnTF(tf)
	known, pins := t.beginSync()
	t.synced(known, pins)
	return t.TP()
}

func TestServerTrackerBasicAdvance(t *testing.T) {
	var tr serverTracker
	if tp := tr.syncAt(17); tp != 17 {
		t.Fatalf("TP = %d, want 17", tp)
	}
	// A lower T_F from a failed beat (0) is ignored: T_F never regresses.
	if tp := tr.syncAt(0); tp != 17 {
		t.Fatalf("TP = %d after a zero reply, want 17", tp)
	}
}

// TestServerTrackerFailedSync: a failed sync calls nothing after
// beginSync, so the inherited pin survives until a sync succeeds.
func TestServerTrackerFailedSync(t *testing.T) {
	var tr serverTracker
	tr.syncAt(5)
	tr.inherit(3)
	tr.learnTF(100)
	_, _ = tr.beginSync() // the sync fails
	if tp := tr.TP(); tp != 3 {
		t.Fatalf("TP after a failed sync = %d, want the pin 3", tp)
	}
	if tp := tr.syncAt(100); tp != 100 {
		t.Fatalf("TP after a successful sync = %d, want 100", tp)
	}
}

// TestServerTrackerInheritance verifies Alg. 3 lines 18-22: a replayed
// update immediately lowers T_P(s'), and the pin holds until the replayed
// data is persisted.
func TestServerTrackerInheritance(t *testing.T) {
	var tr serverTracker
	if tr.syncAt(50) != 50 {
		t.Fatal("setup failed")
	}
	// Replay arrives with the failed server's T_P = 20.
	tr.inherit(20)
	if tr.TP() != 20 {
		t.Fatalf("TP = %d, want immediate drop to 20", tr.TP())
	}
	// A replay arriving DURING the sync keeps the cap.
	tr.learnTF(60)
	tf, pins := tr.beginSync()
	tr.inherit(30)
	tr.synced(tf, pins)
	if tp := tr.TP(); tp != 30 {
		t.Fatalf("TP = %d, want 30 (unpersisted replay cap)", tp)
	}
	// After the next sync covers it, TF takes over again.
	if tp := tr.syncAt(60); tp != 60 {
		t.Fatalf("TP = %d, want 60", tp)
	}
}

func TestServerTrackerInheritanceOnlyLowers(t *testing.T) {
	var tr serverTracker
	tr.syncAt(10)
	tr.inherit(99) // higher than current TP: no change
	if tr.TP() != 10 {
		t.Fatalf("TP = %d, want 10", tr.TP())
	}
}

// TestServerTrackerReportsWhenMasterMayHoldMore: a replay needs a report
// before its ack unless the master is known to hold a T_P(s) no higher
// than the new one; an unsettled master (seed, or a report in flight)
// always gets one.
func TestServerTrackerReportsWhenMasterMayHoldMore(t *testing.T) {
	var tr serverTracker
	if !tr.inherit(99) {
		t.Fatal("no report before any landed: the master holds an unknown seed")
	}
	tr.syncAt(50) // the pin of 99 is covered: T_P(s) = 50
	tr.landed(tr.sending())
	if tr.inherit(60) {
		t.Fatal("report requested although the master holds 50 <= 50")
	}
	if !tr.inherit(20) {
		t.Fatal("no report for a T_P(s) lowered below the master's 50")
	}
	tr.landed(tr.sending()) // the master holds 20
	tp := tr.sending()      // a beat is in flight
	if !tr.inherit(30) {
		t.Fatal("no report while a beat is in flight")
	}
	tr.landed(tp)
}

// TestServerTrackerQuickInvariant drives random sequences of T_F updates,
// replays, and syncs (some failing, some with replays arriving mid-sync),
// and checks the tracker's safety invariants at every step:
//
//  1. T_P(s) never exceeds the T_F known when the last completed sync
//     began.
//  2. While any replay's piggyback is not covered by a completed sync that
//     began after it, T_P(s) <= that piggyback.
func TestServerTrackerQuickInvariant(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr serverTracker
		var (
			tfKnown     kv.Timestamp // monotonically increasing global T_F
			lastApplied kv.Timestamp // T_F known when the last completed sync began
			outstanding []kv.Timestamp
		)
		n := int(nOps%60) + 5
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0: // a heartbeat reply
				tfKnown += kv.Timestamp(rng.Intn(5))
				tr.learnTF(tfKnown)
			case 1: // replayed receive with a random piggyback
				piggy := kv.Timestamp(rng.Intn(int(tfKnown) + 2))
				tr.inherit(piggy)
				outstanding = append(outstanding, piggy)
				if tr.TP() > piggy {
					return false // inheritance must lower immediately
				}
			case 2: // a sync, with replays possibly arriving during it
				tf, pins := tr.beginSync()
				covered := len(outstanding)
				for k := rng.Intn(2); k > 0; k-- {
					piggy := kv.Timestamp(rng.Intn(int(tfKnown) + 2))
					tr.inherit(piggy)
					outstanding = append(outstanding, piggy)
				}
				if rng.Intn(4) == 0 {
					continue // DFS hiccup: the sync fails
				}
				tr.synced(tf, pins)
				outstanding = outstanding[covered:]
				lastApplied = tf
			case 3: // idle: just check
			}
			tp := tr.TP()
			if tp > lastApplied { // invariant 1
				return false
			}
			for _, p := range outstanding { // invariant 2
				if tp > p {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSyncWALAdvancesTP is the persist cycle of Alg. 3 on a live server:
// the async syncer persists the WAL, and the next heartbeat carries the
// T_F learned before the sync to the master as T_P(s).
func TestSyncWALAdvancesTP(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	master := NewMaster(MasterConfig{HeartbeatTimeout: time.Hour}, fs)
	master.PublishThresholds(9, 0)
	srv := NewRegionServer(ServerConfig{
		ID:                "s1",
		WALSyncInterval:   15 * time.Millisecond,
		HeartbeatInterval: 15 * time.Millisecond,
	}, fs)
	if err := master.AddServer(srv); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	if err := master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.ApplyWriteSet(writeSet("c", 3, "t", "a"), 0, false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for master.ServerThresholds()["s1"] != 9 {
		if time.Now().After(deadline) {
			t.Fatalf("reported TP = %d, want 9", master.ServerThresholds()["s1"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The WAL is durable now: the tracked write survives on the DFS.
	if n, err := fs.Size(srv.WALPath()); err != nil || n == 0 {
		t.Fatalf("WAL not synced: %d %v", n, err)
	}
}

// gatedSink is a HeartbeatSink that models the master's view: a report
// takes effect when the call returns. While armed, the next call parks
// until released, which holds a heartbeat in flight.
type gatedSink struct {
	mu      sync.Mutex
	tf      kv.Timestamp
	last    kv.Timestamp // T_P(s) of the last report to take effect
	calls   int
	armed   bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedSink) Heartbeat(_ string, tp kv.Timestamp) (kv.Timestamp, error) {
	g.mu.Lock()
	g.calls++
	park := g.armed
	g.armed = false
	g.mu.Unlock()
	if park {
		close(g.entered)
		<-g.release
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.last = tp
	return g.tf, nil
}

func (g *gatedSink) snapshot() (last kv.Timestamp, calls int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last, g.calls
}

// TestReplayReportNotOverwrittenByStaleBeat closes the stale-report race:
// a heartbeat that read T_P(s) before a replay lowered it is still in
// flight when the replay arrives. The replay's report must take effect
// after it, so the master ends with the inherited value — and has it
// before the replay is acknowledged.
func TestReplayReportNotOverwrittenByStaleBeat(t *testing.T) {
	sink := &gatedSink{tf: 50, entered: make(chan struct{}), release: make(chan struct{})}
	srv := NewRegionServer(ServerConfig{
		ID:                "s1",
		WALSyncInterval:   time.Hour, // syncs and beats only when the test says
		HeartbeatInterval: time.Hour,
	}, dfs.New(dfs.Config{}))
	if err := srv.Start(sink); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	if err := srv.OpenRegion(RegionInfo{ID: "t.r0", Table: "t"}, nil, false); err != nil {
		t.Fatal(err)
	}
	// Learn T_F = 50 and persist: T_P(s) = 50.
	if err := srv.report(); err != nil {
		t.Fatal(err)
	}
	if err := srv.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if tp := srv.tracker.TP(); tp != 50 {
		t.Fatalf("setup: TP = %d, want 50", tp)
	}

	// A heartbeat reads T_P(s) = 50 and parks in flight.
	sink.mu.Lock()
	sink.armed = true
	sink.mu.Unlock()
	beat := make(chan error, 1)
	go func() { beat <- srv.report() }()
	<-sink.entered
	_, callsBefore := sink.snapshot()

	// A replay carrying T_P(failed) = 20 arrives meanwhile.
	replay := make(chan error, 1)
	go func() { replay <- srv.ApplyWriteSet(writeSet("cR", 30, "t", "b"), 20, true) }()
	deadline := time.Now().Add(3 * time.Second)
	for srv.tracker.TP() != 20 {
		if time.Now().After(deadline) {
			t.Fatalf("TP = %d, want inherited 20", srv.tracker.TP())
		}
		time.Sleep(time.Millisecond)
	}
	// The replay's report must wait for the in-flight beat.
	time.Sleep(20 * time.Millisecond)
	if _, calls := sink.snapshot(); calls != callsBefore {
		t.Fatal("replay report sent while a stale heartbeat was in flight")
	}
	select {
	case err := <-replay:
		t.Fatalf("replay acknowledged (%v) before its threshold was reported", err)
	default:
	}

	close(sink.release)
	if err := <-beat; err != nil {
		t.Fatal(err)
	}
	if err := <-replay; err != nil {
		t.Fatal(err)
	}
	if last, _ := sink.snapshot(); last != 20 {
		t.Fatalf("master holds T_P(s) = %d after the replay, want the inherited 20", last)
	}
}

// TestMasterServerThresholds: the master seeds T_P(s) at registration from
// the published global T_P (Alg. 4 "On register"), takes reports from live
// servers only, hands the frozen value to failure listeners, and keeps it
// in ServerThresholds until the failed server's regions are back.
func TestMasterServerThresholds(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	master := NewMaster(MasterConfig{HeartbeatTimeout: time.Hour}, fs)
	master.PublishThresholds(40, 30)
	if err := master.AddServerHost(NewRegionServer(ServerConfig{ID: "s1"}, fs), ""); err != nil {
		t.Fatal(err)
	}
	if got := master.ServerThresholds()["s1"]; got != 30 {
		t.Fatalf("seeded T_P(s) = %d, want the global T_P 30", got)
	}
	if tf, err := master.Heartbeat("s1", 35); err != nil || tf != 40 {
		t.Fatalf("heartbeat reply = %d, %v; want T_F 40", tf, err)
	}
	if got := master.ServerThresholds()["s1"]; got != 35 {
		t.Fatalf("reported T_P(s) = %d, want 35", got)
	}
	if _, err := master.Heartbeat("nobody", 1); err == nil {
		t.Fatal("heartbeat from an unregistered server accepted")
	}

	var frozen kv.Timestamp
	master.AddFailureListener(listenerFunc(func(_ string, tp kv.Timestamp, _ []RegionInfo) {
		frozen = tp
	}))
	master.FailServer("s1")
	if frozen != 35 {
		t.Fatalf("failure listener got T_P(s) = %d, want 35", frozen)
	}
	if _, err := master.Heartbeat("s1", 99); err == nil {
		t.Fatal("heartbeat from a failed server accepted")
	}
	// s1 hosted no regions, so its recovery is complete at once and its
	// threshold no longer holds anything back.
	if _, ok := master.ServerThresholds()["s1"]; ok {
		t.Fatal("recovered dead server still in ServerThresholds")
	}
}

package core

import (
	"fmt"
	"testing"
	"time"

	"txkv/internal/kv"
	"txkv/internal/kvstore"
)

// TestTruncationDisabled verifies the ablation flag: the log keeps growing.
func TestTruncationDisabled(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 1, walSyncInterval: 10 * time.Millisecond})
	// Rebuild the manager with truncation disabled.
	h.rm.Stop()
	rc := kvstore.NewClient(kvstore.ClientConfig{ID: "rc2"}, h.net, h.master)
	h.rm = NewManager(ManagerConfig{PollInterval: 15 * time.Millisecond, DisableTruncation: true},
		h.svc, h.master, h.log, rc, h.net)
	h.rm.Start()

	if err := h.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := h.newClient(t, "c1", 15*time.Millisecond)
	for i := 1; i <= 10; i++ {
		ws := mkWS("c1", kv.Timestamp(i), "t", fmt.Sprintf("r%02d", i))
		h.commit(t, c, ws)
		h.flush(t, c, ws)
	}
	waitFor(t, 3*time.Second, "TP advance", func() bool { return h.rm.TP() >= 10 })
	time.Sleep(100 * time.Millisecond)
	if s := h.log.Stats(); s.DurableRecords != 10 || s.TruncatedRecords != 0 {
		t.Fatalf("truncation ran despite ablation: %+v", s)
	}
}

func TestQueueAlertCounting(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 1})
	h.rm.NoteQueueAlert("c1", 99)
	h.rm.NoteQueueAlert("server-0", 5)
	if got := h.rm.StatsSnapshot().QueueAlerts; got != 2 {
		t.Fatalf("alerts = %d", got)
	}
}

// TestQueueAlertFiresEndToEnd: a client whose flushes are stuck (region
// permanently unavailable, §3.2's administrator scenario) raises the alert.
func TestQueueAlertFiresEndToEnd(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 1, walSyncInterval: 10 * time.Millisecond})
	if err := h.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	alertCh := make(chan string, 4)
	agent := NewClientAgent(ClientAgentConfig{
		ClientID:            "stuck",
		HeartbeatInterval:   15 * time.Millisecond,
		QueueAlertThreshold: 3,
		OnQueueAlert:        func(id string, n int) { alertCh <- id },
	}, h.svc, h.lastIssued)
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	defer agent.Crash()
	// Commits pile up with no flushes (the region's host is "gone").
	for ts := kv.Timestamp(1); ts <= 6; ts++ {
		agent.OnCommitted(ts)
	}
	select {
	case id := <-alertCh:
		if id != "stuck" {
			t.Fatalf("alert for %q", id)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("queue alert never fired")
	}
}

func TestManagerRestoreGarbageCheckpoint(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 1})
	h.svc.Put(KeyManagerState, []byte("{not json"))
	rc := kvstore.NewClient(kvstore.ClientConfig{ID: "rc3"}, h.net, h.master)
	rm := NewManager(ManagerConfig{PollInterval: 20 * time.Millisecond}, h.svc, h.master, h.log, rc, h.net)
	rm.Start() // must not panic or adopt garbage
	defer rm.Stop()
	if rm.TF() != 0 && rm.TF() != h.rm.TF() {
		t.Fatalf("garbage checkpoint produced TF %d", rm.TF())
	}
}

// TestRecoverRegionWithoutFailureHook covers the RM-restart path where the
// master retries a gate call for a failure the new RM never saw: it must
// fall back to a conservative threshold and still replay.
func TestRecoverRegionWithoutFailureHook(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 2, walSyncInterval: time.Hour})
	if err := h.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := h.newClient(t, "c1", 15*time.Millisecond)
	ws := mkWS("c1", 1, "t", "row")
	h.commit(t, c, ws)
	h.flush(t, c, ws)

	// Directly call the gate as the master would, with a failed server the
	// RM never heard about.
	_, hostH, err := h.master.Locate("t", "row")
	if err != nil {
		t.Fatal(err)
	}
	host := hostH.(*kvstore.RegionServer)
	var other *kvstore.RegionServer
	for _, s := range h.srvs {
		if s.ID() != host.ID() {
			other = s
		}
	}
	info := kvstore.RegionInfo{ID: "t-r000", Table: "t", Range: kv.KeyRange{}}
	// The region must be in the recovering state on the target before the
	// gate runs; open it, run the gate and mark it online the way the
	// master does.
	if err := other.OpenRegion(info, nil, true); err != nil {
		t.Fatal(err)
	}
	if err := h.rm.RecoverRegion(info, "ghost-server", other); err != nil {
		t.Fatal(err)
	}
	if err := other.MarkRegionOnline(info.ID); err != nil {
		t.Fatal(err)
	}
	// The write-set was replayed to 'other' (the master knows no T_P for
	// the ghost, so everything above the truncation watermark replays).
	got, found, err := other.Get("t", "row", "f", kv.MaxTimestamp)
	if err != nil || !found {
		t.Fatalf("replay missing: %v %v", found, err)
	}
	if string(got.Value) != "v1-row" {
		t.Fatalf("value %q", got.Value)
	}
}

func TestEventsAreCopies(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 1})
	if got := h.rm.Events(); len(got) != 0 {
		t.Fatalf("fresh manager has %d events", len(got))
	}
	h.rm.mu.Lock()
	h.rm.events = append(h.rm.events, RecoveryEvent{Kind: "client", ID: "x"})
	h.rm.mu.Unlock()
	evs := h.rm.Events()
	evs[0].ID = "mutated"
	if h.rm.Events()[0].ID != "x" {
		t.Fatal("Events returned shared slice")
	}
}

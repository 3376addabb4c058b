package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"txkv/internal/coord"
	"txkv/internal/dfs"
	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/netsim"
	"txkv/internal/txlog"
)

// harness assembles the store + coordination + recovery manager, without
// the transaction manager: tests drive the log and client trackers
// directly, which isolates the recovery protocol. Region servers track
// their own T_P(s) and report it on the master heartbeat.
type harness struct {
	fs     *dfs.FS
	net    *netsim.Network
	svc    *coord.Service
	master *kvstore.Master
	log    *txlog.Log
	rm     *Manager
	srvs   []*kvstore.RegionServer

	// seqMu stands in for the transaction manager's sequencing lock:
	// commit records a commit timestamp with its client under it, and
	// lastIssued reads the highest one under it.
	seqMu  sync.Mutex
	issued kv.Timestamp
}

// lastIssued is the client agents' timestamp source.
func (h *harness) lastIssued() kv.Timestamp {
	h.seqMu.Lock()
	defer h.seqMu.Unlock()
	return h.issued
}

type harnessOpts struct {
	servers         int
	rmPoll          time.Duration
	walSyncInterval time.Duration // WAL persist cadence, which advances T_P(s); 0 = 25ms
	masterTimeout   time.Duration // master failure detection; 0 = 150ms
}

func newHarness(t *testing.T, o harnessOpts) *harness {
	t.Helper()
	if o.walSyncInterval == 0 {
		o.walSyncInterval = 25 * time.Millisecond
	}
	if o.rmPoll == 0 {
		o.rmPoll = 20 * time.Millisecond
	}
	if o.masterTimeout == 0 {
		o.masterTimeout = 150 * time.Millisecond
	}
	h := &harness{
		fs:  dfs.New(dfs.Config{Replication: 2, DataNodes: o.servers + 1}),
		net: netsim.New(netsim.Config{}),
		svc: coord.New(coord.Config{DefaultTTL: 150 * time.Millisecond, CheckInterval: 10 * time.Millisecond}),
		log: txlog.New(txlog.Config{}),
	}
	h.master = kvstore.NewMaster(kvstore.MasterConfig{
		HeartbeatTimeout: o.masterTimeout,
		CheckInterval:    15 * time.Millisecond,
	}, h.fs)

	rc := kvstore.NewClient(kvstore.ClientConfig{ID: "recovery-client"}, h.net, h.master)
	h.rm = NewManager(ManagerConfig{PollInterval: o.rmPoll}, h.svc, h.master, h.log, rc, h.net)
	h.master.SetRecoveryGate(h.rm)
	h.master.AddFailureListener(h.rm)
	h.rm.Start()
	h.master.Start()

	for i := 0; i < o.servers; i++ {
		srv := kvstore.NewRegionServer(kvstore.ServerConfig{
			ID:                fmt.Sprintf("server-%d", i),
			WALSyncInterval:   o.walSyncInterval,
			HeartbeatInterval: 20 * time.Millisecond,
		}, h.fs)
		if err := h.master.AddServer(srv); err != nil {
			t.Fatal(err)
		}
		h.srvs = append(h.srvs, srv)
	}
	t.Cleanup(func() {
		h.master.Stop()
		for _, s := range h.srvs {
			if !s.Crashed() {
				s.Stop()
			}
		}
		h.rm.Stop()
		h.log.Close()
		h.svc.Stop()
	})
	return h
}

// testClient bundles a kv client with its recovery agent.
type testClient struct {
	kv    *kvstore.Client
	agent *ClientAgent
}

func (h *harness) newClient(t *testing.T, id string, hb time.Duration) *testClient {
	t.Helper()
	agent := NewClientAgent(ClientAgentConfig{
		ClientID:          id,
		HeartbeatInterval: hb,
		SessionTTL:        4 * hb,
	}, h.svc, h.lastIssued)
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	return &testClient{
		kv:    kvstore.NewClient(kvstore.ClientConfig{ID: id}, h.net, h.master),
		agent: agent,
	}
}

// commit writes the write-set to the TM log and records the commit with the
// client tracker — the state right after a TM commit returns.
func (h *harness) commit(t *testing.T, c *testClient, ws kv.WriteSet) {
	t.Helper()
	if err := h.log.Append(ws); err != nil {
		t.Fatal(err)
	}
	h.seqMu.Lock()
	defer h.seqMu.Unlock()
	if ws.CommitTS > h.issued {
		h.issued = ws.CommitTS
	}
	c.agent.OnCommitted(ws.CommitTS)
}

// flush completes the post-commit flush and notifies the tracker.
func (h *harness) flush(t *testing.T, c *testClient, ws kv.WriteSet) {
	t.Helper()
	if err := c.kv.Flush(context.Background(), ws, 0, false); err != nil {
		t.Fatal(err)
	}
	c.agent.OnFlushed(ws.CommitTS)
}

func mkWS(client string, ts kv.Timestamp, table string, rows ...string) kv.WriteSet {
	ws := kv.WriteSet{TxnID: uint64(ts), ClientID: client, CommitTS: ts}
	for _, r := range rows {
		ws.Updates = append(ws.Updates, kv.Update{
			Table: table, Row: kv.Key(r), Column: "f",
			Value: []byte(fmt.Sprintf("v%d-%s", ts, r)),
		})
	}
	return ws
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func (h *harness) mustRead(t *testing.T, c *kvstore.Client, table, row, want string) {
	t.Helper()
	got, found, err := c.Get(context.Background(), table, kv.Key(row), "f", kv.MaxTimestamp)
	if err != nil {
		t.Fatalf("read %s/%s: %v", table, row, err)
	}
	if !found {
		t.Fatalf("read %s/%s: not found, want %q", table, row, want)
	}
	if string(got.Value) != want {
		t.Fatalf("read %s/%s = %q, want %q", table, row, got.Value, want)
	}
}

// TestClientFailureRecovery is the paper's §3.1 scenario: a client commits
// (log write succeeds) but dies before flushing; the recovery manager
// detects the missed heartbeats and replays the committed-but-unflushed
// write-set from the TM log.
func TestClientFailureRecovery(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 2, walSyncInterval: 10 * time.Millisecond})
	if err := h.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := h.newClient(t, "c1", 20*time.Millisecond)

	// Txn 1: committed AND flushed.
	ws1 := mkWS("c1", 1, "t", "flushed-row")
	h.commit(t, c, ws1)
	h.flush(t, c, ws1)
	// Let a heartbeat carry TF(c1)=1.
	waitFor(t, 2*time.Second, "TF to reach 1", func() bool { return h.rm.TF() >= 1 })

	// Txn 2: committed, NOT flushed — the client dies now.
	ws2 := mkWS("c1", 2, "t", "lost-row")
	h.commit(t, c, ws2)
	c.agent.Crash() // heartbeats stop; session will expire

	waitFor(t, 5*time.Second, "client recovery", func() bool {
		return h.rm.StatsSnapshot().ClientsRecovered >= 1
	})

	// The committed write-set must now be in the store.
	reader := kvstore.NewClient(kvstore.ClientConfig{ID: "reader"}, h.net, h.master)
	h.mustRead(t, reader, "t", "lost-row", "v2-lost-row")
	h.mustRead(t, reader, "t", "flushed-row", "v1-flushed-row")

	// Exactly one write-set replayed (ws1 was at or below TF(c1)).
	evs := h.rm.Events()
	if len(evs) != 1 || evs[0].Kind != "client" || evs[0].WriteSetsReplayed != 1 {
		t.Fatalf("events = %+v", evs)
	}
}

// TestClientCleanShutdownNoRecovery: a clean unregister triggers no replay
// and removes the client from the T_F computation.
func TestClientCleanShutdownNoRecovery(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 1, walSyncInterval: 10 * time.Millisecond})
	if err := h.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := h.newClient(t, "c1", 15*time.Millisecond)
	ws := mkWS("c1", 1, "t", "a")
	h.commit(t, c, ws)
	h.flush(t, c, ws)
	c.agent.Stop() // clean shutdown: final heartbeat + unregister

	// Another client keeps the system moving; TF must not be blocked by
	// the departed c1.
	c2 := h.newClient(t, "c2", 15*time.Millisecond)
	ws2 := mkWS("c2", 5, "t", "b")
	h.commit(t, c2, ws2)
	h.flush(t, c2, ws2)
	waitFor(t, 2*time.Second, "TF to advance past departed client", func() bool {
		return h.rm.TF() >= 5
	})
	if n := h.rm.StatsSnapshot().ClientsRecovered; n != 0 {
		t.Fatalf("clean shutdown triggered %d recoveries", n)
	}
}

// TestServerFailureRecovery is the paper's §3.2 scenario: write-sets are
// flushed to a server but the server dies before persisting them (WAL never
// synced); the region gate replays them from the TM log before the region
// goes back online, and no committed write is lost.
func TestServerFailureRecovery(t *testing.T) {
	h := newHarness(t, harnessOpts{
		servers:         2,
		walSyncInterval: time.Hour, // never persist: everything is at risk
	})
	if err := h.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	// The test probes a server failure, not c1's: a heartbeat whose 2 s
	// session survives a loaded machine keeps c1 from expiring and adding
	// a client recovery event.
	c := h.newClient(t, "c1", 500*time.Millisecond)

	const n = 10
	for i := 1; i <= n; i++ {
		ws := mkWS("c1", kv.Timestamp(i), "t", fmt.Sprintf("row%02d", i))
		h.commit(t, c, ws)
		h.flush(t, c, ws)
	}

	// Everything is flushed but nothing persisted (no WAL sync ran).
	_, hostH, err := h.master.Locate("t", "row01")
	if err != nil {
		t.Fatal(err)
	}
	host := hostH.(*kvstore.RegionServer)
	host.Crash()
	h.net.SetDown(host.ID(), true)

	waitFor(t, 5*time.Second, "region recovery", func() bool {
		return h.rm.StatsSnapshot().RegionsRecovered >= 1
	})

	reader := kvstore.NewClient(kvstore.ClientConfig{ID: "reader"}, h.net, h.master)
	for i := 1; i <= n; i++ {
		row := fmt.Sprintf("row%02d", i)
		h.mustRead(t, reader, "t", row, fmt.Sprintf("v%d-%s", i, row))
	}
	// All n write-sets were replayed (T_P(s) never advanced past 0).
	evs := h.rm.Events()
	if len(evs) != 1 || evs[0].Kind != "region" || evs[0].WriteSetsReplayed != n {
		t.Fatalf("events = %+v", evs)
	}
}

// TestServerFailurePartialPersist: T_P(s) reflects persisted prefixes, so
// only write-sets after T_P(s) are replayed.
func TestServerFailurePartialPersist(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 2, walSyncInterval: 25 * time.Millisecond})
	if err := h.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := h.newClient(t, "c1", 15*time.Millisecond)

	// Phase 1: five write-sets, fully flushed, syncs running — they get
	// persisted and T_P advances.
	for i := 1; i <= 5; i++ {
		ws := mkWS("c1", kv.Timestamp(i), "t", fmt.Sprintf("old%02d", i))
		h.commit(t, c, ws)
		h.flush(t, c, ws)
	}
	waitFor(t, 3*time.Second, "TP to cover the persisted prefix", func() bool {
		return h.rm.TP() >= 5
	})

	// Phase 2: freeze persistence by crashing the server right after more
	// flushes arrive.
	for i := 6; i <= 8; i++ {
		ws := mkWS("c1", kv.Timestamp(i), "t", fmt.Sprintf("new%02d", i))
		h.commit(t, c, ws)
		h.flush(t, c, ws)
	}
	_, hostH, err := h.master.Locate("t", "old01")
	if err != nil {
		t.Fatal(err)
	}
	host := hostH.(*kvstore.RegionServer)
	host.Crash()
	h.net.SetDown(host.ID(), true)

	waitFor(t, 5*time.Second, "region recovery", func() bool {
		return h.rm.StatsSnapshot().RegionsRecovered >= 1
	})

	reader := kvstore.NewClient(kvstore.ClientConfig{ID: "reader"}, h.net, h.master)
	for i := 1; i <= 5; i++ {
		row := fmt.Sprintf("old%02d", i)
		h.mustRead(t, reader, "t", row, fmt.Sprintf("v%d-%s", i, row))
	}
	for i := 6; i <= 8; i++ {
		row := fmt.Sprintf("new%02d", i)
		h.mustRead(t, reader, "t", row, fmt.Sprintf("v%d-%s", i, row))
	}
	// Replay count bounded: at most the unpersisted suffix (commit ts >
	// T_P(s) >= 5), i.e. no more than 3 write-sets; the WAL split already
	// recovered the persisted prefix.
	evs := h.rm.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].WriteSetsReplayed > 3 {
		t.Fatalf("replayed %d write-sets, want <= 3 (T_P bound)", evs[0].WriteSetsReplayed)
	}
}

// TestThresholdsAdvanceAndLogTruncates drives steady traffic and verifies
// the full T_F -> T_P -> truncation pipeline of §3.2.
func TestThresholdsAdvanceAndLogTruncates(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 2, walSyncInterval: 20 * time.Millisecond})
	if err := h.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := h.newClient(t, "c1", 15*time.Millisecond)
	const n = 20
	for i := 1; i <= n; i++ {
		ws := mkWS("c1", kv.Timestamp(i), "t", fmt.Sprintf("r%02d", i))
		h.commit(t, c, ws)
		h.flush(t, c, ws)
	}
	waitFor(t, 3*time.Second, "TF to reach n", func() bool { return h.rm.TF() == n })
	waitFor(t, 3*time.Second, "TP to reach n", func() bool { return h.rm.TP() == n })
	waitFor(t, 3*time.Second, "log truncation", func() bool {
		return h.log.Stats().DurableRecords == 0 && h.log.Stats().TruncatedRecords == n
	})
	if tp, tf := h.rm.TP(), h.rm.TF(); tp > tf {
		t.Fatalf("invariant violated: TP %d > TF %d", tp, tf)
	}
}

// TestOutOfOrderFlushHoldsGlobalTF: two clients; one lags. The global T_F
// must track the minimum.
func TestGlobalTFIsMinimumAcrossClients(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 1, walSyncInterval: 10 * time.Millisecond})
	if err := h.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	fast := h.newClient(t, "fast", 15*time.Millisecond)
	lag := h.newClient(t, "lag", 15*time.Millisecond)

	wsL := mkWS("lag", 1, "t", "lag-row")
	h.commit(t, lag, wsL) // committed, never flushed: TF(lag) stays 0

	for i := 2; i <= 6; i++ {
		ws := mkWS("fast", kv.Timestamp(i), "t", fmt.Sprintf("f%02d", i))
		h.commit(t, fast, ws)
		h.flush(t, fast, ws)
	}
	time.Sleep(300 * time.Millisecond)
	if tf := h.rm.TF(); tf != 0 {
		t.Fatalf("global TF = %d, must be held at 0 by the lagging client", tf)
	}
	// Lagging client flushes: with nothing of its own left in flight, it
	// follows the last issued timestamp (6), and the global minimum
	// moves up past its commit.
	h.flush(t, lag, wsL)
	waitFor(t, 2*time.Second, "TF catch-up to the lagging client's frontier", func() bool {
		return h.rm.TF() >= 1
	})
	// Once the laggard departs cleanly, the fast client's frontier rules.
	lag.agent.Stop()
	waitFor(t, 2*time.Second, "TF catch-up after unregister", func() bool {
		return h.rm.TF() >= 6
	})
}

// TestCascadingFailureInheritance is the paper's hardest scenario (§3.2):
// during recovery of server A, replayed updates land on live server B with
// T_P(A) piggybacked; B inherits the lower threshold, so when B fails
// before persisting the replays, they are replayed AGAIN — nothing is lost.
func TestCascadingFailureInheritance(t *testing.T) {
	h := newHarness(t, harnessOpts{
		servers:         3,
		walSyncInterval: time.Hour, // never persist
	})
	// Single-region table: lands on exactly one server.
	if err := h.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := h.newClient(t, "c1", 15*time.Millisecond)

	const n = 5
	for i := 1; i <= n; i++ {
		ws := mkWS("c1", kv.Timestamp(i), "t", fmt.Sprintf("row%02d", i))
		h.commit(t, c, ws)
		h.flush(t, c, ws)
	}
	_, hostAH, err := h.master.Locate("t", "row01")
	if err != nil {
		t.Fatal(err)
	}
	hostA := hostAH.(*kvstore.RegionServer)
	hostA.Crash()
	h.net.SetDown(hostA.ID(), true)
	waitFor(t, 5*time.Second, "first recovery", func() bool {
		return h.rm.StatsSnapshot().RegionsRecovered >= 1
	})

	// The region now lives on some server B with replayed-but-unpersisted
	// data and an inherited threshold. Kill B too.
	_, hostBH, err := h.master.Locate("t", "row01")
	if err != nil {
		t.Fatal(err)
	}
	hostB := hostBH.(*kvstore.RegionServer)
	if hostB.ID() == hostA.ID() {
		t.Fatal("region did not move")
	}
	// B must have inherited A's (zero) threshold and reported it.
	if tp := h.master.ServerThresholds()[hostB.ID()]; tp > 0 {
		t.Fatalf("B's TP = %d, inheritance failed", tp)
	}
	hostB.Crash()
	h.net.SetDown(hostB.ID(), true)
	waitFor(t, 5*time.Second, "second recovery", func() bool {
		return h.rm.StatsSnapshot().RegionsRecovered >= 2
	})

	// Every committed row must still be readable on the third server.
	reader := kvstore.NewClient(kvstore.ClientConfig{ID: "reader"}, h.net, h.master)
	for i := 1; i <= n; i++ {
		row := fmt.Sprintf("row%02d", i)
		h.mustRead(t, reader, "t", row, fmt.Sprintf("v%d-%s", i, row))
	}
}

// TestServerKilledBeforeFirstReportHoldsRegistrationTP: a server's T_P(s)
// starts at the global T_P when it registers (Alg. 4 "On register"). A
// server that never reports holds the global T_P there while it owns
// unpersisted data, and when it dies its regions replay from that value.
func TestServerKilledBeforeFirstReportHoldsRegistrationTP(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 1, masterTimeout: time.Hour})
	for _, table := range []string{"t", "u"} {
		if err := h.master.CreateTable(table, nil); err != nil {
			t.Fatal(err)
		}
	}
	c := h.newClient(t, "c1", 15*time.Millisecond)
	for i := 1; i <= 5; i++ {
		ws := mkWS("c1", kv.Timestamp(i), "t", fmt.Sprintf("a%02d", i))
		h.commit(t, c, ws)
		h.flush(t, c, ws)
	}
	waitFor(t, 3*time.Second, "TP to reach 5", func() bool { return h.rm.TP() == 5 })

	// A server that never heartbeats joins and takes table u's region.
	silent := kvstore.NewRegionServer(kvstore.ServerConfig{
		ID:                "silent",
		HeartbeatInterval: time.Hour,
		WALSyncInterval:   time.Hour,
	}, h.fs)
	if err := h.master.AddServer(silent); err != nil {
		t.Fatal(err)
	}
	if got := h.master.ServerThresholds()["silent"]; got != 5 {
		t.Fatalf("registration T_P(silent) = %d, want the global T_P 5", got)
	}
	regions, err := h.master.TableRegions("u")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.master.MoveRegion(regions[0].ID, "silent"); err != nil {
		t.Fatal(err)
	}
	for i := 6; i <= 8; i++ {
		ws := mkWS("c1", kv.Timestamp(i), "u", fmt.Sprintf("b%02d", i))
		h.commit(t, c, ws)
		h.flush(t, c, ws)
	}
	// server-0 persists past 8, but the silent server's registration value
	// holds the global T_P.
	waitFor(t, 3*time.Second, "server-0 to report 8", func() bool {
		return h.master.ServerThresholds()["server-0"] >= 8
	})
	time.Sleep(5 * 20 * time.Millisecond) // several RM polls
	if tp := h.rm.TP(); tp != 5 {
		t.Fatalf("global TP = %d, want it held at the silent server's registration value 5", tp)
	}

	silent.Crash()
	h.net.SetDown("silent", true)
	h.master.FailServer("silent")
	reader := kvstore.NewClient(kvstore.ClientConfig{ID: "reader"}, h.net, h.master)
	for i := 6; i <= 8; i++ {
		row := fmt.Sprintf("b%02d", i)
		h.mustRead(t, reader, "u", row, fmt.Sprintf("v%d-%s", i, row))
	}
	evs := h.rm.Events()
	if len(evs) != 1 || evs[0].FailedServer != "silent" || evs[0].WriteSetsReplayed != 3 {
		t.Fatalf("events = %+v, want one region replay of the 3 write-sets above 5", evs)
	}
	waitFor(t, 3*time.Second, "TP to advance once the silent server is recovered", func() bool {
		return h.rm.TP() == 8
	})
}

// TestCascadingFailureAfterWALSplit: a region recovered from its dead
// server's WAL split holds the split edits in its new host's memstore. Once
// the log is truncated past them, the new host is the only holder; its own
// failure must not lose them.
func TestCascadingFailureAfterWALSplit(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 3, walSyncInterval: 10 * time.Millisecond})
	if err := h.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := h.newClient(t, "c1", 15*time.Millisecond)
	const n = 5
	for i := 1; i <= n; i++ {
		ws := mkWS("c1", kv.Timestamp(i), "t", fmt.Sprintf("row%02d", i))
		h.commit(t, c, ws)
		h.flush(t, c, ws)
	}
	// Every row is persisted in its host's WAL and gone from the log.
	waitFor(t, 3*time.Second, "log truncation", func() bool {
		return h.log.Stats().TruncatedRecords == n
	})
	crash := func(round int) {
		t.Helper()
		_, hostH, err := h.master.Locate("t", "row01")
		if err != nil {
			t.Fatal(err)
		}
		host := hostH.(*kvstore.RegionServer)
		host.Crash()
		h.net.SetDown(host.ID(), true)
		waitFor(t, 5*time.Second, fmt.Sprintf("recovery %d", round), func() bool {
			return h.rm.StatsSnapshot().RegionsRecovered >= round
		})
	}
	crash(1)
	// The new host syncs its WAL and reports: T_P(s) moves on, the pin of
	// the first failure is gone.
	time.Sleep(100 * time.Millisecond)
	crash(2)
	reader := kvstore.NewClient(kvstore.ClientConfig{ID: "reader"}, h.net, h.master)
	for i := 1; i <= n; i++ {
		row := fmt.Sprintf("row%02d", i)
		h.mustRead(t, reader, "t", row, fmt.Sprintf("v%d-%s", i, row))
	}
}

// TestRecoveryManagerFailover: the RM dies and a new one takes over from
// the checkpoint in the coordination service; a subsequent server failure
// is still recovered correctly (paper §3.3).
func TestRecoveryManagerFailover(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 2, walSyncInterval: 25 * time.Millisecond})
	if err := h.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := h.newClient(t, "c1", 15*time.Millisecond)
	for i := 1; i <= 5; i++ {
		ws := mkWS("c1", kv.Timestamp(i), "t", fmt.Sprintf("a%02d", i))
		h.commit(t, c, ws)
		h.flush(t, c, ws)
	}
	waitFor(t, 3*time.Second, "thresholds to advance", func() bool { return h.rm.TP() >= 5 })

	// RM crashes. Transaction processing continues meanwhile.
	h.rm.Stop()
	for i := 6; i <= 8; i++ {
		ws := mkWS("c1", kv.Timestamp(i), "t", fmt.Sprintf("b%02d", i))
		h.commit(t, c, ws)
		h.flush(t, c, ws)
	}

	// New RM restores from the coordination service.
	rc2 := kvstore.NewClient(kvstore.ClientConfig{ID: "recovery-client-2"}, h.net, h.master)
	rm2 := NewManager(ManagerConfig{PollInterval: 20 * time.Millisecond}, h.svc, h.master, h.log, rc2, h.net)
	h.master.SetRecoveryGate(rm2)
	h.master.AddFailureListener(rm2)
	rm2.Start()
	defer rm2.Stop()
	if got := rm2.TP(); got < 5 {
		t.Fatalf("restored TP = %d, want >= 5 from checkpoint", got)
	}

	// A server failure after fail-over still recovers.
	_, hostH, err := h.master.Locate("t", "a01")
	if err != nil {
		t.Fatal(err)
	}
	host := hostH.(*kvstore.RegionServer)
	host.Crash()
	h.net.SetDown(host.ID(), true)
	waitFor(t, 5*time.Second, "post-failover recovery", func() bool {
		return rm2.StatsSnapshot().RegionsRecovered >= 1
	})
	reader := kvstore.NewClient(kvstore.ClientConfig{ID: "reader"}, h.net, h.master)
	for i := 1; i <= 5; i++ {
		h.mustRead(t, reader, "t", fmt.Sprintf("a%02d", i), fmt.Sprintf("v%d-a%02d", i, i))
	}
	for i := 6; i <= 8; i++ {
		h.mustRead(t, reader, "t", fmt.Sprintf("b%02d", i), fmt.Sprintf("v%d-b%02d", i, i))
	}
}

// TestClientAgentSelfTerminatesOnPartition: a partitioned client whose
// session expired must get the fatal signal (paper §3.1: "the client
// heartbeat will not be able to contact the recovery manager, which will
// result in it terminating itself").
func TestClientAgentSelfTerminatesOnPartition(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 1, walSyncInterval: 10 * time.Millisecond})
	fatal := make(chan error, 1)
	agent := NewClientAgent(ClientAgentConfig{
		ClientID:          "doomed",
		HeartbeatInterval: 20 * time.Millisecond,
		SessionTTL:        60 * time.Millisecond,
		OnFatal:           func(err error) { fatal <- err },
	}, h.svc, h.lastIssued)
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	// Simulate the partition by expiring the session server-side.
	_ = h.svc.Unregister("client/doomed")
	select {
	case <-fatal:
		if !agent.Failed() {
			t.Fatal("agent not marked failed")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("agent did not self-terminate")
	}
}

// TestReplayIsIdempotent: replaying a write-set that was actually already
// applied must not corrupt data (conservative thresholds over-replay by
// design, §3.1: "some write-sets might be replayed unnecessarily").
func TestReplayIsIdempotent(t *testing.T) {
	h := newHarness(t, harnessOpts{servers: 2, walSyncInterval: 5 * time.Millisecond})
	if err := h.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := h.newClient(t, "c1", 20*time.Millisecond)
	ws := mkWS("c1", 3, "t", "dup")
	h.commit(t, c, ws)
	h.flush(t, c, ws) // applied once
	// Client dies without its heartbeat having advanced TF past 3: the RM
	// will replay ws although it was flushed.
	c.agent.Crash()
	waitFor(t, 5*time.Second, "client recovery", func() bool {
		return h.rm.StatsSnapshot().ClientsRecovered >= 1
	})
	reader := kvstore.NewClient(kvstore.ClientConfig{ID: "reader"}, h.net, h.master)
	h.mustRead(t, reader, "t", "dup", "v3-dup")
	// Still exactly one visible version per snapshot.
	got, err := reader.Scan(context.Background(), "t", kv.KeyRange{}, kv.MaxTimestamp, 0)
	if err != nil || len(got) != 1 {
		t.Fatalf("scan = %v (%v)", got, err)
	}
}

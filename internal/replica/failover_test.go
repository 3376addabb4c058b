package replica

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"txkv/internal/dfs"
	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/netsim"
	"txkv/internal/obs"
)

// directLink drives a follower region server in-process — the loopback
// transport of replication, mirroring what internal/rpc provides between
// processes.
type directLink struct{ s *kvstore.RegionServer }

func (l directLink) ServerID() string { return l.s.ID() }

func (l directLink) AppendEntries(regionID string, epoch uint64, entries []kvstore.ReplEntry, tipSeq uint64, safeTS kv.Timestamp) (uint64, error) {
	return l.s.AppendReplicated(regionID, epoch, entries, tipSeq, safeTS)
}

func (l directLink) Checkpoint(regionID string, epoch, seq uint64) error {
	return l.s.ApplyReplCheckpoint(regionID, epoch, seq)
}

func (l directLink) Close() {}

// replCluster is a replicated in-process cluster: master + servers, each
// server backed by a Shipper whose links call peer servers directly.
type replCluster struct {
	fs      *dfs.FS
	net     *netsim.Network
	master  *kvstore.Master
	srvs    map[string]*kvstore.RegionServer
	ships   map[string]*Shipper
	regs    map[string]*obs.Registry // one per server, shared with its shipper
	safeTS  atomic.Uint64
	t       *testing.T
	ordered []string
}

func newReplCluster(t *testing.T, nServers, rf int) *replCluster {
	t.Helper()
	c := &replCluster{
		fs:    dfs.New(dfs.Config{Replication: 2, DataNodes: nServers + 1}),
		net:   netsim.New(netsim.Config{}),
		srvs:  make(map[string]*kvstore.RegionServer),
		ships: make(map[string]*Shipper),
		regs:  make(map[string]*obs.Registry),
		t:     t,
	}
	c.safeTS.Store(uint64(kv.MaxTimestamp))
	c.master = kvstore.NewMaster(kvstore.MasterConfig{
		HeartbeatTimeout:  200 * time.Millisecond,
		CheckInterval:     20 * time.Millisecond,
		ReplicationFactor: rf,
	}, c.fs)
	c.master.Start()
	dial := func(target kvstore.ReplicaTarget) (kvstore.FollowerLink, error) {
		s, ok := c.srvs[target.ServerID]
		if !ok {
			return nil, fmt.Errorf("no such server %s", target.ServerID)
		}
		return directLink{s: s}, nil
	}
	for i := 0; i < nServers; i++ {
		id := fmt.Sprintf("server-%d", i)
		reg := obs.NewRegistry()
		srv := kvstore.NewRegionServer(kvstore.ServerConfig{
			ID:                id,
			WALSyncInterval:   20 * time.Millisecond,
			HeartbeatInterval: 20 * time.Millisecond,
			Registry:          reg,
		}, c.fs)
		sh := NewShipper(Config{
			ServerID:      id,
			Dial:          dial,
			SafeTS:        func() kv.Timestamp { return kv.Timestamp(c.safeTS.Load()) },
			QuorumTimeout: 2 * time.Second,
			Registry:      reg,
		})
		srv.SetReplicator(sh)
		if err := c.master.AddServer(srv); err != nil {
			t.Fatal(err)
		}
		c.srvs[id] = srv
		c.ships[id] = sh
		c.regs[id] = reg
		c.ordered = append(c.ordered, id)
	}
	t.Cleanup(func() {
		c.master.Stop()
		for _, s := range c.srvs {
			if !s.Crashed() {
				s.Stop()
			}
		}
		for _, sh := range c.ships {
			sh.Close()
		}
	})
	return c
}

func (c *replCluster) client(id string) *kvstore.Client {
	return kvstore.NewClient(kvstore.ClientConfig{ID: id}, c.net, c.master)
}

// primaryOf resolves which server currently hosts (table, row)'s primary.
func (c *replCluster) primaryOf(table string, row kv.Key) (string, *kvstore.RegionServer) {
	c.t.Helper()
	_, host, err := c.master.Locate(table, row)
	if err != nil {
		c.t.Fatalf("Locate(%s/%s): %v", table, row, err)
	}
	s := host.(*kvstore.RegionServer)
	return s.ID(), s
}

func replWriteSet(tsv kv.Timestamp, table string, rows ...string) kv.WriteSet {
	ws := kv.WriteSet{TxnID: uint64(tsv), ClientID: "repl-test", CommitTS: tsv}
	for _, r := range rows {
		ws.Updates = append(ws.Updates, kv.Update{
			Table: table, Row: kv.Key(r), Column: "f",
			Value: []byte(fmt.Sprintf("v%d-%s", tsv, r)),
		})
	}
	return ws
}

func TestReplicatedWritesReachFollowers(t *testing.T) {
	c := newReplCluster(t, 3, 3)
	if err := c.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl := c.client("c1")
	ctx := context.Background()
	for i := 1; i <= 30; i++ {
		if err := cl.Flush(ctx, replWriteSet(kv.Timestamp(i), "t", fmt.Sprintf("row%03d", i)), 0, false); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
	}
	primaryID, _ := c.primaryOf("t", "row001")
	// Every non-primary server hosts a follower copy at seq 30.
	waitFor(t, "followers caught up", func() bool {
		n := 0
		for id, s := range c.srvs {
			if id == primaryID {
				continue
			}
			for _, st := range s.ReplicaStates() {
				if st.Role == kvstore.RoleFollower && st.LastSeq == 30 {
					n++
				}
			}
		}
		return n == 2
	})
	// Quorum acks really happened: the primary's shipper shipped to both.
	if st := c.ships[primaryID].Stats(); st.ShippedEntries < 60 {
		t.Fatalf("ShippedEntries = %d, want >= 60", st.ShippedEntries)
	}
}

func TestFollowerReadsBoundedStaleness(t *testing.T) {
	c := newReplCluster(t, 2, 2)
	// Freeze the safe horizon low so frontier only advances when we say so.
	c.safeTS.Store(0)
	if err := c.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl := c.client("c1")
	ctx := context.Background()
	for i := 1; i <= 5; i++ {
		if err := cl.Flush(ctx, replWriteSet(kv.Timestamp(10*i), "t", fmt.Sprintf("row%d", i)), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	primaryID, _ := c.primaryOf("t", "row1")
	var follower *kvstore.RegionServer
	for id, s := range c.srvs {
		if id != primaryID {
			follower = s
		}
	}
	req := kvstore.ScanRequest{
		Table:         "t",
		Range:         kv.KeyRange{},
		MaxTS:         50,
		Batch:         100,
		AllowFollower: true,
	}
	// The replicated frontier is at the applied commit timestamps (50); a
	// snapshot at 50 is servable, one above it is not until the safe
	// horizon catches up.
	waitFor(t, "follower frontier at 50", func() bool {
		resp, err := follower.ScanBatch(ctx, req)
		return err == nil && len(resp.KVs) == 5
	})
	req.MaxTS = 51
	if _, err := follower.ScanBatch(ctx, req); !errors.Is(err, kvstore.ErrFollowerBehind) {
		t.Fatalf("scan above frontier = %v, want ErrFollowerBehind", err)
	}
	// Advance the safe horizon: heartbeats push it to the caught-up
	// follower and the stale snapshot becomes servable.
	c.safeTS.Store(60)
	waitFor(t, "frontier advanced via heartbeat", func() bool {
		resp, err := follower.ScanBatch(ctx, req)
		return err == nil && len(resp.KVs) == 5
	})
	// Without AllowFollower the follower copy stays invisible.
	req.AllowFollower = false
	if _, err := follower.ScanBatch(ctx, req); !errors.Is(err, kvstore.ErrRegionNotServing) {
		t.Fatalf("scan without AllowFollower = %v, want ErrRegionNotServing", err)
	}
}

func TestPromotionFailoverPreservesAckedWrites(t *testing.T) {
	c := newReplCluster(t, 3, 3)
	if err := c.master.CreateTable("t", []kv.Key{"m"}); err != nil {
		t.Fatal(err)
	}
	cl := c.client("c1")
	ctx := context.Background()
	const n = 40
	for i := 1; i <= n; i++ {
		row := fmt.Sprintf("a%03d", i)
		if i%2 == 0 {
			row = fmt.Sprintf("z%03d", i) // second region
		}
		if err := cl.Flush(ctx, replWriteSet(kv.Timestamp(i), "t", row), 0, false); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
	}
	primaryID, primary := c.primaryOf("t", "a001")
	epochBefore := c.master.ReplicaEpoch("t-r000")

	// Kill the primary-hosting server outright and let the master promote.
	primary.Crash()
	start := time.Now()
	waitFor(t, "region failed over", func() bool {
		id, _, err := func() (string, kvstore.RegionHost, error) {
			_, h, e := c.master.Locate("t", "a001")
			if e != nil {
				return "", nil, e
			}
			return h.ID(), h, nil
		}()
		return err == nil && id != primaryID
	})
	t.Logf("failover window: %v", time.Since(start))

	if e := c.master.ReplicaEpoch("t-r000"); e <= epochBefore {
		t.Fatalf("epoch %d not bumped past %d by promotion", e, epochBefore)
	}
	// Every acknowledged write survives.
	for i := 1; i <= n; i++ {
		row := fmt.Sprintf("a%03d", i)
		if i%2 == 0 {
			row = fmt.Sprintf("z%03d", i)
		}
		var got kv.KeyValue
		var found bool
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			var err error
			got, found, err = cl.Get(ctx, "t", kv.Key(row), "f", kv.MaxTimestamp)
			if err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if !found {
			t.Fatalf("acked write %s lost after failover", row)
		}
		if want := fmt.Sprintf("v%d-%s", i, row); string(got.Value) != want {
			t.Fatalf("row %s = %q, want %q", row, got.Value, want)
		}
	}
}

func TestFencedExPrimaryCannotAck(t *testing.T) {
	c := newReplCluster(t, 2, 2)
	if err := c.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl := c.client("c1")
	ctx := context.Background()
	if err := cl.Flush(ctx, replWriteSet(1, "t", "a"), 0, false); err != nil {
		t.Fatal(err)
	}
	primaryID, primary := c.primaryOf("t", "a")

	// Partition-style failure: the master declares the server dead and
	// promotes, but the old process is still running and still takes
	// requests from stale clients.
	c.master.FailServer(primaryID)
	waitFor(t, "promotion elsewhere", func() bool {
		id, _, err := func() (string, kvstore.RegionHost, error) {
			_, h, e := c.master.Locate("t", "a")
			if e != nil {
				return "", nil, e
			}
			return h.ID(), h, nil
		}()
		return err == nil && id != primaryID
	})

	// The deposed primary can no longer acknowledge a write: its follower
	// rejects the stale epoch (and its lease, no longer renewed, expires).
	deadline := time.Now().Add(3 * time.Second)
	for {
		err := primary.ApplyWriteSet(replWriteSet(2, "t", "a"), 0, false)
		if errors.Is(err, kvstore.ErrStaleEpoch) || errors.Is(err, kvstore.ErrLeaseExpired) {
			break // fenced
		}
		if err == nil && time.Now().After(deadline) {
			t.Fatal("deposed primary still acknowledging writes")
		}
		if err != nil && !errors.Is(err, kvstore.ErrRegionNotServing) {
			t.Fatalf("unexpected error from deposed primary: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("fencing never engaged; last err: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Its lease, no longer renewed, lapses within one TTL; after that the
	// deposed primary bounces reads too, instead of serving its diverged
	// local copy.
	waitFor(t, "deposed primary stops serving reads", func() bool {
		_, _, err := primary.Get("t", "a", "f", kv.MaxTimestamp)
		return errors.Is(err, kvstore.ErrRegionNotServing)
	})
	// The client re-locates to the new primary, which has exactly the acked
	// data: v1-a, and no trace of the fenced (never-acknowledged) write.
	got, found, err := cl.Get(ctx, "t", "a", "f", kv.MaxTimestamp)
	if err != nil || !found || string(got.Value) != "v1-a" {
		t.Fatalf("read after fencing: %q found=%v err=%v", got.Value, found, err)
	}
}

func TestClientFollowerScanRouting(t *testing.T) {
	c := newReplCluster(t, 2, 2)
	// Freeze the safe horizon: the follower's frontier advances only with
	// applied commit timestamps, so snapshots past the newest write are
	// deterministically unservable from the follower (the fallback case).
	c.safeTS.Store(0)
	if err := c.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	wcl := c.client("writer")
	for i := 1; i <= 10; i++ {
		if err := wcl.Flush(ctx, replWriteSet(kv.Timestamp(i), "t", fmt.Sprintf("row%02d", i)), 0, false); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
	}
	primaryID, _ := c.primaryOf("t", "row01")
	var follower *kvstore.RegionServer
	var followerID string
	for id, s := range c.srvs {
		if id != primaryID {
			follower, followerID = s, id
		}
	}
	// Wait until the follower can serve the snapshot, so the routed scan
	// deterministically succeeds on the follower rather than falling back.
	waitFor(t, "follower servable", func() bool {
		resp, err := follower.ScanBatch(ctx, kvstore.ScanRequest{
			Table: "t", MaxTS: 10, Batch: 100, AllowFollower: true,
		})
		return err == nil && len(resp.KVs) == 10
	})

	creg := obs.NewRegistry()
	cl := kvstore.NewClientTransport(
		kvstore.ClientConfig{ID: "reader", FollowerReads: true, Registry: creg},
		kvstore.NewLoopbackTransport(c.net, c.master, "reader"),
	)
	got, err := cl.Scan(ctx, "t", kv.KeyRange{}, 10, 0)
	if err != nil {
		t.Fatalf("follower-routed scan: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("scan returned %d rows, want 10", len(got))
	}
	if creg.Counter("client.follower_batches").Load() == 0 {
		t.Fatal("no batch served by a follower")
	}
	if c.regs[followerID].Counter("replica.follower_reads").Load() == 0 {
		t.Fatal("follower server recorded no follower reads")
	}

	// A snapshot past the follower's frontier falls back to the primary in
	// the same fill — the scan still succeeds, the fallback is counted.
	got, err = cl.Scan(ctx, "t", kv.KeyRange{}, 1001, 0)
	if err != nil {
		t.Fatalf("fallback scan: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("fallback scan returned %d rows, want 10", len(got))
	}
	if creg.Counter("client.follower_fallbacks").Load() == 0 {
		t.Fatal("behind-follower scan did not record a fallback")
	}
}

func TestFollowerLossRepairsGroup(t *testing.T) {
	c := newReplCluster(t, 3, 2)
	if err := c.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl := c.client("c1")
	ctx := context.Background()
	if err := cl.Flush(ctx, replWriteSet(1, "t", "a"), 0, false); err != nil {
		t.Fatal(err)
	}
	primaryID, _ := c.primaryOf("t", "a")
	// Find the follower server and kill it.
	var followerID string
	locs, err := c.master.LocateAll("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 1 || len(locs[0].Followers) != 1 {
		t.Fatalf("layout: %d locs, followers %v", len(locs), locs)
	}
	followerID = locs[0].Followers[0].ServerID
	c.srvs[followerID].Crash()

	// The master repairs the group onto the third server.
	waitFor(t, "follower group repaired", func() bool {
		locs, err := c.master.LocateAll("t")
		if err != nil || len(locs) != 1 || len(locs[0].Followers) != 1 {
			return false
		}
		f := locs[0].Followers[0]
		return f.ServerID != followerID && f.ServerID != primaryID
	})
	// Writes still ack (quorum over the repaired set) and replicate.
	if err := cl.Flush(ctx, replWriteSet(2, "t", "b"), 0, false); err != nil {
		t.Fatalf("flush after repair: %v", err)
	}
}

package kvstore_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txkv/internal/dfs"
	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/replica"
)

// openCounter is a RegionHost that counts the region copies the master
// offers it after its server has crashed.
type openCounter struct {
	*kvstore.RegionServer
	late *atomic.Int64
}

func (h openCounter) OpenRegion(info kvstore.RegionInfo, edits []kvstore.WALEntry, recovering bool) error {
	if h.Crashed() {
		h.late.Add(1)
	}
	return h.RegionServer.OpenRegion(info, edits, recovering)
}

func (h openCounter) OpenRegionFollower(info kvstore.RegionInfo, epoch uint64) error {
	if h.Crashed() {
		h.late.Add(1)
	}
	return h.RegionServer.OpenRegionFollower(info, epoch)
}

// directLink ships a region's stream to a follower server in-process.
type directLink struct{ s *kvstore.RegionServer }

func (l directLink) ServerID() string { return l.s.ID() }

func (l directLink) AppendEntries(regionID string, epoch uint64, entries []kvstore.ReplEntry, tipSeq uint64, safeTS kv.Timestamp) (uint64, error) {
	return l.s.AppendReplicated(regionID, epoch, entries, tipSeq, safeTS)
}

func (l directLink) Checkpoint(regionID string, epoch, seq uint64) error {
	return l.s.ApplyReplCheckpoint(regionID, epoch, seq)
}

func (l directLink) Close() {}

// TestSimultaneousFailuresRecoverTogether crashes several servers within
// one liveness check and adds replacements. The master must declare all of
// them dead before recovering any, so no region copy is offered to a
// crashed server, and must bring every region back with every acknowledged
// row. In the replicated case a region's primary and one of its followers
// crash together: the follower's group repair must not reinstate the dead
// primary over the promoted one, or the promoted primary's lease lapses and
// the region stops taking writes. In the straddled case the victims' last
// heartbeats lie gap apart, so consecutive checks declare them: while the
// first is recovered the second is dead but still counted alive, and no
// region may be offered to it either.
func TestSimultaneousFailuresRecoverTogether(t *testing.T) {
	for _, tc := range []struct {
		name           string
		servers, crash int
		rf             int
		gap            time.Duration
	}{
		{"2_of_3", 3, 2, 1, 0},
		{"3_of_3", 3, 3, 1, 0},
		{"rf3_2_of_4", 4, 2, 3, 0},
		{"2_of_3_straddled", 3, 2, 1, 60 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testSimultaneousFailures(t, tc.servers, tc.crash, tc.rf, tc.gap)
		})
	}
}

func testSimultaneousFailures(t *testing.T, nServers, crash, rf int, gap time.Duration) {
	fs := dfs.New(dfs.Config{Replication: 2, DataNodes: 4})
	master := kvstore.NewMaster(kvstore.MasterConfig{
		HeartbeatTimeout:  150 * time.Millisecond,
		CheckInterval:     20 * time.Millisecond,
		ReplicationFactor: rf,
	}, fs)
	master.Start()

	// The test beats for the servers itself, so it decides when each
	// falls silent.
	var (
		late    atomic.Int64
		mu      sync.Mutex
		live    = map[string]bool{}
		byID    = map[string]*kvstore.RegionServer{}
		servers []*kvstore.RegionServer
		ships   []*replica.Shipper
	)
	dial := func(target kvstore.ReplicaTarget) (kvstore.FollowerLink, error) {
		mu.Lock()
		defer mu.Unlock()
		s, ok := byID[target.ServerID]
		if !ok {
			return nil, fmt.Errorf("no such server %s", target.ServerID)
		}
		return directLink{s}, nil
	}
	add := func(id string) {
		t.Helper()
		srv := kvstore.NewRegionServer(kvstore.ServerConfig{
			ID:                id,
			SyncWrites:        true,
			HeartbeatInterval: time.Hour,
		}, fs)
		if rf > 1 {
			sh := replica.NewShipper(replica.Config{ServerID: id, Dial: dial})
			srv.SetReplicator(sh)
			ships = append(ships, sh)
		}
		if err := srv.Start(master); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		byID[id] = srv
		mu.Unlock()
		if err := master.AddServerHost(openCounter{srv, &late}, ""); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		live[id] = true
		servers = append(servers, srv)
		mu.Unlock()
	}
	stopBeats := make(chan struct{})
	var beats sync.WaitGroup
	beats.Add(1)
	go func() {
		defer beats.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopBeats:
				return
			case <-tick.C:
				mu.Lock()
				for id := range live {
					_, _ = master.Heartbeat(id, 0)
				}
				mu.Unlock()
			}
		}
	}()
	t.Cleanup(func() {
		close(stopBeats)
		beats.Wait()
		master.Stop()
		for _, s := range servers {
			if !s.Crashed() {
				s.Stop()
			}
		}
		for _, sh := range ships {
			sh.Close()
		}
	})
	for i := 0; i < nServers; i++ {
		add(fmt.Sprintf("s%d", i))
	}
	if err := master.CreateTable("t", []kv.Key{"b", "d", "f", "h", "k"}); err != nil {
		t.Fatal(err)
	}
	// Every write is synced (and, replicated, quorum-acknowledged) before
	// it returns, so every row written is acknowledged.
	const rows = 60
	row := func(i int) kv.Key { return kv.Key(fmt.Sprintf("%c%02d", 'a'+i%12, i)) }
	write := func(i int) error {
		ws := kv.WriteSet{TxnID: uint64(i + 1), ClientID: "c", CommitTS: kv.Timestamp(i + 1), Updates: []kv.Update{
			{Table: "t", Row: row(i), Column: "f", Value: []byte(fmt.Sprint(i))},
		}}
		_, host, err := master.Locate("t", row(i))
		if err != nil {
			return err
		}
		return host.ApplyWriteSet(ws, 0, false)
	}
	for i := 0; i < rows; i++ {
		if err := write(i); err != nil {
			t.Fatal(err)
		}
	}

	// Stop beating for the victims and give them their last-heartbeat
	// instants, gap apart and the last one now: with gap 0 a single
	// liveness check finds them all silent.
	mu.Lock()
	now := time.Now()
	for i := 0; i < crash; i++ {
		delete(live, servers[i].ID())
		servers[i].Crash()
		master.SetLastHeartbeat(now.Add(-time.Duration(crash-1-i)*gap), servers[i].ID())
	}
	mu.Unlock()
	for i := 0; i < crash; i++ {
		add(fmt.Sprintf("r%d", i))
	}

	deadline := time.Now().Add(10 * time.Second)
	for master.FailoverStats().Failovers < int64(crash) {
		if time.Now().After(deadline) {
			t.Fatalf("failovers = %d, want %d", master.FailoverStats().Failovers, crash)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if locs, err := master.LocateAll("t"); err != nil || len(locs) != 6 {
		t.Fatalf("%d of 6 regions online (%v)", len(locs), err)
	}
	for i := 0; i < rows; i++ {
		_, host, err := master.Locate("t", row(i))
		if err != nil {
			t.Fatal(err)
		}
		got, ok, err := host.(openCounter).Get("t", row(i), "f", kv.MaxTimestamp)
		if err != nil || !ok || string(got.Value) != fmt.Sprint(i) {
			t.Fatalf("row %s = %q ok=%v err=%v, want %d", row(i), got.Value, ok, err, i)
		}
	}
	if n := master.FailoverStats().Failovers; n != int64(crash) {
		t.Fatalf("failovers = %d, want %d", n, crash)
	}
	if n := late.Load(); n != 0 {
		t.Fatalf("%d region copies offered to crashed servers", n)
	}

	// Outlive every lease granted during recovery: a primary the master
	// stopped renewing now refuses writes.
	time.Sleep(3 * 150 * time.Millisecond)
	for i := 0; i < 12; i++ { // one row per letter reaches every region
		if err := write(rows + i); err != nil {
			t.Fatalf("write of %s after recovery: %v", row(rows+i), err)
		}
	}
}

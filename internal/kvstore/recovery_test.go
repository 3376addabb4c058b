package kvstore_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"txkv/internal/dfs"
	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/obs"
	"txkv/internal/replica"
	"txkv/internal/rpc"
)

// hostShape names how the master reaches its region servers: "local" hosts
// are *RegionServer values in the master's process; "remote" hosts are
// region nodes behind rpc.HostProxy on loopback TCP.
var hostShapes = []string{"local", "remote"}

// hostCluster is a master with region servers of one shape. Every server
// runs in the test process, so the test reads its state directly whatever
// the shape.
type hostCluster struct {
	t      *testing.T
	remote bool
	fs     dfs.FileSystem
	master *kvstore.Master
	addr   string // master rpc address (remote shape)

	mu    sync.Mutex
	srvs  map[string]*kvstore.RegionServer
	ships map[string]*replica.Shipper
	kills map[string]func()
	regs  []*obs.Registry
}

func newHostCluster(t *testing.T, shape string, rf int, servers ...string) *hostCluster {
	t.Helper()
	fs := dfs.New(dfs.Config{Replication: 2, DataNodes: 3})
	master := kvstore.NewMaster(kvstore.MasterConfig{
		HeartbeatTimeout:  time.Second, // the test declares failures itself
		CheckInterval:     20 * time.Millisecond,
		ReplicationFactor: rf,
	}, fs)
	master.Start()
	c := &hostCluster{
		t: t, remote: shape == "remote", fs: fs, master: master,
		srvs:  map[string]*kvstore.RegionServer{},
		ships: map[string]*replica.Shipper{},
		kills: map[string]func(){},
	}
	if c.remote {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		pool := rpc.NewPool(nil)
		srv := rpc.NewServer(nil)
		rpc.RegisterMasterService(srv, master, pool)
		rpc.RegisterDFSService(srv, fs)
		go func() { _ = srv.Serve(ln) }()
		c.addr = ln.Addr().String()
		t.Cleanup(func() {
			srv.Close()
			pool.Close()
		})
	}
	t.Cleanup(func() {
		master.Stop()
		c.mu.Lock()
		defer c.mu.Unlock()
		for id, kill := range c.kills {
			if !c.srvs[id].Crashed() {
				kill()
			}
		}
	})
	for _, id := range servers {
		c.add(id)
	}
	return c
}

// add starts region server id and registers it with the master.
func (c *hostCluster) add(id string) {
	c.t.Helper()
	scfg := kvstore.ServerConfig{SyncWrites: true, HeartbeatInterval: 20 * time.Millisecond}
	var (
		srv  *kvstore.RegionServer
		ship *replica.Shipper
		kill func()
	)
	if c.remote {
		reg := obs.NewRegistry()
		node, err := rpc.StartRegionNode(rpc.RegionNodeConfig{ID: id, MasterAddr: c.addr, Registry: reg, Server: scfg})
		if err != nil {
			c.t.Fatal(err)
		}
		srv, ship, kill = node.Server(), node.Shipper(), node.Kill
		c.mu.Lock()
		c.regs = append(c.regs, reg)
		c.mu.Unlock()
	} else {
		scfg.ID = id
		srv = kvstore.NewRegionServer(scfg, c.fs)
		ship = replica.NewShipper(replica.Config{ServerID: id, Dial: func(t kvstore.ReplicaTarget) (kvstore.FollowerLink, error) {
			c.mu.Lock()
			defer c.mu.Unlock()
			s, ok := c.srvs[t.ServerID]
			if !ok {
				return nil, fmt.Errorf("no such server %s", t.ServerID)
			}
			return directLink{s}, nil
		}})
		srv.SetReplicator(ship)
		kill = func() {
			srv.Crash()
			ship.Close()
		}
	}
	c.mu.Lock()
	c.srvs[id], c.ships[id], c.kills[id] = srv, ship, kill
	c.mu.Unlock()
	if !c.remote {
		if err := c.master.AddServer(srv); err != nil {
			c.t.Fatal(err)
		}
	}
}

func (c *hostCluster) server(id string) *kvstore.RegionServer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.srvs[id]
}

// crash kills server id and waits until the master has recovered its
// regions.
func (c *hostCluster) crash(id string) {
	c.t.Helper()
	before := c.master.FailoverStats().Failovers
	c.mu.Lock()
	kill := c.kills[id]
	c.mu.Unlock()
	kill()
	c.master.FailServer(id)
	c.waitFor("failover of "+id, func() bool { return c.master.FailoverStats().Failovers > before })
}

func (c *hostCluster) waitFor(what string, cond func() bool) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			c.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// write applies one synced (and, replicated, quorum-acknowledged) row
// through the region's current host.
func (c *hostCluster) write(row kv.Key, ts kv.Timestamp) error {
	ws := kv.WriteSet{TxnID: uint64(ts), ClientID: "c", CommitTS: ts, Updates: []kv.Update{
		{Table: "t", Row: row, Column: "f", Value: []byte(row)},
	}}
	_, host, err := c.master.Locate("t", row)
	if err != nil {
		return err
	}
	return host.ApplyWriteSet(ws, 0, false)
}

// mustRead checks that row reads back from the region's current host, and
// returns that host's ID.
func (c *hostCluster) mustRead(row kv.Key) string {
	c.t.Helper()
	_, host, err := c.master.Locate("t", row)
	if err != nil {
		c.t.Fatal(err)
	}
	got, ok, err := c.server(host.ID()).Get("t", row, "f", kv.MaxTimestamp)
	if err != nil || !ok || string(got.Value) != string(row) {
		c.t.Fatalf("row %s on %s = %q ok=%v err=%v", row, host.ID(), got.Value, ok, err)
	}
	return host.ID()
}

// requests sums one rpc method's requests over every region node.
func (c *hostCluster) requests(method string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, reg := range c.regs {
		n += reg.Snapshot().Counters["rpc.server.req."+method]
	}
	return n
}

// badHostGate is a recovery gate that fails every region recovery on the
// first host it runs on, and lets every other one through.
type badHostGate struct {
	mu    sync.Mutex
	bad   string
	calls []string
}

var errGateInjected = errors.New("injected gate failure")

func (g *badHostGate) RecoverRegion(_ kvstore.RegionInfo, _ string, host kvstore.RegionHost) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.bad == "" {
		g.bad = host.ID()
	}
	g.calls = append(g.calls, host.ID())
	if host.ID() == g.bad {
		return errGateInjected
	}
	return nil
}

// passGate is a recovery gate with nothing to replay.
type passGate struct{}

func (passGate) RecoverRegion(kvstore.RegionInfo, string, kvstore.RegionHost) error { return nil }

// TestRecoveryGateFailure: the master runs the same recovery sequence on
// both host shapes. A recovery gate that fails closes the copy it ran on:
// a reassigned region is then opened and gated on another server, and a
// promoted follower is closed, its shipper drops the region, and the
// region falls back to WAL-split reassignment. Either way the region ends
// online elsewhere with every acknowledged row and takes writes again.
func TestRecoveryGateFailure(t *testing.T) {
	for _, shape := range hostShapes {
		for _, tc := range []struct {
			name string
			rf   int
		}{{"reassign", 1}, {"promote", 2}} {
			t.Run(shape+"/"+tc.name, func(t *testing.T) {
				c := newHostCluster(t, shape, tc.rf, "s0", "s1", "s2")
				gate := &badHostGate{}
				c.master.SetRecoveryGate(gate)
				if err := c.master.CreateTable("t", nil); err != nil {
					t.Fatal(err)
				}
				rows := []kv.Key{"a", "b", "c"}
				for i, row := range rows {
					if err := c.write(row, kv.Timestamp(i+1)); err != nil {
						t.Fatal(err)
					}
				}
				primary := c.mustRead("a")
				c.crash(primary)

				gate.mu.Lock()
				bad, calls := gate.bad, append([]string(nil), gate.calls...)
				gate.mu.Unlock()
				if bad == "" || bad == primary {
					t.Fatalf("gate ran on %v", calls)
				}
				st := c.master.FailoverStats()
				if st.RegionsPromoted != 0 || st.RegionsSplit != 1 {
					t.Fatalf("promoted %d, split %d regions; want 0 and 1", st.RegionsPromoted, st.RegionsSplit)
				}
				for _, row := range rows {
					if host := c.mustRead(row); host == bad {
						t.Fatalf("region online on %s, whose gate failed", bad)
					}
				}
				// The copy the gate failed on is closed: no serving or
				// recovering primary copy is left there, and with it no
				// shipping state. The WAL-split primary may since have
				// placed a fresh follower copy on the same server.
				for _, st := range c.server(bad).ReplicaStates() {
					if st.Role != kvstore.RoleFollower {
						t.Fatalf("%s still hosts %+v after its gate failed", bad, st)
					}
				}
				if tc.rf > 1 {
					if calls[0] != bad {
						t.Fatalf("first gate ran on %s, not on the promoted follower %s", calls[0], bad)
					}
					if seq := c.ships[bad].LastSeq("t-r000"); seq != 0 {
						t.Fatalf("shipper on %s kept the region at seq %d", bad, seq)
					}
				}
				if err := c.write("d", 10); err != nil {
					t.Fatalf("write after recovery: %v", err)
				}
			})
		}
	}
}

// TestRecoveryWireSequence counts the region-node requests of each master
// operation. Creating, restoring, splitting and moving regions opens each
// copy serving in one ROpenRegion, with no RMarkOnline; recovering one
// opens it recovering (ROpenRegion after a log split, RPromote from a
// follower), and one RMarkOnline after the gate puts it online.
func TestRecoveryWireSequence(t *testing.T) {
	c := newHostCluster(t, "remote", 2, "s0", "s1", "s2")
	c.master.SetRecoveryGate(passGate{})
	expect := func(what string, step func() error, open, promote, online int64) {
		t.Helper()
		o, p, m := c.requests("r.open_region"), c.requests("r.promote"), c.requests("r.mark_online")
		if err := step(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		o, p, m = c.requests("r.open_region")-o, c.requests("r.promote")-p, c.requests("r.mark_online")-m
		if o != open || p != promote || m != online {
			t.Fatalf("%s sent %d ROpenRegion, %d RPromote, %d RMarkOnline; want %d, %d, %d", what, o, p, m, open, promote, online)
		}
	}
	expect("create", func() error { return c.master.CreateTable("t", []kv.Key{"g", "p"}) }, 3, 0, 0)
	expect("restore", func() error {
		return c.master.RestoreTable("u", []kvstore.RegionInfo{
			{ID: "u-r000", Table: "u", Range: kv.KeyRange{End: "m"}},
			{ID: "u-r001", Table: "u", Range: kv.KeyRange{Start: "m"}},
		}, nil)
	}, 2, 0, 0)
	expect("split", func() error { return c.master.SplitRegion("t-r000", "c") }, 2, 0, 0)
	for i, row := range []kv.Key{"a", "d", "h", "q"} {
		if err := c.write(row, kv.Timestamp(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	_, host, err := c.master.Locate("t", "h")
	if err != nil {
		t.Fatal(err)
	}
	target := "s0"
	if host.ID() == target {
		target = "s1"
	}
	expect("move", func() error { return c.master.MoveRegion("t-r001", target) }, 1, 0, 0)

	// Every region of the crashed server comes back through exactly one
	// ROpenRegion or RPromote and one RMarkOnline.
	victim := c.mustRead("q")
	var hosted int64
	for _, st := range c.server(victim).ReplicaStates() {
		if st.Role != kvstore.RoleFollower {
			hosted++
		}
	}
	o, p, m := c.requests("r.open_region"), c.requests("r.promote"), c.requests("r.mark_online")
	c.crash(victim)
	o, p, m = c.requests("r.open_region")-o, c.requests("r.promote")-p, c.requests("r.mark_online")-m
	if o+p != hosted || m != hosted {
		t.Fatalf("recovering %d regions sent %d ROpenRegion, %d RPromote, %d RMarkOnline", hosted, o, p, m)
	}
	for _, row := range []kv.Key{"a", "d", "h", "q"} {
		c.mustRead(row)
	}
}

// TestJoinRefillsReplicaGroups: a server that joins after a failure takes
// follower copies of the groups the failure left short, so every region is
// back at the replication factor without waiting for another failure.
func TestJoinRefillsReplicaGroups(t *testing.T) {
	for _, shape := range hostShapes {
		t.Run(shape, func(t *testing.T) {
			c := newHostCluster(t, shape, 3, "s0", "s1", "s2")
			if err := c.master.CreateTable("t", []kv.Key{"g", "p"}); err != nil {
				t.Fatal(err)
			}
			for i, row := range []kv.Key{"a", "h", "q"} {
				if err := c.write(row, kv.Timestamp(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			c.crash("s1")
			c.add("s3")
			c.waitFor("every group back at 3 copies", func() bool {
				locs, err := c.master.LocateAll("t")
				if err != nil || len(locs) != 3 {
					return false
				}
				for _, loc := range locs {
					if len(loc.Followers) != 2 {
						return false
					}
				}
				return true
			})
			followers := 0
			for _, st := range c.server("s3").ReplicaStates() {
				if st.Role == kvstore.RoleFollower {
					followers++
				}
			}
			if followers != 3 {
				t.Fatalf("joined server hosts %d follower copies, want 3", followers)
			}
			for i, row := range []kv.Key{"b", "i", "r"} {
				if err := c.write(row, kv.Timestamp(10+i)); err != nil {
					t.Fatalf("write after refill: %v", err)
				}
			}
		})
	}
}

// TestRollWALKeepsFollowerTail: a follower copy journals the replicated
// stream in its own WAL, and the entries above its last checkpoint are in
// no store file. A roll on the follower must carry them into the fresh
// generation before it deletes the old ones: otherwise, once the follower
// is promoted and then crashes too, the log split of its WAL misses them.
func TestRollWALKeepsFollowerTail(t *testing.T) {
	c := newHostCluster(t, "local", 2, "s0", "s1")
	if err := c.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	rows := []kv.Key{"a", "b", "c"}
	for i, row := range rows {
		if err := c.write(row, kv.Timestamp(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	primary := c.mustRead("a")
	follower := "s1"
	if primary == follower {
		follower = "s0"
	}
	if err := c.server(follower).RollWAL(); err != nil {
		t.Fatal(err)
	}
	c.crash(primary) // promotes the follower
	if host := c.mustRead("a"); host != follower {
		t.Fatalf("region on %s after the crash, want the promoted %s", host, follower)
	}

	// Crash the promoted copy with no live server left, so its region can
	// only come back from the log split, and only then add one.
	c.mu.Lock()
	kill := c.kills[follower]
	c.mu.Unlock()
	kill()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.master.FailServer(follower)
	}()
	c.waitFor(follower+" declared dead", func() bool { return len(c.master.LiveServers()) == 0 })
	c.add("s2")
	<-done
	for _, row := range rows {
		c.mustRead(row)
	}
}

package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/obs"
	"txkv/internal/rpc"
)

// TestRegionNodeReportsStoreFamilies: a region-node process started with a
// registry reports its region server's, store files' and shipper's
// counters, not only rpc ones.
func TestRegionNodeReportsStoreFamilies(t *testing.T) {
	c, err := New(Config{
		Servers:                -1,
		ReplicationFactor:      3,
		HeartbeatInterval:      100 * time.Millisecond,
		MasterHeartbeatTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	addr, err := c.ServeRPC("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		nodes []*rpc.RegionNode
		regs  []*obs.Registry
	)
	for i := 0; i < 3; i++ {
		reg := obs.NewRegistry()
		node, err := rpc.StartRegionNode(rpc.RegionNodeConfig{
			ID:         fmt.Sprintf("rs%d", i+1),
			MasterAddr: addr,
			Registry:   reg,
			Server:     kvstore.ServerConfig{HeartbeatInterval: 100 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		nodes, regs = append(nodes, node), append(regs, reg)
	}
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	remote, err := ConnectRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	cl, err := remote.NewClient("writer")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	ctx := context.Background()
	const rows = 20
	key := func(i int) kv.Key { return kv.Key(fmt.Sprintf("row-%02d", i)) }
	for i := 0; i < rows; i++ {
		if _, err := cl.Update(ctx, func(txn *Txn) error {
			return txn.Put(ctx, "t", key(i), "v", []byte("x"))
		}); err != nil {
			t.Fatalf("remote commit %d: %v", i, err)
		}
	}
	// Store files carry bloom filters: flush, then read back.
	for _, n := range nodes {
		if err := n.Server().FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.View(ctx, func(txn *Txn) error {
		for i := 0; i < rows; i++ {
			if _, ok, err := txn.Get(ctx, "t", key(i), "v"); err != nil || !ok {
				return fmt.Errorf("row %d: found=%v err=%v", i, ok, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	total := map[string]int64{}
	for _, reg := range regs {
		for name, v := range reg.Snapshot().Counters {
			total[name] += v
		}
	}
	for _, name := range []string{"server.applied_writesets", "bloom.probes_total", "replica.shipped_batches"} {
		if total[name] <= 0 {
			t.Errorf("region nodes report %s = %d, want > 0", name, total[name])
		}
	}
}

// TestCountersSurviveServerReplacement: a crashed server's counts stay in
// the cluster's totals after the server is replaced, because every
// incarnation records into the one registry.
func TestCountersSurviveServerReplacement(t *testing.T) {
	cfg := fastConfig(3)
	cfg.ReplicationFactor = 2
	c := newCluster(t, cfg)
	if err := c.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient("c1")
	if err != nil {
		t.Fatal(err)
	}
	load := func(round int) {
		t.Helper()
		for i := 0; i < 20; i++ {
			row := kv.Key(fmt.Sprintf("row-%02d", i))
			if _, err := cl.Update(bgctx, func(txn *Txn) error {
				return txn.Put(bgctx, "t", row, "f", []byte(fmt.Sprintf("v%d", round)))
			}); err != nil {
				t.Fatalf("round %d commit %s: %v", round, row, err)
			}
		}
		if err := c.WaitFlushed(c.TM().LastIssued(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		flushAllServers(t, c)
		for pass := 0; pass < 2; pass++ { // the second pass hits the block cache
			txn := beginLatest(t, cl)
			for i := 0; i < 20; i++ {
				if _, _, err := txn.Get(bgctx, "t", kv.Key(fmt.Sprintf("row-%02d", i)), "f"); err != nil {
					t.Fatal(err)
				}
			}
			txn.Abort()
		}
	}
	load(0)
	before := c.Obs().Snapshot()
	for _, name := range []string{"blockcache.hits", "replica.shipped_batches"} {
		if before.Counters[name] == 0 {
			t.Fatalf("%s = 0 before the crash", name)
		}
	}

	victim := primaryOf(t, c, "t", "row-00")
	failovers := c.master.FailoverStats().Failovers
	if err := c.CrashServer(victim); err != nil {
		t.Fatal(err)
	}
	c.master.FailServer(victim)
	for deadline := time.Now().Add(10 * time.Second); c.master.FailoverStats().Failovers == failovers; {
		if time.Now().After(deadline) {
			t.Fatal("failover did not complete")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.AddServer(); err != nil {
		t.Fatal(err)
	}
	load(1)

	after := c.Obs().Snapshot()
	if bad := obs.CheckInvariants(before, after); len(bad) > 0 {
		t.Fatalf("invariants across crash and replacement: %v", bad)
	}
	for _, name := range []string{"blockcache.hits", "replica.shipped_batches"} {
		if after.Counters[name] < before.Counters[name] {
			t.Fatalf("%s fell from %d to %d", name, before.Counters[name], after.Counters[name])
		}
	}
}

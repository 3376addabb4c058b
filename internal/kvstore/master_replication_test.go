package kvstore

import (
	"testing"

	"txkv/internal/dfs"
)

// TestStaleGroupRepairKeepsPrimary: a follower-loss repair computed while a
// region's old primary still stood must not reinstate it once the region
// has moved on. With a primary and its follower failing together, the
// follower's repair can run after the primary's promotion; reinstating the
// dead primary stopped the promoted one's lease renewals.
func TestStaleGroupRepairKeepsPrimary(t *testing.T) {
	fs := dfs.New(dfs.Config{Replication: 1, DataNodes: 1})
	m := NewMaster(MasterConfig{ReplicationFactor: 2}, fs)
	for _, id := range []string{"a", "b", "c"} {
		if err := m.AddServerHost(NewRegionServer(ServerConfig{ID: id}, fs), ""); err != nil {
			t.Fatal(err)
		}
	}
	info := RegionInfo{ID: "t-r000", Table: "t"}
	m.tables["t"] = []RegionInfo{info}
	m.assign[info.ID] = "c"
	m.replicas[info.ID] = &replicaSet{epoch: 7, primary: "c"}
	m.servers["a"].alive = false

	m.ensureReplicated(info, "a", false) // old primary, since failed
	m.ensureReplicated(info, "a", true)  // a dead server never becomes primary
	m.ensureReplicated(info, "b", false) // a live server that is not the primary
	if rs := m.replicas[info.ID]; rs.primary != "c" || rs.epoch != 7 {
		t.Fatalf("group = primary %q epoch %d, want primary c epoch 7", rs.primary, rs.epoch)
	}
}

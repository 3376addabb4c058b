package kvstore

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"txkv/internal/dfs"
	"txkv/internal/kv"
)

// TestWALSplitProperty drives random write-sets at a server across random
// sync points, crashes it, and verifies the master's WAL split recovers
// exactly the synced entries, grouped by the right region.
func TestWALSplitProperty(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := dfs.New(dfs.Config{})
		srv := NewRegionServer(ServerConfig{
			ID:              "split-test",
			WALSyncInterval: 0, // the default 50ms syncer runs too; its extra syncs only recover more
		}, fs)
		master := NewMaster(MasterConfig{HeartbeatTimeout: time.Hour}, fs)
		master.Start()
		defer master.Stop()
		if err := master.AddServer(srv); err != nil {
			return false
		}
		defer func() {
			if !srv.Crashed() {
				srv.Stop()
			}
		}()
		// Two regions on the one server.
		if err := master.CreateTable("t", []kv.Key{"m"}); err != nil {
			return false
		}

		type applied struct {
			row    string
			ts     kv.Timestamp
			synced bool
		}
		var history []applied
		syncedUpTo := -1
		n := int(nOps%40) + 1
		for i := 0; i < n; i++ {
			row := fmt.Sprintf("%c%02d", 'a'+byte(rng.Intn(26)), rng.Intn(20))
			ts := kv.Timestamp(i + 1)
			ws := kv.WriteSet{TxnID: uint64(i), ClientID: "c", CommitTS: ts, Updates: []kv.Update{
				{Table: "t", Row: kv.Key(row), Column: "f", Value: []byte(fmt.Sprintf("v%d", ts))},
			}}
			if err := srv.ApplyWriteSet(ws, 0, false); err != nil {
				return false
			}
			history = append(history, applied{row: row, ts: ts})
			if rng.Intn(4) == 0 {
				if err := srv.SyncWAL(); err != nil {
					return false
				}
				syncedUpTo = len(history) - 1
			}
		}
		for i := 0; i <= syncedUpTo; i++ {
			history[i].synced = true
		}
		srv.Crash()

		// Split the WAL as the master would.
		edits := master.splitWAL("split-test")
		got := make(map[string]kv.Timestamp) // row -> max recovered ts
		for regionID, entries := range edits {
			for _, e := range entries {
				for _, x := range e.KVs {
					// Region grouping must be correct.
					wantRegion := "t-r000"
					if x.Row >= "m" {
						wantRegion = "t-r001"
					}
					if regionID != wantRegion {
						return false
					}
					if cur, ok := got[string(x.Row)]; !ok || x.TS > cur {
						got[string(x.Row)] = x.TS
					}
				}
			}
		}
		// Every synced entry must be recovered; no unsynced entry may be.
		want := make(map[string]kv.Timestamp)
		for _, a := range history {
			if a.synced && a.ts > want[a.row] {
				want[a.row] = a.ts
			}
		}
		for row, ts := range want {
			if got[row] < ts {
				return false // synced data lost
			}
		}
		for row, ts := range got {
			// Anything recovered must have been applied (no fabrication)
			// and at most the highest synced ts for that row... an
			// unsynced entry can never appear because sync boundaries are
			// chunk boundaries.
			okRow := false
			var maxApplied kv.Timestamp
			for _, a := range history {
				if a.row == row {
					okRow = true
					if a.synced && a.ts > maxApplied {
						maxApplied = a.ts
					}
				}
			}
			if !okRow || ts > maxApplied {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

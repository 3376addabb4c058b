package kvstore

import (
	"context"
	"fmt"
	"testing"

	"txkv/internal/kv"
	"txkv/internal/obs"
)

// TestLayoutCacheScanMasterLookups proves the range-aware layout cache: a
// scan crossing every region of a multi-region table costs exactly one
// master lookup (the initial whole-table layout fetch), not one per region
// transition.
func TestLayoutCacheScanMasterLookups(t *testing.T) {
	ts := newTestStore(t, 3, false)
	if err := ts.master.CreateTable("t", []kv.Key{"d", "h", "l", "p", "t"}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := NewClient(ClientConfig{ID: "c1", Registry: reg}, ts.net, ts.master)
	ctx := context.Background()

	rows := []string{"a", "e", "i", "m", "q", "u"} // one row per region
	for i, r := range rows {
		if err := c.Flush(ctx, writeSet("c1", kv.Timestamp(10+i), "t", r), 0, false); err != nil {
			t.Fatal(err)
		}
	}

	sc := c.NewScanner(ctx, "t", kv.KeyRange{}, kv.MaxTimestamp, ScanOptions{Batch: 2})
	n := 0
	for sc.Next() {
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(rows) {
		t.Fatalf("scan returned %d rows, want %d", n, len(rows))
	}

	lookups, hits := reg.Counter("client.master_lookups"), reg.Counter("client.layout_hits")
	if lookups.Load() != 1 {
		t.Fatalf("scan across 6 regions cost %d master lookups, want 1 (layout cache)", lookups.Load())
	}
	if hits.Load() < int64(len(rows)) {
		t.Fatalf("layout hits = %d, want >= %d", hits.Load(), len(rows))
	}

	// Point reads across regions stay local too.
	for _, r := range rows {
		if _, found, err := c.Get(ctx, "t", kv.Key(r), "f", kv.MaxTimestamp); err != nil || !found {
			t.Fatalf("get %s: %v found=%v", r, err, found)
		}
	}
	if got := lookups.Load(); got != 1 {
		t.Fatalf("point reads after scan cost %d master lookups, want 1", got)
	}
}

// TestLayoutCacheInvalidatePerRegion checks that invalidating one region
// keeps the rest of the table's cached layout usable.
func TestLayoutCacheInvalidatePerRegion(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", []kv.Key{"m"}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := NewClient(ClientConfig{ID: "c1", Registry: reg}, ts.net, ts.master)
	lookups := reg.Counter("client.master_lookups")
	ctx := context.Background()
	if err := c.Flush(ctx, writeSet("c1", 10, "t", "a", "z"), 0, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(ctx, "t", "a", "f", kv.MaxTimestamp); err != nil {
		t.Fatal(err)
	}
	base := lookups.Load()

	// Drop the first region from the layout: a read in the second region
	// must not refresh.
	var firstID string
	regions, err := ts.master.TableRegions("t")
	if err != nil {
		t.Fatal(err)
	}
	firstID = regions[0].ID
	c.invalidate("t", firstID)
	if _, _, err := c.Get(ctx, "t", "z", "f", kv.MaxTimestamp); err != nil {
		t.Fatal(err)
	}
	if got := lookups.Load(); got != base {
		t.Fatalf("read in intact region refreshed the layout (%d -> %d lookups)", base, got)
	}
	// A read in the dropped region refreshes exactly once.
	if _, _, err := c.Get(ctx, "t", "a", "f", kv.MaxTimestamp); err != nil {
		t.Fatal(err)
	}
	if got := lookups.Load(); got != base+1 {
		t.Fatalf("read in dropped region cost %d extra lookups, want 1", got-base)
	}
}

// TestRangeCoordsKeysOnly checks the DeleteRange push-down: RangeCoords
// sweeps live coordinates (tombstones elided, newest-version dedup) without
// shipping value bytes.
func TestRangeCoordsKeysOnly(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", []kv.Key{"m"}); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()

	ws := kv.WriteSet{TxnID: 1, ClientID: "c1", CommitTS: 10}
	for _, r := range []string{"a", "b", "n", "z"} {
		ws.Updates = append(ws.Updates, kv.Update{Table: "t", Row: kv.Key(r), Column: "f", Value: []byte("payload-" + r)})
	}
	if err := c.Flush(ctx, ws, 0, false); err != nil {
		t.Fatal(err)
	}
	// Tombstone one row at a later version: it must not appear in the sweep.
	del := kv.WriteSet{TxnID: 2, ClientID: "c1", CommitTS: 20, Updates: []kv.Update{
		{Table: "t", Row: "b", Column: "f", Tombstone: true},
	}}
	if err := c.Flush(ctx, del, 0, false); err != nil {
		t.Fatal(err)
	}

	coords, err := c.RangeCoords(ctx, "t", kv.KeyRange{}, kv.MaxTimestamp)
	if err != nil {
		t.Fatal(err)
	}
	want := []kv.CellKey{{Row: "a", Column: "f"}, {Row: "n", Column: "f"}, {Row: "z", Column: "f"}}
	if fmt.Sprint(coords) != fmt.Sprint(want) {
		t.Fatalf("coords = %v, want %v", coords, want)
	}

	// The keys-only scan itself must carry no value bytes.
	sc := c.NewScanner(ctx, "t", kv.KeyRange{}, kv.MaxTimestamp, ScanOptions{Batch: -1, KeysOnly: true})
	for sc.Next() {
		if sc.KV().Value != nil {
			t.Fatalf("keys-only scan shipped value bytes for %s", sc.KV().Row)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

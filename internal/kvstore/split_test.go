package kvstore

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"txkv/internal/kv"
)

func TestSplitRegionPreservesData(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		ws := writeSet("c1", kv.Timestamp(i+1), "t", fmt.Sprintf("row%03d", i))
		if err := c.Flush(ctx, ws, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	parent, _, err := ts.master.Locate("t", "row000")
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.master.SplitRegion(parent.ID, "row020"); err != nil {
		t.Fatal(err)
	}
	// Two regions now; ranges partition the key space at the split key.
	regions, err := ts.master.TableRegions("t")
	if err != nil || len(regions) != 2 {
		t.Fatalf("regions after split: %v %v", regions, err)
	}
	if regions[0].Range.End != "row020" || regions[1].Range.Start != "row020" {
		t.Fatalf("split ranges: %v", regions)
	}
	// Every row readable from the daughters (via reference files).
	for i := 0; i < 40; i++ {
		row := fmt.Sprintf("row%03d", i)
		got, found, err := c.Get(ctx, "t", kv.Key(row), "f", kv.MaxTimestamp)
		if err != nil || !found {
			t.Fatalf("row %s lost in split: %v %v", row, found, err)
		}
		want := fmt.Sprintf("v%d-%s", i+1, row)
		if string(got.Value) != want {
			t.Fatalf("row %s = %q, want %q", row, got.Value, want)
		}
	}
	// Writes to both daughters work.
	for _, row := range []string{"row005", "row035"} {
		if err := c.Flush(ctx, writeSet("c1", 100, "t", row), 0, false); err != nil {
			t.Fatalf("post-split write to %s: %v", row, err)
		}
	}
	// Scans stitch both daughters.
	all, err := c.Scan(ctx, "t", kv.KeyRange{}, kv.MaxTimestamp, 0)
	if err != nil || len(all) != 40 {
		t.Fatalf("post-split scan: %d %v", len(all), err)
	}
}

func TestSplitRegionErrors(t *testing.T) {
	ts := newTestStore(t, 1, false)
	if err := ts.master.CreateTable("t", []kv.Key{"m"}); err != nil {
		t.Fatal(err)
	}
	info, _, err := ts.master.Locate("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.master.SplitRegion("missing", "x"); !errors.Is(err, ErrRegionNotServing) {
		t.Fatalf("unknown region: %v", err)
	}
	// Split key outside the region's range.
	if err := ts.master.SplitRegion(info.ID, "zzz"); err == nil {
		t.Fatal("split key outside range accepted")
	}
	// Split at the region's own start key is degenerate.
	if err := ts.master.SplitRegion(info.ID, info.Range.Start); err == nil {
		t.Fatal("split at start key accepted")
	}
}

func TestSplitThenCompactLocalizesDaughters(t *testing.T) {
	ts := newTestStore(t, 1, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		ws := writeSet("c1", kv.Timestamp(i+1), "t", fmt.Sprintf("row%03d", i))
		if err := c.Flush(ctx, ws, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	parent, _, err := ts.master.Locate("t", "row000")
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.master.SplitRegion(parent.ID, "row015"); err != nil {
		t.Fatal(err)
	}
	// Compact each daughter: data is rewritten locally and the reference
	// files are dropped.
	for _, row := range []string{"row000", "row020"} {
		host := hostFor(t, ts, "t", string(row))
		for _, r := range host.hostedRegions(false) {
			if err := r.Compact(0, 0); err != nil {
				t.Fatalf("compact %s: %v", r.Info.ID, err)
			}
			if r.Files() != 1 {
				t.Fatalf("daughter %s has %d files after compaction", r.Info.ID, r.Files())
			}
		}
	}
	for i := 0; i < 30; i++ {
		row := fmt.Sprintf("row%03d", i)
		_, found, err := c.Get(ctx, "t", kv.Key(row), "f", kv.MaxTimestamp)
		if err != nil || !found {
			t.Fatalf("row %s lost after daughter compaction: %v %v", row, found, err)
		}
	}
}

// TestSplitDaughterSurvivesCrash: after a split, a server crash must still
// recover the daughters (reference files resolve on the new host).
func TestSplitDaughterSurvivesCrash(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		ws := writeSet("c1", kv.Timestamp(i+1), "t", fmt.Sprintf("row%03d", i))
		if err := c.Flush(ctx, ws, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	parent, _, err := ts.master.Locate("t", "row000")
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.master.SplitRegion(parent.ID, "row010"); err != nil {
		t.Fatal(err)
	}
	host := hostFor(t, ts, "t", "row000")
	_ = host.SyncWAL()
	host.Crash()
	ts.net.SetDown(host.ID(), true)
	waitLocated(t, ts, "t", "row000", host.ID())
	for i := 0; i < 20; i++ {
		row := fmt.Sprintf("row%03d", i)
		_, found, err := c.Get(ctx, "t", kv.Key(row), "f", kv.MaxTimestamp)
		if err != nil || !found {
			t.Fatalf("row %s lost after post-split crash: %v %v", row, found, err)
		}
	}
}

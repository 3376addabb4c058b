package kvstore

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"txkv/internal/dfs"
	"txkv/internal/kv"
)

// pageAll drives scanPage like a client would: repeated bounded batches with
// the continuation coordinate, concatenated.
func pageAll(t *testing.T, r *Region, rng kv.KeyRange, maxTS kv.Timestamp, cols []string, batch int) []kv.KeyValue {
	t.Helper()
	var (
		out    []kv.KeyValue
		resume kv.CellKey
		has    bool
	)
	for i := 0; ; i++ {
		if i > 10_000 {
			t.Fatal("paging does not terminate")
		}
		page, more, err := r.scanPage(nil, rng, maxTS, resume, has, cols, false, batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) > batch {
			t.Fatalf("page of %d entries exceeds batch %d", len(page), batch)
		}
		out = append(out, page...)
		if len(page) > 0 {
			last := page[len(page)-1]
			resume, has = kv.CellKey{Row: last.Row, Column: last.Column}, true
		}
		if !more {
			return out
		}
	}
}

func sameKVs(t *testing.T, got, want []kv.KeyValue) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Cell != want[i].Cell || string(got[i].Value) != string(want[i].Value) {
			t.Fatalf("entry %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestScanPagePagingMatchesReference: a paged cursor scan over files +
// frozen-free memstore state, tombstones included, equals the one-shot
// reference for every batch size.
func TestScanPagePagingMatchesReference(t *testing.T) {
	r, _ := buildRegionWithFiles(t, 3, 40)
	// Memstore overlay: a newer version, a fresh row, and a tombstone.
	r.Apply([]kv.KeyValue{
		mkKV("row005", "f", 1000, "mem"),
		mkKV("row999", "f", 1001, "new"),
		{Cell: kv.Cell{Row: "row010", Column: "f", TS: 1002}, Tombstone: true},
	})
	for _, rng := range []kv.KeyRange{{}, {Start: "row010", End: "row030"}} {
		want, err := scanRange(r, rng, kv.MaxTimestamp, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 3, 7, 64} {
			sameKVs(t, pageAll(t, r, rng, kv.MaxTimestamp, nil, batch), want)
		}
	}
}

// TestScanPageProjection: the column filter runs inside the merge, before
// entries count toward the batch.
func TestScanPageProjection(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	r, err := OpenRegion(fs, NewBlockCache(1<<20, nil), RegionInfo{ID: "t-r000", Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		row := fmt.Sprintf("r%02d", i)
		r.Apply([]kv.KeyValue{
			mkKV(row, "a", kv.Timestamp(i+1), "va"),
			mkKV(row, "b", kv.Timestamp(i+1), "vb"),
			mkKV(row, "c", kv.Timestamp(i+1), "vc"),
		})
	}
	got := pageAll(t, r, kv.KeyRange{}, kv.MaxTimestamp, []string{"b"}, 4)
	if len(got) != 20 {
		t.Fatalf("projected scan returned %d entries, want 20", len(got))
	}
	for _, e := range got {
		if e.Column != "b" {
			t.Fatalf("projection leaked column %q", e.Column)
		}
	}
}

// TestScanPageCancelReleasesView: a context cancelled mid-merge aborts the
// page with the ctx error and drops the pinned read view, so a subsequent
// compaction can retire and physically unlink every input file.
func TestScanPageCancelReleasesView(t *testing.T) {
	r, fs := buildRegionWithFiles(t, 4, 200) // > cancelCheckStride entries
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := r.scanPage(ctx, kv.KeyRange{}, kv.MaxTimestamp, kv.CellKey{}, false, nil, false, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan page: %v", err)
	}
	if refs := r.view.Load().refs.Load(); refs != 1 {
		t.Fatalf("view refs after cancelled scan = %d, want 1 (current-view only)", refs)
	}
	// The dropped pin must not block retirement: compact and verify the
	// inputs are gone from the DFS (drain happened inline).
	before := r.Files()
	if err := r.Compact(256, 0); err != nil {
		t.Fatal(err)
	}
	var sf int
	for range fs.List("/data/t/t-r000/") {
		sf++
	}
	if before <= 1 || sf != 1 {
		t.Fatalf("store files on DFS after compaction = %d (had %d views-pinned?), want 1", sf, before)
	}
}

// TestScanPageAllocsOBatch: the acceptance bound of the streaming read API —
// one bounded batch over a huge range allocates like one over a small
// range; server-side memory is O(batch), not O(result).
func TestScanPageAllocsOBatch(t *testing.T) {
	small, _ := buildRegionWithFiles(t, 1, 200)
	big, _ := buildRegionWithFiles(t, 4, 5000)
	const batch = 64
	page := func(r *Region) func() {
		return func() {
			kvs, _, err := r.scanPage(nil, kv.KeyRange{}, kv.MaxTimestamp, kv.CellKey{}, false, nil, false, batch)
			if err != nil || len(kvs) != batch {
				t.Fatalf("page: %d entries, %v", len(kvs), err)
			}
		}
	}
	// Bypass the block cache variance: both regions use a cache large
	// enough that steady-state pages decode from cached blocks.
	allocSmall := testing.AllocsPerRun(50, page(small))
	allocBig := testing.AllocsPerRun(50, page(big))
	// 20000 rows vs 200: if batching leaked O(result) work the big region
	// would allocate ~100x more. Allow generous slack for heap setup.
	if allocBig > 4*allocSmall+32 {
		t.Fatalf("scan page allocations scale with range: big=%v small=%v", allocBig, allocSmall)
	}
}

// TestServerScanBatchContinuation: ScanBatch clips to the hosted region,
// reports the region end for the client to continue at, and rejects start
// keys it does not serve.
func TestServerScanBatchContinuation(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", []kv.Key{"m"}); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	rows := make([]string, 26)
	for i := range rows {
		rows[i] = fmt.Sprintf("%c0", 'a'+i)
	}
	if err := c.Flush(ctx, writeSet("c1", 3, "t", rows...), 0, false); err != nil {
		t.Fatal(err)
	}

	low := hostFor(t, ts, "t", "a")
	resp, err := low.ScanBatch(ctx, ScanRequest{Table: "t", Range: kv.KeyRange{}, MaxTS: kv.MaxTimestamp, Batch: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.KVs) != 5 || !resp.More || resp.RegionEnd != "m" {
		t.Fatalf("first batch: %d kvs, more=%v, end=%q", len(resp.KVs), resp.More, resp.RegionEnd)
	}
	// Misrouted continuation: the low server does not host row "z0".
	_, err = low.ScanBatch(ctx, ScanRequest{Table: "t", Range: kv.KeyRange{Start: "z"}, MaxTS: kv.MaxTimestamp, Batch: 5})
	high := hostFor(t, ts, "t", "z")
	if low != high {
		if !errors.Is(err, ErrRegionNotServing) {
			t.Fatalf("misrouted scan batch: %v", err)
		}
	}
}

// TestClientScannerCrossRegions: the routing scanner walks region
// boundaries with bounded batches and reproduces the materializing scan.
func TestClientScannerCrossRegions(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", []kv.Key{"h", "q"}); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	rows := make([]string, 26)
	for i := range rows {
		rows[i] = fmt.Sprintf("%c0", 'a'+i)
	}
	if err := c.Flush(ctx, writeSet("c1", 3, "t", rows...), 0, false); err != nil {
		t.Fatal(err)
	}
	want, err := c.Scan(ctx, "t", kv.KeyRange{}, kv.MaxTimestamp, 0)
	if err != nil || len(want) != 26 {
		t.Fatalf("reference scan: %d %v", len(want), err)
	}
	sc := c.NewScanner(ctx, "t", kv.KeyRange{}, kv.MaxTimestamp, ScanOptions{Batch: 4})
	var got []kv.KeyValue
	for sc.Next() {
		got = append(got, sc.KV())
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	sameKVs(t, got, want)

	// Limit pushdown across regions.
	sc = c.NewScanner(ctx, "t", kv.KeyRange{}, kv.MaxTimestamp, ScanOptions{Batch: 4, Limit: 10})
	n := 0
	for sc.Next() {
		n++
	}
	if sc.Err() != nil || n != 10 {
		t.Fatalf("limited scanner: %d %v", n, sc.Err())
	}
}

// TestClientGetBatch: one batched read resolves cells across regions and
// servers, preserving input order and found-ness.
func TestClientGetBatch(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", []kv.Key{"m"}); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	if err := c.Flush(ctx, writeSet("c1", 3, "t", "a0", "n0", "z0"), 0, false); err != nil {
		t.Fatal(err)
	}
	keys := []kv.CellKey{
		{Row: "z0", Column: "f"},
		{Row: "missing", Column: "f"},
		{Row: "a0", Column: "f"},
		{Row: "n0", Column: "nope"},
	}
	kvs, found, err := c.GetBatch(ctx, "t", keys, kv.MaxTimestamp)
	if err != nil {
		t.Fatal(err)
	}
	wantFound := []bool{true, false, true, false}
	for i, w := range wantFound {
		if found[i] != w {
			t.Fatalf("key %d found=%v, want %v", i, found[i], w)
		}
	}
	if string(kvs[0].Value) != "v3-z0" || string(kvs[2].Value) != "v3-a0" {
		t.Fatalf("batch values: %q %q", kvs[0].Value, kvs[2].Value)
	}
}

// TestClientScannerSurvivesRegionMove: a scan paused mid-region continues
// correctly after the region moves to another server (the continuation is
// re-resolved against the layout; the old location turns retryable).
func TestClientScannerSurvivesRegionMove(t *testing.T) {
	ts := newTestStore(t, 2, false)
	if err := ts.master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	c := ts.client("c1")
	ctx := context.Background()
	rows := make([]string, 30)
	for i := range rows {
		rows[i] = fmt.Sprintf("r%02d", i)
	}
	if err := c.Flush(ctx, writeSet("c1", 3, "t", rows...), 0, false); err != nil {
		t.Fatal(err)
	}
	sc := c.NewScanner(ctx, "t", kv.KeyRange{}, kv.MaxTimestamp, ScanOptions{Batch: 8})
	var got []kv.KeyValue
	for i := 0; i < 8 && sc.Next(); i++ {
		got = append(got, sc.KV())
	}
	// Move the (single) region to the other server mid-scan.
	src := hostFor(t, ts, "t", "r00")
	var dst *RegionServer
	for _, s := range ts.srvs {
		if s != src {
			dst = s
		}
	}
	infos := src.HostedRegionInfos()
	if len(infos) != 1 {
		t.Fatalf("expected 1 hosted region, got %d", len(infos))
	}
	if err := ts.master.MoveRegion(infos[0].ID, dst.ID()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sc.Next() {
		got = append(got, sc.KV())
		if time.Now().After(deadline) {
			t.Fatal("scan did not finish after move")
		}
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if len(got) != 30 {
		t.Fatalf("scan across move returned %d rows, want 30", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("r%02d", i); string(e.Row) != want {
			t.Fatalf("row %d = %s, want %s", i, e.Row, want)
		}
	}
}

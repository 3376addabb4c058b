package kvstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"txkv/internal/dfs"
	"txkv/internal/kv"
)

func TestWALEntryRoundTrip(t *testing.T) {
	e := WALEntry{
		RegionID: "t-r001",
		KVs: []kv.KeyValue{
			mkKV("r1", "c1", 5, "v1"),
			{Cell: kv.Cell{Row: "r2", Column: "c2", TS: 9}, Tombstone: true},
		},
	}
	enc := EncodeWALEntry(e)
	if cap(enc) != len(enc) {
		t.Fatalf("encoding of %d bytes in a %d-byte buffer: not sized exactly", len(enc), cap(enc))
	}
	got, err := DecodeWALEntry(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.RegionID != e.RegionID || len(got.KVs) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	if got.KVs[0].Cell != e.KVs[0].Cell || !bytes.Equal(got.KVs[0].Value, e.KVs[0].Value) {
		t.Fatalf("kv[0] = %+v", got.KVs[0])
	}
	if !got.KVs[1].Tombstone {
		t.Fatal("tombstone lost")
	}
}

func TestWALEntryDecodeErrors(t *testing.T) {
	if _, err := DecodeWALEntry(nil); err == nil {
		t.Error("nil input must fail")
	}
	good := EncodeWALEntry(WALEntry{RegionID: "r", KVs: []kv.KeyValue{mkKV("a", "b", 1, "v")}})
	for cut := 1; cut < len(good); cut++ {
		if _, err := DecodeWALEntry(good[:cut]); err == nil {
			t.Errorf("truncation at %d must fail", cut)
		}
	}
	// An entry count beyond the bytes left fails before allocating for it.
	huge := binary.AppendUvarint(append(binary.AppendUvarint(nil, 1), 'r'), 1<<40)
	if _, err := DecodeWALEntry(append(huge, good[3:]...)); !errors.Is(err, kv.ErrCodecTruncated) {
		t.Errorf("entry count 1<<40: got %v, want ErrCodecTruncated", err)
	}
}

func TestRegionApplyGetScan(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	info := RegionInfo{ID: "t-r000", Table: "t", Range: kv.KeyRange{}}
	r, err := OpenRegion(fs, NewBlockCache(1<<20, nil), info)
	if err != nil {
		t.Fatal(err)
	}
	r.Apply([]kv.KeyValue{
		mkKV("a", "f", 1, "v1"),
		mkKV("b", "f", 2, "v2"),
		mkKV("a", "f", 3, "v3"),
	})
	got, found, err := r.Get("a", "f", kv.MaxTimestamp)
	if err != nil || !found || string(got.Value) != "v3" {
		t.Fatalf("get: %v %v %v", got, found, err)
	}
	got, found, _ = r.Get("a", "f", 2)
	if !found || string(got.Value) != "v1" {
		t.Fatalf("snapshot get: %v %v", got, found)
	}
	scan, err := scanRange(r, kv.KeyRange{}, kv.MaxTimestamp, 0)
	if err != nil || len(scan) != 2 {
		t.Fatalf("scan: %v %v", scan, err)
	}
}

func TestRegionFlushMovesDataToFiles(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	info := RegionInfo{ID: "t-r000", Table: "t", Range: kv.KeyRange{}}
	r, err := OpenRegion(fs, NewBlockCache(1<<20, nil), info)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r.Apply([]kv.KeyValue{mkKV(fmt.Sprintf("row%03d", i), "f", kv.Timestamp(i+1), "v")})
	}
	if r.Files() != 0 {
		t.Fatal("files before flush")
	}
	memBefore := r.MemSize()
	if memBefore == 0 {
		t.Fatal("empty memstore before flush")
	}
	if err := r.Flush(256); err != nil {
		t.Fatal(err)
	}
	if r.Files() != 1 {
		t.Fatalf("files = %d", r.Files())
	}
	if r.MemSize() != 0 {
		t.Fatalf("memstore not emptied: %d", r.MemSize())
	}
	// Data readable from the file.
	got, found, err := r.Get("row042", "f", kv.MaxTimestamp)
	if err != nil || !found || string(got.Value) != "v" {
		t.Fatalf("post-flush get: %v %v %v", got, found, err)
	}
	// Second flush with no data is a no-op.
	if err := r.Flush(256); err != nil {
		t.Fatal(err)
	}
	if r.Files() != 1 {
		t.Fatalf("empty flush created a file: %d", r.Files())
	}
}

func TestRegionReopenFindsFiles(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	info := RegionInfo{ID: "t-r000", Table: "t", Range: kv.KeyRange{}}
	r1, err := OpenRegion(fs, nil, info)
	if err != nil {
		t.Fatal(err)
	}
	r1.Apply([]kv.KeyValue{mkKV("a", "f", 1, "v1")})
	if err := r1.Flush(0); err != nil {
		t.Fatal(err)
	}
	r1.Apply([]kv.KeyValue{mkKV("b", "f", 2, "v2")})
	if err := r1.Flush(0); err != nil {
		t.Fatal(err)
	}

	// A new server opens the region: files are discovered, memstore empty.
	r2, err := OpenRegion(fs, NewBlockCache(1<<20, nil), info)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Files() != 2 {
		t.Fatalf("reopened files = %d", r2.Files())
	}
	for _, row := range []string{"a", "b"} {
		if _, found, err := r2.Get(kv.Key(row), "f", kv.MaxTimestamp); err != nil || !found {
			t.Fatalf("reopened get %s: %v %v", row, found, err)
		}
	}
	// New flushes continue the sequence without clobbering old files.
	r2.Apply([]kv.KeyValue{mkKV("c", "f", 3, "v3")})
	if err := r2.Flush(0); err != nil {
		t.Fatal(err)
	}
	if r2.Files() != 3 {
		t.Fatalf("files after new flush = %d", r2.Files())
	}
}

func TestRegionVersionsAcrossMemAndFiles(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	info := RegionInfo{ID: "t-r000", Table: "t", Range: kv.KeyRange{}}
	r, _ := OpenRegion(fs, NewBlockCache(1<<20, nil), info)
	r.Apply([]kv.KeyValue{mkKV("k", "f", 10, "old")})
	_ = r.Flush(0)
	// Newer version only in the memstore; older only in the file.
	r.Apply([]kv.KeyValue{mkKV("k", "f", 20, "new")})
	got, _, _ := r.Get("k", "f", kv.MaxTimestamp)
	if string(got.Value) != "new" {
		t.Fatalf("latest = %q", got.Value)
	}
	got, _, _ = r.Get("k", "f", 15)
	if string(got.Value) != "old" {
		t.Fatalf("snapshot = %q", got.Value)
	}
	// Replay of an OLDER version into the memstore (recovery does this)
	// must not shadow the newer one.
	r.Apply([]kv.KeyValue{mkKV("k", "f", 10, "old")})
	got, _, _ = r.Get("k", "f", kv.MaxTimestamp)
	if string(got.Value) != "new" {
		t.Fatalf("after replay, latest = %q", got.Value)
	}
	// Scan dedupes to one visible version.
	scan, err := scanRange(r, kv.KeyRange{}, kv.MaxTimestamp, 0)
	if err != nil || len(scan) != 1 || string(scan[0].Value) != "new" {
		t.Fatalf("scan: %v %v", scan, err)
	}
}

func TestRegionScanLimit(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	r, _ := OpenRegion(fs, nil, RegionInfo{ID: "x", Table: "t", Range: kv.KeyRange{}})
	for i := 0; i < 20; i++ {
		r.Apply([]kv.KeyValue{mkKV(fmt.Sprintf("r%02d", i), "f", 1, "v")})
	}
	got, err := scanRange(r, kv.KeyRange{}, kv.MaxTimestamp, 5)
	if err != nil || len(got) != 5 {
		t.Fatalf("limited scan: %d %v", len(got), err)
	}
	if got[0].Row != "r00" || got[4].Row != "r04" {
		t.Fatalf("limit must keep the smallest keys: %v", got)
	}
}

func TestRegionFlushFailureKeepsDataReadable(t *testing.T) {
	// One data node, replication 1: crashing the node makes the store-file
	// write fail; the snapshot must merge back into the memstore and stay
	// readable, and a later retry must succeed.
	fs := dfs.New(dfs.Config{Replication: 1, DataNodes: 1})
	r, err := OpenRegion(fs, nil, RegionInfo{ID: "ff", Table: "t", Range: kv.KeyRange{}})
	if err != nil {
		t.Fatal(err)
	}
	r.Apply([]kv.KeyValue{mkKV("a", "f", 1, "v1")})
	if err := fs.CrashDataNode("dn-0"); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(0); err == nil {
		t.Fatal("flush must fail with the DFS down")
	}
	// Data still readable from memory.
	got, found, err := r.Get("a", "f", kv.MaxTimestamp)
	if err != nil || !found || string(got.Value) != "v1" {
		t.Fatalf("data lost after failed flush: %v %v %v", got, found, err)
	}
	if r.Files() != 0 {
		t.Fatalf("failed flush left %d files", r.Files())
	}
	// Recovery of the DFS lets a retry succeed.
	_ = fs.RestartDataNode("dn-0")
	if err := r.Flush(0); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	if r.Files() != 1 || r.MemSize() != 0 {
		t.Fatalf("retry state: files=%d mem=%d", r.Files(), r.MemSize())
	}
	got, found, _ = r.Get("a", "f", kv.MaxTimestamp)
	if !found || string(got.Value) != "v1" {
		t.Fatalf("data lost after retried flush: %v", got)
	}
}

// scanRange reads one page of r with no resume point: the newest visible
// version per (row, column) in rng at or below maxTS, in store order,
// tombstones elided, at most limit entries (0 = no limit).
func scanRange(r *Region, rng kv.KeyRange, maxTS kv.Timestamp, limit int) ([]kv.KeyValue, error) {
	out, _, err := r.scanPage(context.Background(), rng, maxTS, kv.CellKey{}, false, nil, false, limit)
	return out, err
}

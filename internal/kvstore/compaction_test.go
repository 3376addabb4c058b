package kvstore

import (
	"fmt"
	"sort"
	"testing"

	"txkv/internal/dfs"
	"txkv/internal/kv"
)

func buildRegionWithFiles(t testing.TB, nFiles, rowsPerFile int) (*Region, *dfs.FS) {
	t.Helper()
	fs := dfs.New(dfs.Config{})
	r, err := OpenRegion(fs, NewBlockCache(1<<20, nil), RegionInfo{ID: "t-r000", Table: "t", Range: kv.KeyRange{}})
	if err != nil {
		t.Fatal(err)
	}
	ts := kv.Timestamp(1)
	for f := 0; f < nFiles; f++ {
		for i := 0; i < rowsPerFile; i++ {
			r.Apply([]kv.KeyValue{mkKV(fmt.Sprintf("row%03d", i), "f", ts, fmt.Sprintf("v%d", ts))})
			ts++
		}
		if err := r.Flush(256); err != nil {
			t.Fatal(err)
		}
	}
	return r, fs
}

func TestCompactMergesFiles(t *testing.T) {
	r, fs := buildRegionWithFiles(t, 4, 30)
	if r.Files() != 4 {
		t.Fatalf("files = %d", r.Files())
	}
	before := len(fs.List("/data/t/t-r000/"))
	if err := r.Compact(256, 0); err != nil {
		t.Fatal(err)
	}
	if r.Files() != 1 {
		t.Fatalf("files after compaction = %d", r.Files())
	}
	after := len(fs.List("/data/t/t-r000/"))
	if after >= before {
		t.Fatalf("old files not deleted: %d -> %d", before, after)
	}
	// All versions retained (horizon 0): both newest and older snapshots
	// read correctly.
	got, found, err := r.Get("row000", "f", kv.MaxTimestamp)
	if err != nil || !found {
		t.Fatalf("get after compaction: %v %v", found, err)
	}
	// row000 was written at ts 1, 31, 61, 91; latest is 91.
	if string(got.Value) != "v91" {
		t.Fatalf("latest = %q, want v91", got.Value)
	}
	got, found, _ = r.Get("row000", "f", 31)
	if !found || string(got.Value) != "v31" {
		t.Fatalf("snapshot = %q, want v31", got.Value)
	}
}

func TestCompactWithHorizonDropsShadowedVersions(t *testing.T) {
	r, _ := buildRegionWithFiles(t, 3, 10)
	// Horizon above every write: only the newest version per coordinate
	// survives.
	if err := r.Compact(256, kv.MaxTimestamp); err != nil {
		t.Fatal(err)
	}
	scan, err := scanRange(r, kv.KeyRange{}, kv.MaxTimestamp, 0)
	if err != nil || len(scan) != 10 {
		t.Fatalf("scan: %d %v", len(scan), err)
	}
	// Newest values retained.
	got, found, _ := r.Get("row005", "f", kv.MaxTimestamp)
	if !found || string(got.Value) != "v26" { // row005 at ts 6, 16, 26
		t.Fatalf("latest = %q, want v26", got.Value)
	}
	// Old snapshot is gone (GC'd below the horizon).
	if _, found, _ := r.Get("row005", "f", 6); found {
		t.Fatal("GC'd version still readable")
	}
}

func TestCompactSingleFileNoOp(t *testing.T) {
	r, _ := buildRegionWithFiles(t, 1, 5)
	if err := r.Compact(256, 0); err != nil {
		t.Fatal(err)
	}
	if r.Files() != 1 {
		t.Fatalf("files = %d", r.Files())
	}
}

func TestCompactPreservesDuplicatesFromReplay(t *testing.T) {
	// Recovery can write the same cell into two different files; compaction
	// must collapse them without error.
	fs := dfs.New(dfs.Config{})
	r, _ := OpenRegion(fs, nil, RegionInfo{ID: "x", Table: "t", Range: kv.KeyRange{}})
	r.Apply([]kv.KeyValue{mkKV("dup", "f", 7, "v")})
	_ = r.Flush(0)
	r.Apply([]kv.KeyValue{mkKV("dup", "f", 7, "v")}) // replayed duplicate
	_ = r.Flush(0)
	if err := r.Compact(0, 0); err != nil {
		t.Fatal(err)
	}
	scan, err := scanRange(r, kv.KeyRange{}, kv.MaxTimestamp, 0)
	if err != nil || len(scan) != 1 {
		t.Fatalf("scan: %v %v", scan, err)
	}
}

func TestMergeRunsKWay(t *testing.T) {
	// Three individually sorted runs (store order: row asc, column asc,
	// ts desc) with cross-run duplicates and shadowed versions.
	runs := [][]kv.KeyValue{
		{mkKV("a", "f", 9, "a9"), mkKV("c", "f", 2, "c2")},
		{mkKV("a", "f", 9, "a9"), mkKV("a", "f", 3, "a3"), mkKV("b", "f", 4, "b4")},
		{mkKV("b", "f", 8, "b8"), mkKV("d", "f", 1, "d1")},
	}
	out, err := mergeRuns(runs, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []struct {
		row string
		ts  kv.Timestamp
	}{
		{"a", 9}, {"a", 3}, {"b", 8}, {"b", 4}, {"c", 2}, {"d", 1},
	}
	if len(out) != len(wantOrder) {
		t.Fatalf("merged %d entries, want %d: %v", len(out), len(wantOrder), out)
	}
	for i, w := range wantOrder {
		if string(out[i].Row) != w.row || out[i].TS != w.ts {
			t.Fatalf("entry %d = %s@%d, want %s@%d", i, out[i].Row, out[i].TS, w.row, w.ts)
		}
	}
	// With the horizon above every timestamp, only the newest version per
	// coordinate survives.
	out, err = mergeRuns(runs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 { // a@9, b@8, c@2, d@1
		t.Fatalf("horizon merge kept %d entries, want 4: %v", len(out), out)
	}
	if out[0].TS != 9 || out[1].TS != 8 {
		t.Fatalf("horizon merge order wrong: %v", out)
	}
	// Degenerate cases.
	if got, _ := mergeRuns(nil, 0); len(got) != 0 {
		t.Fatalf("empty merge: %v", got)
	}
	if got, _ := mergeRuns([][]kv.KeyValue{{}, {mkKV("x", "f", 1, "x1")}}, 0); len(got) != 1 {
		t.Fatalf("single-entry merge: %v", got)
	}
}

// sortAndGC is the single-run case of mergeRuns over unsorted input — the
// pre-heap-merge compaction behavior, kept here as the semantic reference
// the k-way merge must match.
func sortAndGC(entries []kv.KeyValue, horizon kv.Timestamp) []kv.KeyValue {
	sort.Slice(entries, func(i, j int) bool {
		return kv.CompareCells(entries[i].Cell, entries[j].Cell) < 0
	})
	out, _ := mergeRuns([][]kv.KeyValue{entries}, horizon)
	return out
}

func TestSortAndGC(t *testing.T) {
	in := []kv.KeyValue{
		mkKV("b", "f", 5, "b5"),
		mkKV("a", "f", 9, "a9"),
		mkKV("a", "f", 3, "a3"),
		mkKV("a", "f", 9, "a9"), // duplicate
	}
	out := sortAndGC(in, 0)
	if len(out) != 3 {
		t.Fatalf("dedup failed: %v", out)
	}
	if out[0].TS != 9 || out[1].TS != 3 || out[2].Row != "b" {
		t.Fatalf("order wrong: %v", out)
	}
	// With a horizon covering ts 9, a3 is shadowed.
	out = sortAndGC([]kv.KeyValue{
		mkKV("a", "f", 9, "a9"),
		mkKV("a", "f", 3, "a3"),
	}, 10)
	if len(out) != 1 || out[0].TS != 9 {
		t.Fatalf("horizon GC wrong: %v", out)
	}
	// Horizon below the newer version: both survive (a9 not <= horizon).
	out = sortAndGC([]kv.KeyValue{
		mkKV("a", "f", 9, "a9"),
		mkKV("a", "f", 3, "a3"),
	}, 5)
	if len(out) != 2 {
		t.Fatalf("over-aggressive GC: %v", out)
	}
}

package kvstore

import (
	"errors"
	"fmt"
	"testing"

	"txkv/internal/dfs"
	"txkv/internal/kv"
	"txkv/internal/obs"
)

func buildStoreFile(t *testing.T, fs *dfs.FS, path string, n int, blockSize int) *StoreFile {
	t.Helper()
	entries := make([]kv.KeyValue, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, mkKV(fmt.Sprintf("row%05d", i), "c", kv.Timestamp(i+1), fmt.Sprintf("val%d", i)))
	}
	sf, err := WriteStoreFile(fs, path, entries, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	return sf
}

func TestStoreFileWriteReadBack(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	sf := buildStoreFile(t, fs, "/data/f1", 1000, 256)
	if sf.Blocks() < 2 {
		t.Fatalf("expected multiple blocks, got %d", sf.Blocks())
	}
	cache := NewBlockCache(1<<20, nil)
	for _, i := range []int{0, 1, 499, 998, 999} {
		row := kv.Key(fmt.Sprintf("row%05d", i))
		got, found, err := sf.Get(row, "c", kv.MaxTimestamp, cache)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("row %s not found", row)
		}
		if string(got.Value) != fmt.Sprintf("val%d", i) {
			t.Fatalf("row %s = %q", row, got.Value)
		}
	}
	if _, found, _ := sf.Get("row99999", "c", kv.MaxTimestamp, cache); found {
		t.Fatal("absent row reported found")
	}
	if _, found, _ := sf.Get("aaa", "c", kv.MaxTimestamp, cache); found {
		t.Fatal("row before file start reported found")
	}
}

func TestStoreFileOpenRoundTrip(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	buildStoreFile(t, fs, "/data/f1", 200, 128)
	sf, err := OpenStoreFile(fs, "/data/f1")
	if err != nil {
		t.Fatal(err)
	}
	got, found, err := sf.Get("row00042", "c", kv.MaxTimestamp, nil)
	if err != nil || !found || string(got.Value) != "val42" {
		t.Fatalf("reopened get: %v %v %v", got, found, err)
	}
}

func TestStoreFileTimestampFiltering(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	entries := []kv.KeyValue{
		mkKV("r1", "c", 30, "v30"), // ts-desc within coordinate
		mkKV("r1", "c", 20, "v20"),
		mkKV("r1", "c", 10, "v10"),
	}
	sf, err := WriteStoreFile(fs, "/f", entries, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		maxTS kv.Timestamp
		want  string
		found bool
	}{
		{kv.MaxTimestamp, "v30", true},
		{25, "v20", true},
		{10, "v10", true},
		{9, "", false},
	}
	for _, tt := range tests {
		got, found, err := sf.Get("r1", "c", tt.maxTS, nil)
		if err != nil {
			t.Fatal(err)
		}
		if found != tt.found || (found && string(got.Value) != tt.want) {
			t.Errorf("maxTS=%d: got %v found=%v, want %q", tt.maxTS, got, found, tt.want)
		}
	}
}

func TestStoreFileScanRange(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	sf := buildStoreFile(t, fs, "/f", 100, 128)
	got, err := sf.ScanRange(nil, kv.KeyRange{Start: "row00010", End: "row00020"}, kv.MaxTimestamp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("scan returned %d entries, want 10", len(got))
	}
	if got[0].Row != "row00010" || got[9].Row != "row00019" {
		t.Fatalf("scan bounds: %v .. %v", got[0].Row, got[9].Row)
	}
	// maxTS filter: rows have ts=i+1.
	got, err = sf.ScanRange(nil, kv.KeyRange{}, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("ts-filtered scan returned %d, want 50", len(got))
	}
}

func TestStoreFileEmpty(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	sf, err := WriteStoreFile(fs, "/empty", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, found, err := sf.Get("r", "c", kv.MaxTimestamp, nil); err != nil || found {
		t.Fatalf("empty file get: found=%v err=%v", found, err)
	}
	reopened, err := OpenStoreFile(fs, "/empty")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reopened.ScanRange(nil, kv.KeyRange{}, kv.MaxTimestamp, nil); err != nil || len(got) != 0 {
		t.Fatalf("empty scan: %v %v", got, err)
	}
}

func TestStoreFileCacheUsed(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	sf := buildStoreFile(t, fs, "/f", 500, 256)
	reg := obs.NewRegistry()
	cache := NewBlockCache(1<<20, reg)
	hitCount, missCount := reg.Counter("blockcache.hits"), reg.Counter("blockcache.misses")
	if _, _, err := sf.Get("row00007", "c", kv.MaxTimestamp, cache); err != nil {
		t.Fatal(err)
	}
	misses1 := missCount.Load()
	if misses1 == 0 {
		t.Fatal("first read should miss")
	}
	if _, _, err := sf.Get("row00007", "c", kv.MaxTimestamp, cache); err != nil {
		t.Fatal(err)
	}
	hits, misses2 := hitCount.Load(), missCount.Load()
	if hits == 0 || misses2 != misses1 {
		t.Fatalf("second read should hit: hits=%d misses=%d->%d", hits, misses1, misses2)
	}
}

func TestOpenStoreFileErrors(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	if _, err := OpenStoreFile(fs, "/missing"); !errors.Is(err, dfs.ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
	w, _ := fs.Create("/short")
	_ = w.Append([]byte("tiny"))
	_ = w.Sync()
	if _, err := OpenStoreFile(fs, "/short"); !errors.Is(err, ErrBadStoreFile) {
		t.Fatalf("short: %v", err)
	}
	w2, _ := fs.Create("/badmagic")
	_ = w2.Append(make([]byte, 64))
	_ = w2.Sync()
	if _, err := OpenStoreFile(fs, "/badmagic"); !errors.Is(err, ErrBadStoreFile) {
		t.Fatalf("bad magic: %v", err)
	}
}

func TestBlockCacheLRU(t *testing.T) {
	c := NewBlockCache(100, nil)
	c.Put("a", make([]byte, 40))
	c.Put("b", make([]byte, 40))
	if c.Len() != 2 || c.Used() != 80 {
		t.Fatalf("len=%d used=%d", c.Len(), c.Used())
	}
	// Touch a so b becomes LRU.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", make([]byte, 40)) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should survive")
	}
	// Oversized item is not cached.
	c.Put("huge", make([]byte, 200))
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized item cached")
	}
	// Overwrite updates bytes.
	c.Put("a", make([]byte, 10))
	if got, _ := c.Get("a"); len(got) != 10 {
		t.Fatalf("overwrite failed: %d", len(got))
	}
	c.Clear()
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatal("clear failed")
	}
}

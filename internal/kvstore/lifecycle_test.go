package kvstore

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txkv/internal/dfs"
	"txkv/internal/kv"
	"txkv/internal/obs"
	"txkv/internal/storage"
)

// TestCompactRetiresInputsAfterDrain: with no readers in flight, compaction
// inputs are unlinked before Compact returns (the old view drains inline);
// the retirement counters record it.
func TestCompactRetiresInputsAfterDrain(t *testing.T) {
	r, fs := buildRegionWithFiles(t, 4, 20)
	reg := obs.NewRegistry()
	r.m = newStoreMetrics(reg)
	if err := r.Compact(256, 0); err != nil {
		t.Fatal(err)
	}
	var sf, tmp int
	for _, p := range fs.List("/data/t/t-r000/") {
		switch {
		case strings.HasSuffix(p, tmpSuffix):
			tmp++
		case strings.HasSuffix(p, ".sf"):
			sf++
		}
	}
	if sf != 1 || tmp != 0 {
		t.Fatalf("after compaction: %d store files, %d tmp files; want 1, 0", sf, tmp)
	}
	snap := reg.Snapshot().Counters
	if snap["reclaim.files_retired"] != 4 || snap["reclaim.bytes_retired"] == 0 || snap["reclaim.compactions"] != 1 {
		t.Fatalf("reclaim counters: %v", snap)
	}
}

// TestCompactDefersDeletionUntilReaderDrains: a reader holding the
// pre-compaction view keeps the input files on the filesystem until it
// releases; only then are they unlinked.
func TestCompactDefersDeletionUntilReaderDrains(t *testing.T) {
	r, fs := buildRegionWithFiles(t, 3, 10)
	dir := "/data/t/t-r000/"
	before := len(fs.List(dir))

	v := r.acquireView() // a slow reader pinning the current view
	if err := r.Compact(256, 0); err != nil {
		t.Fatal(err)
	}
	// New view is live (one merged file) but the inputs must still exist:
	// the pinned view may still be streaming them.
	if r.Files() != 1 {
		t.Fatalf("view files = %d, want 1", r.Files())
	}
	if got := len(fs.List(dir)); got != before+1 {
		t.Fatalf("inputs deleted while a reader held the old view: %d files, want %d", got, before+1)
	}
	// The pinned view still reads consistently.
	for _, f := range v.files {
		if _, _, err := f.Get(kv.Key("row000"), "f", kv.MaxTimestamp, nil); err != nil {
			t.Fatalf("pinned view read: %v", err)
		}
	}
	r.releaseView(v)
	if got := len(fs.List(dir)); got != 1 {
		t.Fatalf("inputs not unlinked after drain: %d files, want 1", got)
	}
}

// TestWriteStoreFileTornOutputInvisible: a store-file write that crashes
// before its publishing rename leaves only a *.tmp orphan — the region
// reopens cleanly, sweeps the orphan, and a later flush reuses the
// sequence without colliding.
func TestWriteStoreFileTornOutputInvisible(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	info := RegionInfo{ID: "torn-r000", Table: "t", Range: kv.KeyRange{}}
	r, err := OpenRegion(fs, nil, info)
	if err != nil {
		t.Fatal(err)
	}
	r.Apply([]kv.KeyValue{mkKV("rowA", "f", 1, "v1")})
	if err := r.Flush(0); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash window: a half-written store file at the
	// temporary name (footerless garbage — it would fail to open).
	dir := dataDir(info.Table, info.ID)
	torn := dir + "00000007.sf" + tmpSuffix
	w, err := fs.Create(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(bytes.Repeat([]byte("garbage"), 10)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = w.Close()

	r2, err := OpenRegion(fs, nil, info)
	if err != nil {
		t.Fatalf("reopen with torn tmp file: %v", err)
	}
	if fs.Exists(torn) {
		t.Fatal("torn tmp file not swept at region open")
	}
	got, found, err := r2.Get(kv.Key("rowA"), "f", kv.MaxTimestamp)
	if err != nil || !found || string(got.Value) != "v1" {
		t.Fatalf("data after torn-output recovery: %v %v %q", found, err, got.Value)
	}
	r2.Apply([]kv.KeyValue{mkKV("rowB", "f", 2, "v2")})
	if err := r2.Flush(0); err != nil {
		t.Fatalf("flush after sweep: %v", err)
	}
}

// TestLifecyclePropertyNoReaderErrors is the PR's headline property test:
// interleaved ScanRange/Get readers must never observe an error while both
// reclamation paths — store-file compaction and DFS log compaction — run
// continuously. Run under -race this also proves the refcount protocol is
// data-race free.
func TestLifecyclePropertyNoReaderErrors(t *testing.T) {
	backends := map[string]*storage.MemBackend{}
	var bmu sync.Mutex
	fs, err := dfs.Open(dfs.Config{
		DataNodes:   2,
		Replication: 2,
		OpenLog: func(name string) (*storage.Log, error) {
			bmu.Lock()
			be, ok := backends[name]
			if !ok {
				be = storage.NewMemBackend()
				backends[name] = be
			}
			bmu.Unlock()
			return storage.Open(storage.Config{Backend: be, SegmentBytes: 4096})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	r, err := OpenRegion(fs, NewBlockCache(1<<20, nil), RegionInfo{ID: "prop-r000", Table: "t", Range: kv.KeyRange{}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r.m = newStoreMetrics(reg)

	const rows = 80
	// Seed every row so readers always have something to find.
	for i := 0; i < rows; i++ {
		r.Apply([]kv.KeyValue{mkKV(fmt.Sprintf("r%03d", i), "f", 1, "seed")})
	}
	if err := r.Flush(512); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ts atomic.Int64
	ts.Store(1)

	// Writer: continuous overwrites, so compaction always has work.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := ts.Add(1)
			r.Apply([]kv.KeyValue{mkKV(fmt.Sprintf("r%03d", i%rows), "f", kv.Timestamp(n), "v")})
			i++
		}
	}()

	// Compactor: flush + store-file compaction + DFS log compaction, back
	// to back, for the whole test.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.Flush(512); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			if err := r.Compact(512, 0); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			if _, err := fs.CompactLogs(); err != nil {
				t.Errorf("compact logs: %v", err)
				return
			}
		}
	}()

	// Readers: the property under test — zero errors, and every seeded row
	// always readable.
	const readers = 3
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				row := kv.Key(fmt.Sprintf("r%03d", i%rows))
				if _, found, err := r.Get(row, "f", kv.MaxTimestamp); err != nil {
					t.Errorf("reader %d: Get(%s): %v", g, row, err)
					return
				} else if !found {
					t.Errorf("reader %d: Get(%s): row vanished", g, row)
					return
				}
				if i%16 == 0 {
					got, err := scanRange(r, kv.KeyRange{Start: "r010", End: "r050"}, kv.MaxTimestamp, 0)
					if err != nil {
						t.Errorf("reader %d: scan: %v", g, err)
						return
					}
					if len(got) != 40 {
						t.Errorf("reader %d: scan saw %d rows, want 40", g, len(got))
						return
					}
				}
				i++
			}
		}(g)
	}

	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()

	// The view must have converged to one file per quiesced compaction and
	// retirement must actually have happened.
	if err := r.Compact(512, 0); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("reclaim.files_retired").Load(); n == 0 {
		t.Fatal("no store files retired during the run")
	}
}

package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"txkv/internal/dfs"
	"txkv/internal/kv"
)

// TestOpenRegionRejectsMalformedStoreFileName: the store-file sequence must
// be a strict decimal — names with garbage prefixes (which fmt.Sscanf "%d"
// used to tolerate) fail the open instead of being silently mis-sequenced.
func TestOpenRegionRejectsMalformedStoreFileName(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	info := RegionInfo{ID: "bad-r000", Table: "t", Range: kv.KeyRange{}}

	// A valid region first, so the fixture is realistic.
	r, err := OpenRegion(fs, nil, info)
	if err != nil {
		t.Fatal(err)
	}
	r.Apply([]kv.KeyValue{mkKV("row1", "f", 1, "v")})
	if err := r.Flush(0); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegion(fs, nil, info); err != nil {
		t.Fatalf("reopen of valid region: %v", err)
	}

	for _, name := range []string{"junk00000009.sf", "0x000001.sf", "12garbage.sf", ".sf", "-0000001.sf"} {
		path := dataDir(info.Table, info.ID) + name
		w, err := fs.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		_ = w.Close()
		_, err = OpenRegion(fs, nil, info)
		if !errors.Is(err, ErrBadStoreFileName) {
			t.Fatalf("OpenRegion with %q: got %v, want ErrBadStoreFileName", name, err)
		}
		if err := fs.Delete(path); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRegionGetZeroAllocs: the memstore-resident read path must not
// allocate — no per-call source slices, no closures, no lock shadows.
func TestRegionGetZeroAllocs(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	r, err := OpenRegion(fs, nil, RegionInfo{ID: "za-r000", Table: "t", Range: kv.KeyRange{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		r.Apply([]kv.KeyValue{mkKV(fmt.Sprintf("row%04d", i), "f", kv.Timestamp(i+1), "value")})
	}
	row := kv.Key("row0500")
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := r.Get(row, "f", kv.MaxTimestamp); !ok || err != nil {
			t.Fatalf("get: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Region.Get allocates %.1f objects per call, want 0", allocs)
	}
}

// TestMemStoreConcurrentStress hammers one memstore with parallel writers,
// point readers, and scanners; run under -race this is the data-race proof
// for the lock-free skip list.
func TestMemStoreConcurrentStress(t *testing.T) {
	m := NewMemStore()
	const (
		writers = 4
		readers = 4
		rows    = 257
		perG    = 3000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ts := kv.Timestamp(w*perG + i + 1)
				m.Put(mkKV(fmt.Sprintf("r%03d", i%rows), fmt.Sprintf("c%d", w%3), ts, "v"))
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.Get(kv.Key(fmt.Sprintf("r%03d", i%rows)), "c0", kv.MaxTimestamp)
				if i%64 == 0 {
					m.ScanRange(nil, kv.KeyRange{Start: "r100", End: "r120"}, kv.MaxTimestamp)
				}
			}
		}(g)
	}
	wg.Wait()

	// Every write must be present and the list sorted.
	all := m.All()
	if len(all) != m.Len() {
		t.Fatalf("All() len %d != Len() %d", len(all), m.Len())
	}
	for i := 1; i < len(all); i++ {
		if kv.CompareCells(all[i-1].Cell, all[i].Cell) >= 0 {
			t.Fatalf("unsorted at %d: %v then %v", i, all[i-1], all[i])
		}
	}
}

// TestMemStoreConcurrentVsReference: N concurrent writers insert a known
// (overlapping) set of cells; afterwards the skip list's iteration order
// must exactly equal the reference sorted slice — the property the flush
// and scan paths rely on.
func TestMemStoreConcurrentVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const total = 8000
	entries := make([]kv.KeyValue, total)
	for i := range entries {
		entries[i] = mkKV(
			fmt.Sprintf("row%03d", rng.Intn(200)),
			fmt.Sprintf("c%d", rng.Intn(4)),
			kv.Timestamp(rng.Intn(64)+1),
			fmt.Sprintf("v%d", i),
		)
	}

	m := NewMemStore()
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Interleaved (not chunked) assignment maximizes CAS contention
			// on neighbouring cells.
			for i := g; i < total; i += goroutines {
				m.Put(entries[i])
			}
		}(g)
	}
	wg.Wait()

	// Reference: last write per cell wins — but concurrent goroutines race
	// on duplicate cells, so compare coordinates only, plus value equality
	// for cells written by a single goroutine.
	ref := make(map[kv.Cell]bool, total)
	for _, e := range entries {
		ref[e.Cell] = true
	}
	cells := make([]kv.Cell, 0, len(ref))
	for c := range ref {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return kv.CompareCells(cells[i], cells[j]) < 0 })

	all := m.All()
	if len(all) != len(cells) {
		t.Fatalf("skip list has %d cells, reference %d", len(all), len(cells))
	}
	for i, c := range cells {
		if all[i].Cell != c {
			t.Fatalf("iteration order diverges at %d: got %v, want %v", i, all[i].Cell, c)
		}
	}

	// And the streaming iterator agrees with ScanRange.
	it := m.Iter(kv.KeyRange{}, kv.MaxTimestamp)
	for i := 0; it.Valid(); i++ {
		if it.Head().Cell != all[i].Cell {
			t.Fatalf("iterator diverges at %d", i)
		}
		if err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRegionConcurrentApplyGetScanFlush exercises the whole region hot path
// concurrently: writers apply, readers get and scan, and the flusher
// freezes memstores and rewrites the view — under -race this validates the
// copy-on-write read view.
func TestRegionConcurrentApplyGetScanFlush(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	r, err := OpenRegion(fs, NewBlockCache(1<<20, nil), RegionInfo{ID: "cc-r000", Table: "t", Range: kv.KeyRange{}})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 3
		perG    = 1500
		rows    = 101
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ts := kv.Timestamp(w*perG + i + 1)
				r.Apply([]kv.KeyValue{mkKV(fmt.Sprintf("r%03d", i%rows), "f", ts, "v")})
			}
		}(w)
	}
	wg.Add(2)
	go func() { // reader
		defer wg.Done()
		for i := 0; i < perG; i++ {
			if _, _, err := r.Get(kv.Key(fmt.Sprintf("r%03d", i%rows)), "f", kv.MaxTimestamp); err != nil {
				t.Error(err)
				return
			}
			if i%32 == 0 {
				if _, err := scanRange(r, kv.KeyRange{Start: "r010", End: "r050"}, kv.MaxTimestamp, 10); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() { // flusher: freeze + flush + compact race against everything
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := r.Flush(512); err != nil {
				t.Error(err)
				return
			}
			if r.Files() > 3 {
				if err := r.Compact(512, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()

	// Post-condition: every row readable with its newest version.
	if err := r.Flush(512); err != nil {
		t.Fatal(err)
	}
	scan, err := scanRange(r, kv.KeyRange{}, kv.MaxTimestamp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan) != rows {
		t.Fatalf("final scan has %d rows, want %d", len(scan), rows)
	}
}

func BenchmarkMemStorePutParallel(b *testing.B) {
	m := NewMemStore()
	b.ReportAllocs()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			m.Put(mkKV(fmt.Sprintf("row%08d", i%100000), "c", kv.Timestamp(i), "value-payload-0123456789"))
		}
	})
}

func BenchmarkRegionGetParallel(b *testing.B) {
	fs := dfs.New(dfs.Config{})
	r, err := OpenRegion(fs, nil, RegionInfo{ID: "b-r000", Table: "t", Range: kv.KeyRange{}})
	if err != nil {
		b.Fatal(err)
	}
	const rows = 100000
	for i := 0; i < rows; i++ {
		r.Apply([]kv.KeyValue{mkKV(fmt.Sprintf("row%08d", i), "f", kv.Timestamp(i+1), "value-payload")})
	}
	b.ResetTimer()
	b.ReportAllocs()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			if _, ok, err := r.Get(kv.Key(fmt.Sprintf("row%08d", i%rows)), "f", kv.MaxTimestamp); !ok || err != nil {
				b.Fatalf("get: %v %v", ok, err)
			}
		}
	})
}

func BenchmarkRegionScanLimit(b *testing.B) {
	r, _ := buildRegionWithFiles(b, 4, 1000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := fmt.Sprintf("row%03d", i%900)
		if _, err := scanRange(r, kv.KeyRange{Start: kv.Key(start)}, kv.MaxTimestamp, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRegionScanLimitPushdown: a limited scan must stop at the limit and
// return the first rows in order, across memstore + file sources.
func TestRegionScanLimitPushdown(t *testing.T) {
	r, _ := buildRegionWithFiles(t, 3, 40)
	// Newer versions for some rows still in the memstore.
	r.Apply([]kv.KeyValue{mkKV("row005", "f", 9999, "fresh")})

	got, err := scanRange(r, kv.KeyRange{}, kv.MaxTimestamp, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("limit 7 returned %d entries", len(got))
	}
	for i, e := range got {
		want := kv.Key(fmt.Sprintf("row%03d", i))
		if e.Row != want {
			t.Fatalf("entry %d = %s, want %s", i, e.Row, want)
		}
	}
	if string(got[5].Value) != "fresh" {
		t.Fatalf("row005 = %q, want the memstore's newer version", got[5].Value)
	}
}

package kvstore

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"txkv/internal/kv"
)

func mkKV(row, col string, ts kv.Timestamp, val string) kv.KeyValue {
	return kv.KeyValue{
		Cell:  kv.Cell{Row: kv.Key(row), Column: col, TS: ts},
		Value: []byte(val),
	}
}

func TestMemStorePutGet(t *testing.T) {
	m := NewMemStore()
	m.Put(mkKV("r1", "c1", 10, "v10"))
	m.Put(mkKV("r1", "c1", 20, "v20"))
	m.Put(mkKV("r1", "c2", 15, "x"))
	m.Put(mkKV("r2", "c1", 5, "y"))

	tests := []struct {
		row, col  string
		maxTS     kv.Timestamp
		wantVal   string
		wantFound bool
	}{
		{"r1", "c1", kv.MaxTimestamp, "v20", true},
		{"r1", "c1", 20, "v20", true},
		{"r1", "c1", 19, "v10", true},
		{"r1", "c1", 10, "v10", true},
		{"r1", "c1", 9, "", false},
		{"r1", "c2", 14, "", false},
		{"r1", "c2", 15, "x", true},
		{"r2", "c1", kv.MaxTimestamp, "y", true},
		{"r3", "c1", kv.MaxTimestamp, "", false},
		{"r1", "c3", kv.MaxTimestamp, "", false},
	}
	for _, tt := range tests {
		got, found := m.Get(kv.Key(tt.row), tt.col, tt.maxTS)
		if found != tt.wantFound {
			t.Errorf("Get(%s,%s,%d) found=%v, want %v", tt.row, tt.col, tt.maxTS, found, tt.wantFound)
			continue
		}
		if found && string(got.Value) != tt.wantVal {
			t.Errorf("Get(%s,%s,%d) = %q, want %q", tt.row, tt.col, tt.maxTS, got.Value, tt.wantVal)
		}
	}
}

func TestMemStoreIdempotentPut(t *testing.T) {
	m := NewMemStore()
	e := mkKV("r", "c", 7, "v")
	m.Put(e)
	m.Put(e)
	m.Put(e)
	if m.Len() != 1 {
		t.Fatalf("Len = %d after replaying same cell, want 1", m.Len())
	}
	// Overwrite at same coordinate replaces value.
	m.Put(mkKV("r", "c", 7, "v2"))
	got, _ := m.Get("r", "c", 7)
	if string(got.Value) != "v2" {
		t.Fatalf("value after overwrite = %q", got.Value)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestMemStoreTombstone(t *testing.T) {
	m := NewMemStore()
	m.Put(mkKV("r", "c", 5, "alive"))
	del := kv.KeyValue{Cell: kv.Cell{Row: "r", Column: "c", TS: 9}, Tombstone: true}
	m.Put(del)
	got, found := m.Get("r", "c", kv.MaxTimestamp)
	if !found || !got.Tombstone {
		t.Fatalf("latest version should be the tombstone, got %v found=%v", got, found)
	}
	got, found = m.Get("r", "c", 8)
	if !found || got.Tombstone {
		t.Fatalf("read below tombstone should see the live value, got %v", got)
	}
}

func TestMemStoreAllSorted(t *testing.T) {
	m := NewMemStore()
	rng := rand.New(rand.NewSource(42))
	const n = 500
	for i := 0; i < n; i++ {
		m.Put(mkKV(fmt.Sprintf("row%03d", rng.Intn(50)), fmt.Sprintf("c%d", rng.Intn(3)),
			kv.Timestamp(rng.Intn(100)), "v"))
	}
	all := m.All()
	if len(all) != m.Len() {
		t.Fatalf("All len %d != Len %d", len(all), m.Len())
	}
	for i := 1; i < len(all); i++ {
		if kv.CompareCells(all[i-1].Cell, all[i].Cell) >= 0 {
			t.Fatalf("not sorted at %d: %v then %v", i, all[i-1], all[i])
		}
	}
}

func TestMemStoreScanRange(t *testing.T) {
	m := NewMemStore()
	for i := 0; i < 10; i++ {
		m.Put(mkKV(fmt.Sprintf("r%d", i), "c", kv.Timestamp(i+1), "v"))
	}
	got := m.ScanRange(nil, kv.KeyRange{Start: "r3", End: "r7"}, kv.MaxTimestamp)
	if len(got) != 4 {
		t.Fatalf("scan [r3,r7) returned %d entries, want 4", len(got))
	}
	if got[0].Row != "r3" || got[3].Row != "r6" {
		t.Fatalf("scan bounds wrong: %v ... %v", got[0], got[3])
	}
	// Timestamp filter.
	got = m.ScanRange(nil, kv.KeyRange{}, 5)
	if len(got) != 5 {
		t.Fatalf("scan maxTS=5 returned %d entries, want 5", len(got))
	}
	// Unbounded range.
	got = m.ScanRange(nil, kv.KeyRange{}, kv.MaxTimestamp)
	if len(got) != 10 {
		t.Fatalf("full scan returned %d", len(got))
	}
}

func TestMemStoreSizeAccounting(t *testing.T) {
	m := NewMemStore()
	if m.ApproxSize() != 0 {
		t.Fatal("empty store must have zero size")
	}
	m.Put(mkKV("r", "c", 1, "0123456789"))
	s1 := m.ApproxSize()
	if s1 <= 0 {
		t.Fatal("size must grow on insert")
	}
	m.Put(mkKV("r", "c", 1, "01")) // overwrite with smaller value
	if m.ApproxSize() >= s1 {
		t.Fatalf("size must shrink on smaller overwrite: %d -> %d", s1, m.ApproxSize())
	}
}

// TestMemStoreQuickVsModel cross-checks the skiplist against a sorted-slice
// reference model with random operations.
func TestMemStoreQuickVsModel(t *testing.T) {
	type op struct {
		Row, Col uint8
		TS       uint8
		Read     bool
	}
	f := func(ops []op) bool {
		m := NewMemStore()
		model := make(map[kv.Cell][]byte)
		for i, o := range ops {
			row := kv.Key(fmt.Sprintf("r%d", o.Row%16))
			col := fmt.Sprintf("c%d", o.Col%4)
			ts := kv.Timestamp(o.TS%32) + 1
			if o.Read {
				got, found := m.Get(row, col, ts)
				// Model: max ts' <= ts present.
				var best kv.Timestamp
				var bestVal []byte
				ok := false
				for c, v := range model {
					if c.Row == row && c.Column == col && c.TS <= ts && (!ok || c.TS > best) {
						best, bestVal, ok = c.TS, v, true
					}
				}
				if found != ok {
					return false
				}
				if found && (got.TS != best || string(got.Value) != string(bestVal)) {
					return false
				}
			} else {
				val := []byte(fmt.Sprintf("v%d", i))
				m.Put(kv.KeyValue{Cell: kv.Cell{Row: row, Column: col, TS: ts}, Value: val})
				model[kv.Cell{Row: row, Column: col, TS: ts}] = val
			}
		}
		// Final: All() must equal sorted model.
		all := m.All()
		if len(all) != len(model) {
			return false
		}
		keys := make([]kv.Cell, 0, len(model))
		for c := range model {
			keys = append(keys, c)
		}
		sort.Slice(keys, func(i, j int) bool { return kv.CompareCells(keys[i], keys[j]) < 0 })
		for i, c := range keys {
			if all[i].Cell != c || string(all[i].Value) != string(model[c]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMemStoreConcurrentReadWrite(t *testing.T) {
	m := NewMemStore()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			m.Put(mkKV(fmt.Sprintf("r%d", i%37), "c", kv.Timestamp(i+1), "v"))
		}
	}()
	for i := 0; i < 2000; i++ {
		m.Get(kv.Key(fmt.Sprintf("r%d", i%37)), "c", kv.MaxTimestamp)
		m.ScanRange(nil, kv.KeyRange{Start: "r1", End: "r2"}, kv.MaxTimestamp)
	}
	<-done
}

// TestMemStoreConcurrentInsertOrder stresses concurrent inserts into the
// same few rows: every level-0 link must stay in strict cell order. An
// insert that links against a successor it never compared (a reload of
// pred.next after the search) puts a cell after a larger one, which a read
// then sees as a stale version.
func TestMemStoreConcurrentInsertOrder(t *testing.T) {
	const writers, puts, rows = 4, 400, 50
	for iter := 0; iter < 50; iter++ {
		m := NewMemStore()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < puts; i++ {
					ts := kv.Timestamp(i*writers + w + 1)
					m.Put(mkKV(fmt.Sprintf("r%02d", i%rows), "c", ts, "v"))
				}
			}(w)
		}
		wg.Wait()
		n := 0
		var prev *skipNode
		for x := m.head.next[0].Load(); x != nil; x = x.next[0].Load() {
			if prev != nil && kv.CompareCells(prev.cell, x.cell) >= 0 {
				t.Fatalf("iteration %d: level 0 out of order: %v then %v", iter, prev.cell, x.cell)
			}
			prev = x
			n++
		}
		if n != writers*puts {
			t.Fatalf("iteration %d: level 0 holds %d cells, want %d", iter, n, writers*puts)
		}
	}
}

// TestMemStoreGetNeverReturnsFutureVersion reads one cell at the newest
// committed timestamp while a writer keeps inserting newer versions of it,
// each directly behind the node the reader's seek stands on. A seek that
// re-loads its predecessor's link after comparing the successor can return
// such a newer version: a snapshot read of the future.
func TestMemStoreGetNeverReturnsFutureVersion(t *testing.T) {
	const versions = 100_000
	m := NewMemStore()
	m.Put(mkKV("r", "c", 1, "v"))
	var committed atomic.Int64
	committed.Store(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ts := kv.Timestamp(2); ts <= versions; ts++ {
			m.Put(mkKV("r", "c", ts, "v"))
			committed.Store(int64(ts))
		}
		close(stop)
	}()
	reads := 0
	for done := false; !done; reads++ {
		select {
		case <-stop:
			done = true
		default:
		}
		maxTS := kv.Timestamp(committed.Load())
		e, ok := m.Get("r", "c", maxTS)
		if !ok || e.TS != maxTS {
			t.Fatalf("read %d: Get at %d returned version %d (found %v), want %d", reads, maxTS, e.TS, ok, maxTS)
		}
	}
	wg.Wait()
}

func BenchmarkMemStorePut(b *testing.B) {
	m := NewMemStore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Put(mkKV(fmt.Sprintf("row%08d", i%100000), "c", kv.Timestamp(i+1), "value-payload-0123456789"))
	}
}

func BenchmarkMemStoreGet(b *testing.B) {
	m := NewMemStore()
	for i := 0; i < 100000; i++ {
		m.Put(mkKV(fmt.Sprintf("row%08d", i), "c", kv.Timestamp(i+1), "value-payload"))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Get(kv.Key(fmt.Sprintf("row%08d", i%100000)), "c", kv.MaxTimestamp)
	}
}

package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"txkv/internal/compress"
	"txkv/internal/dfs"
	"txkv/internal/kv"
)

// compressibleEntries returns sorted rows whose values snappy genuinely
// shrinks: the writer's raw-frame fallback would otherwise kick in and the
// corruption cases below would be exercising the wrong decoder.
func compressibleEntries(n int) []kv.KeyValue {
	entries := make([]kv.KeyValue, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, mkKV(
			fmt.Sprintf("row%05d", i), "c", kv.Timestamp(i+1),
			fmt.Sprintf("val%d-%s", i, strings.Repeat("abcdef", 8))))
	}
	return entries
}

// corruptCopy reads src, hands a private copy to mutate, and writes the
// result to dst. DFS files are append-only, so corruption is modeled as a
// mutated sibling rather than an in-place edit.
func corruptCopy(t *testing.T, fs *dfs.FS, src, dst string, mutate func([]byte) []byte) {
	t.Helper()
	orig, err := fs.ReadAll(src)
	if err != nil {
		t.Fatalf("read %s: %v", src, err)
	}
	b := mutate(append([]byte(nil), orig...))
	w, err := fs.Create(dst)
	if err != nil {
		t.Fatalf("create %s: %v", dst, err)
	}
	if err := w.Append(b); err != nil {
		t.Fatalf("append %s: %v", dst, err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync %s: %v", dst, err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close %s: %v", dst, err)
	}
}

// TestStoreFileV2CorruptionRejected flips bytes in every structural section
// of a v2 file — frame header, compressed payload, bloom section, footer —
// and expects ErrBadStoreFile from open or from the first read that touches
// the damage, never a silent wrong answer or a panic.
func TestStoreFileV2CorruptionRejected(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	entries := compressibleEntries(500)
	if _, err := WriteStoreFile(fs, "/data/v2", entries, 256); err != nil {
		t.Fatal(err)
	}
	orig, err := fs.ReadAll("/data/v2")
	if err != nil {
		t.Fatal(err)
	}
	// The first frame must actually be snappy-compressed, or the payload
	// case below would corrupt a raw frame instead.
	if orig[0] != compress.IDSnappy {
		t.Fatalf("first frame codec = %d, want snappy (values not compressible?)", orig[0])
	}
	footer := orig[len(orig)-footerSizeV2:]
	bloomOff := int64(binary.BigEndian.Uint64(footer[12:20]))
	if bloomLen := binary.BigEndian.Uint32(footer[20:24]); bloomLen == 0 {
		t.Fatal("v2 file written without a bloom section")
	}

	cases := []struct {
		name string
		// openFails: the damage must be caught at OpenStoreFile; otherwise
		// the open succeeds and the first Get through the block must fail.
		openFails bool
		mutate    func(b []byte) []byte
	}{
		{"unknown frame codec id", false, func(b []byte) []byte {
			b[0] = 0x7F
			return b
		}},
		{"corrupt snappy payload", false, func(b []byte) []byte {
			for i := 1; i < 7; i++ {
				b[i] = 0xFF
			}
			return b
		}},
		{"corrupt bloom header", true, func(b []byte) []byte {
			b[bloomOff] = 0x7F // bloom format-version byte
			return b
		}},
		{"corrupt footer version byte", true, func(b []byte) []byte {
			b[len(b)-(footerSizeV2-25)] = 0x09
			return b
		}},
		{"corrupt footer magic", true, func(b []byte) []byte {
			b[len(b)-1] ^= 0xFF
			return b
		}},
		{"body truncated under footer", true, func(b []byte) []byte {
			// Keep a valid footer whose index/bloom offsets now point past
			// the end of the file: the extent validation must reject it.
			return b[len(b)-64:]
		}},
		{"index count beyond index bytes", true, func(b []byte) []byte {
			return withIndex(b, func(idx []byte) []byte {
				_, n := binary.Uvarint(idx)
				return append(binary.AppendUvarint(nil, 1<<62), idx[n:]...)
			})
		}},
		{"block extent past index", true, func(b []byte) []byte {
			return withIndexEntries(b, func(es []indexEntry) { es[0].length = 1 << 40 })
		}},
		{"negative block offset", true, func(b []byte) []byte {
			return withIndexEntries(b, func(es []indexEntry) { es[0].offset = -1 })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := "/data/corrupt-" + strings.ReplaceAll(tc.name, " ", "-")
			corruptCopy(t, fs, "/data/v2", path, tc.mutate)
			sf, err := OpenStoreFile(fs, path)
			if tc.openFails {
				if !errors.Is(err, ErrBadStoreFile) {
					t.Fatalf("open: got %v, want ErrBadStoreFile", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("open should succeed (footer intact): %v", err)
			}
			_, _, err = sf.Get(entries[0].Row, "c", kv.MaxTimestamp, nil)
			if !errors.Is(err, ErrBadStoreFile) {
				t.Fatalf("get through corrupt block: got %v, want ErrBadStoreFile", err)
			}
		})
	}

	// The pristine original still reads back — the mutated siblings never
	// touched it.
	sf, err := OpenStoreFile(fs, "/data/v2")
	if err != nil {
		t.Fatal(err)
	}
	got, found, err := sf.Get(entries[42].Row, "c", kv.MaxTimestamp, nil)
	if err != nil || !found || string(got.Value) != string(entries[42].Value) {
		t.Fatalf("original after corruption tests: %v %v %v", got, found, err)
	}
}

// withIndex rebuilds a store file around a replacement index section: the
// blocks and bloom are kept, and the footer's index length and bloom
// offset follow the new index, so only the index content is corrupt.
func withIndex(b []byte, replace func(idx []byte) []byte) []byte {
	footer := append([]byte(nil), b[len(b)-footerSizeV2:]...)
	idxOff := binary.BigEndian.Uint64(footer[0:8])
	idxLen := uint64(binary.BigEndian.Uint32(footer[8:12]))
	bloomOff := binary.BigEndian.Uint64(footer[12:20])
	bloomLen := uint64(binary.BigEndian.Uint32(footer[20:24]))
	idx := replace(b[idxOff : idxOff+idxLen])
	binary.BigEndian.PutUint32(footer[8:12], uint32(len(idx)))
	binary.BigEndian.PutUint64(footer[12:20], idxOff+uint64(len(idx)))
	out := append(append([]byte(nil), b[:idxOff]...), idx...)
	out = append(out, b[bloomOff:bloomOff+bloomLen]...)
	return append(out, footer...)
}

// withIndexEntries rewrites the decoded index entries through edit.
func withIndexEntries(b []byte, edit func([]indexEntry)) []byte {
	return withIndex(b, func(idx []byte) []byte {
		es, err := decodeIndex(idx)
		if err != nil {
			panic(err)
		}
		edit(es)
		out := binary.AppendUvarint(nil, uint64(len(es)))
		for _, e := range es {
			out = appendIndexEntry(out, e)
		}
		return out
	})
}

// writeV1StoreFile lays down a store file in the retired format v1 — one
// unframed block, the index, and a 20-byte footer ending in the v1 magic —
// as builds before format v2 wrote it.
func writeV1StoreFile(t *testing.T, fs *dfs.FS, path string, entries []kv.KeyValue) {
	t.Helper()
	var block []byte
	for _, e := range entries {
		block = kv.AppendKeyValue(block, e)
	}
	idx := binary.AppendUvarint(nil, 1)
	idx = appendIndexEntry(idx, indexEntry{first: entries[0].Cell, offset: 0, length: len(block)})
	footer := binary.BigEndian.AppendUint64(nil, uint64(len(block)))
	footer = binary.BigEndian.AppendUint32(footer, uint32(len(idx)))
	footer = binary.BigEndian.AppendUint64(footer, 0x7874734653544f52) // "xtsFSTOR"
	w, err := fs.CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{block, idx, footer} {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStoreFileRejectsV1: a format-v1 file is no longer readable. The
// open must fail with ErrBadStoreFile — and so must opening a region that
// holds one — rather than serve the file's bytes under the wrong layout.
func TestOpenStoreFileRejectsV1(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	info := RegionInfo{ID: "t-r000", Table: "t", Range: kv.KeyRange{}}
	path := dataDir(info.Table, info.ID) + "00000001.sf"
	writeV1StoreFile(t, fs, path, compressibleEntries(20))

	if _, err := OpenStoreFile(fs, path); !errors.Is(err, ErrBadStoreFile) {
		t.Fatalf("open v1 file: got %v, want ErrBadStoreFile", err)
	}
	if _, err := OpenRegion(fs, NewBlockCache(1<<20), info); !errors.Is(err, ErrBadStoreFile) {
		t.Fatalf("open region holding a v1 file: got %v, want ErrBadStoreFile", err)
	}
}

// FuzzOpenStoreFile feeds mutated store files to the opener. Whatever the
// bytes, open, a point read and a full scan each return a result or an
// error; none may panic or allocate from an unchecked length.
func FuzzOpenStoreFile(f *testing.F) {
	seedFS := dfs.New(dfs.Config{})
	if _, err := WriteStoreFile(seedFS, "/seed", compressibleEntries(8), 128); err != nil {
		f.Fatal(err)
	}
	seed, err := seedFS.ReadAll("/seed")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, b []byte) {
		fs := dfs.New(dfs.Config{})
		w, err := fs.CreateFile("/f")
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sf, err := OpenStoreFile(fs, "/f")
		if err != nil {
			return
		}
		cache := NewBlockCache(1 << 20)
		_, _, _ = sf.Get("row00003", "c", kv.MaxTimestamp, cache)
		_, _ = sf.ScanRange(nil, kv.KeyRange{}, kv.MaxTimestamp, cache)
	})
}

// TestCompactTieredSelectsReferencesAndConverges drives a region holding a
// split-reference file and flush generations of mixed sizes through tiered
// compaction: the reference is in the must-rewrite set, repeated rounds
// converge (CompactTiered eventually reports no work), and every generation
// still reads back under horizon 0.
func TestCompactTieredSelectsReferencesAndConverges(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	cache := NewBlockCache(1 << 20)
	info := RegionInfo{ID: "t-r000", Table: "t", Range: kv.KeyRange{}}
	gens := []int{200, 20, 20, 100, 5} // rows per generation
	genKVs := func(gen int) []kv.KeyValue {
		batch := make([]kv.KeyValue, 0, gens[gen])
		for i := 0; i < gens[gen]; i++ {
			batch = append(batch, mkKV(
				fmt.Sprintf("row%05d", i), "c", kv.Timestamp(gen*1000+i+1),
				fmt.Sprintf("g%d-%d", gen, i)))
		}
		return batch
	}

	// Generation 0 lives in a parent region's file, reached through a
	// reference as a split daughter would after a split.
	parent := dataDir(info.Table, "t-parent") + "00000000.sf"
	if _, err := WriteStoreFile(fs, parent, genKVs(0), 256); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRegion(fs, cache, info)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRef(r, info.Table, info.ID, 0, parent); err != nil {
		t.Fatal(err)
	}
	if r, err = OpenRegion(fs, cache, info); err != nil {
		t.Fatal(err)
	}
	for gen := 1; gen < len(gens); gen++ {
		r.Apply(genKVs(gen))
		if err := r.Flush(256); err != nil {
			t.Fatalf("flush gen %d: %v", gen, err)
		}
	}

	v := r.acquireView()
	if len(v.files) != len(gens) {
		t.Fatalf("%d files, want %d", len(v.files), len(gens))
	}
	var refSelected bool
	for _, f := range selectCompactionInputs(v.files) {
		refSelected = refSelected || f.refMarker != ""
	}
	r.releaseView(v)
	if !refSelected {
		t.Fatal("split-reference file missing from the must-rewrite set")
	}

	for rounds := 0; ; rounds++ {
		if rounds >= 5 {
			t.Fatal("tiered compaction does not converge within 5 rounds")
		}
		changed, err := r.CompactTiered(256, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !changed {
			break
		}
	}
	v = r.acquireView()
	for _, f := range v.files {
		if f.refMarker != "" {
			t.Fatalf("reference %s survived tiered compaction", f.refMarker)
		}
	}
	r.releaseView(v)

	for gen, n := range gens {
		for i := 0; i < n; i++ {
			row := kv.Key(fmt.Sprintf("row%05d", i))
			got, found, err := r.Get(row, "c", kv.Timestamp(gen*1000+i+1))
			if want := fmt.Sprintf("g%d-%d", gen, i); err != nil || !found || string(got.Value) != want {
				t.Fatalf("row %s at gen %d: %q %v %v, want %q", row, gen, got.Value, found, err, want)
			}
		}
	}
}

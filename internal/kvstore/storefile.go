package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"txkv/internal/bloom"
	"txkv/internal/compress"
	"txkv/internal/dfs"
	"txkv/internal/kv"
)

// Store files are the immutable, sorted on-DFS files produced by memstore
// flushes (HBase's HFiles). Layout (format version 2):
//
//	[framed block]* [index] [bloom] [footer]
//
// Each data block holds consecutive encoded KeyValues up to ~blockSize bytes
// before framing. A frame is [codecID byte][payload]: the writer encodes the
// block with snappy but falls back to storing it raw (codec ID 0) when
// compression does not shrink it, so every block is self-describing.
// The bloom section is a serialized row-key filter probed by point reads to
// skip files that cannot contain a row. The fixed-size footer records the
// index and bloom extents, the file codec, a version byte, and a magic
// number. Point reads binary-search the in-memory index and fetch exactly
// one block through the server's block cache, which holds *decompressed*
// bytes so a cache hit never pays decompression.
//
// Format version 1 (unframed blocks, no bloom, a 20-byte footer with its own
// magic) is no longer read: such a file fails OpenStoreFile with
// ErrBadStoreFile, so a region holding one refuses to open instead of
// serving wrong data.

const (
	defaultBlockSize = 4096

	storeFileMagicV2 = 0x7874734653543256 // "xtsFST2V"

	// footerSizeV2 is indexOff(8) indexLen(4) bloomOff(8) bloomLen(4)
	// codec(1) version(1) magic(8).
	footerSizeV2 = 8 + 4 + 8 + 4 + 1 + 1 + 8

	// storeFileV2 is the format version byte in the footer.
	storeFileV2 = 2

	// bloomBitsPerKey sizes the row-key bloom filter: 10 bits/key gives ~1%
	// false positives at ~1.25 bytes/row of overhead.
	bloomBitsPerKey = 10
)

// ErrBadStoreFile reports a malformed store file.
var ErrBadStoreFile = errors.New("kvstore: malformed store file")

type indexEntry struct {
	first  kv.Cell
	offset int64
	length int
}

func appendIndexEntry(b []byte, e indexEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(e.first.Row)))
	b = append(b, e.first.Row...)
	b = binary.AppendUvarint(b, uint64(len(e.first.Column)))
	b = append(b, e.first.Column...)
	b = binary.AppendUvarint(b, uint64(e.first.TS))
	b = binary.AppendUvarint(b, uint64(e.offset))
	b = binary.AppendUvarint(b, uint64(e.length))
	return b
}

func decodeIndex(b []byte) ([]indexEntry, error) {
	n, rest := binary.Uvarint(b)
	if rest <= 0 {
		return nil, ErrBadStoreFile
	}
	b = b[rest:]
	if n > uint64(len(b)) {
		// Every entry takes at least one byte: a larger count is corrupt
		// and must not size the allocation below.
		return nil, ErrBadStoreFile
	}
	out := make([]indexEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		var e indexEntry
		l, c := binary.Uvarint(b)
		if c <= 0 || uint64(len(b)) < uint64(c)+l {
			return nil, ErrBadStoreFile
		}
		e.first.Row = kv.Key(b[c : uint64(c)+l])
		b = b[uint64(c)+l:]
		l, c = binary.Uvarint(b)
		if c <= 0 || uint64(len(b)) < uint64(c)+l {
			return nil, ErrBadStoreFile
		}
		e.first.Column = string(b[c : uint64(c)+l])
		b = b[uint64(c)+l:]
		ts, c := binary.Uvarint(b)
		if c <= 0 {
			return nil, ErrBadStoreFile
		}
		e.first.TS = kv.Timestamp(ts)
		b = b[c:]
		off, c := binary.Uvarint(b)
		if c <= 0 {
			return nil, ErrBadStoreFile
		}
		e.offset = int64(off)
		b = b[c:]
		ln, c := binary.Uvarint(b)
		if c <= 0 {
			return nil, ErrBadStoreFile
		}
		e.length = int(ln)
		b = b[c:]
		out = append(out, e)
	}
	return out, nil
}

// tmpSuffix marks an in-flight store-file write. A store file becomes
// visible at its final name only via an atomic rename after its full
// contents are synced, so a crash mid-write can never surface a
// half-written file — at worst it leaves a *.tmp orphan, which OpenRegion
// sweeps.
const tmpSuffix = ".tmp"

// StoreFileOptions control how WriteStoreFileWith lays a file down.
type StoreFileOptions struct {
	// BlockSize is the target uncompressed block size; 0 means the default.
	BlockSize int
	// metrics, when non-nil, counts compressed/uncompressed block bytes as
	// the file is written.
	metrics *storeMetrics
}

// WriteStoreFile writes the sorted entries as a store file at path with
// default options and returns an opened reader for it. Entries must already
// be in store order.
func WriteStoreFile(fs dfs.FileSystem, path string, entries []kv.KeyValue, blockSize int) (*StoreFile, error) {
	return WriteStoreFileWith(fs, path, entries, StoreFileOptions{BlockSize: blockSize})
}

// WriteStoreFileWith writes the sorted entries as a store file at path and
// returns an opened reader for it. The bytes are written to a temporary
// sibling, synced, and only then renamed to path (a journaled name-node
// metadata operation), so the file is either fully present under its final
// name or not present at all.
func WriteStoreFileWith(fs dfs.FileSystem, path string, entries []kv.KeyValue, opts StoreFileOptions) (*StoreFile, error) {
	if opts.BlockSize <= 0 {
		opts.BlockSize = defaultBlockSize
	}
	tmp := path + tmpSuffix
	w, err := fs.CreateFile(tmp)
	if err != nil {
		return nil, fmt.Errorf("kvstore: create store file: %w", err)
	}
	committed := false
	defer func() {
		if !committed {
			_ = w.Close()
			_ = fs.Delete(tmp)
		}
	}()

	codec := compress.Snappy{}
	var filter *bloom.Filter
	if len(entries) > 0 {
		// Entries are sorted, so distinct rows are a single pass.
		rows := 1
		for i := 1; i < len(entries); i++ {
			if entries[i].Row != entries[i-1].Row {
				rows++
			}
		}
		filter = bloom.New(rows, bloomBitsPerKey)
	}

	var (
		index    []indexEntry
		blockBuf []byte
		frameBuf []byte
		fileOff  int64
	)
	flushBlock := func(first kv.Cell) error {
		if len(blockBuf) == 0 {
			return nil
		}
		// Frame: [codecID][payload], falling back to a raw frame when the
		// codec does not shrink the block.
		frameBuf = append(frameBuf[:0], codec.ID())
		frameBuf = codec.Encode(frameBuf, blockBuf)
		if len(frameBuf)-1 >= len(blockBuf) {
			frameBuf = append(frameBuf[:0], compress.IDNone)
			frameBuf = append(frameBuf, blockBuf...)
		}
		if m := opts.metrics; m != nil {
			m.blockUncompressed.Add(int64(len(blockBuf)))
			m.blockCompressed.Add(int64(len(frameBuf) - 1))
		}
		index = append(index, indexEntry{first: first, offset: fileOff, length: len(frameBuf)})
		if err := w.Append(frameBuf); err != nil {
			return err
		}
		fileOff += int64(len(frameBuf))
		blockBuf = blockBuf[:0]
		return nil
	}
	var blockFirst kv.Cell
	var prevRow kv.Key
	for i, e := range entries {
		if len(blockBuf) == 0 {
			blockFirst = e.Cell
		}
		if filter != nil && (i == 0 || e.Row != prevRow) {
			filter.Add(string(e.Row))
		}
		prevRow = e.Row
		blockBuf = kv.AppendKeyValue(blockBuf, e)
		if len(blockBuf) >= opts.BlockSize {
			if err := flushBlock(blockFirst); err != nil {
				return nil, err
			}
		}
	}
	if err := flushBlock(blockFirst); err != nil {
		return nil, err
	}

	idx := binary.AppendUvarint(nil, uint64(len(index)))
	for _, e := range index {
		idx = appendIndexEntry(idx, e)
	}
	if err := w.Append(idx); err != nil {
		return nil, err
	}
	bloomOff := fileOff + int64(len(idx))
	var bloomBytes []byte
	if filter != nil {
		bloomBytes = filter.Marshal(nil)
		if err := w.Append(bloomBytes); err != nil {
			return nil, err
		}
	}
	var footer [footerSizeV2]byte
	binary.BigEndian.PutUint64(footer[0:8], uint64(fileOff))
	binary.BigEndian.PutUint32(footer[8:12], uint32(len(idx)))
	binary.BigEndian.PutUint64(footer[12:20], uint64(bloomOff))
	binary.BigEndian.PutUint32(footer[20:24], uint32(len(bloomBytes)))
	footer[24] = codec.ID()
	footer[25] = storeFileV2
	binary.BigEndian.PutUint64(footer[26:34], storeFileMagicV2)
	if err := w.Append(footer[:]); err != nil {
		return nil, err
	}
	size := bloomOff + int64(len(bloomBytes)) + footerSizeV2
	if err := w.Sync(); err != nil {
		return nil, fmt.Errorf("kvstore: sync store file: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("kvstore: publish store file: %w", err)
	}
	committed = true
	return &StoreFile{fs: fs, path: path, index: index, bloom: filter, size: size}, nil
}

// StoreFile reads an immutable sorted file. The index and the bloom filter
// are held in memory (HBase keeps HFile indexes resident); data blocks are
// fetched through a BlockCache.
type StoreFile struct {
	fs    dfs.FileSystem
	path  string
	index []indexEntry
	bloom *bloom.Filter // nil for an empty file
	size  int64         // on-disk byte size, for tier selection
	// refMarker is the path of the reference file this store file was
	// opened through (region splits share parent files via references);
	// empty for files owned by the region itself. Compactions delete the
	// marker, never the shared target.
	refMarker string

	// Lifecycle state, guarded by lifeMu. refs counts the read views
	// holding this file; retired marks it as a compaction input whose
	// replacement is live; unlinked latches physical deletion so the
	// retire/last-unref race can't delete twice. This is deliberately a
	// mutex, not atomics: it is touched only at view construction, view
	// drain, and retirement — never on the per-read hot path, which counts
	// references on the view instead.
	lifeMu   sync.Mutex
	refs     int
	retired  bool
	unlinked bool
}

// ref records that one more read view holds this file.
func (s *StoreFile) ref() {
	s.lifeMu.Lock()
	s.refs++
	s.lifeMu.Unlock()
}

// unref drops one view's hold and reports whether the caller must now
// physically unlink the file (it was retired and this was the last hold).
func (s *StoreFile) unref() bool {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	s.refs--
	if s.refs == 0 && s.retired && !s.unlinked {
		s.unlinked = true
		return true
	}
	return false
}

// retire marks the file for deferred deletion and reports whether the
// caller must unlink it immediately (no view holds it anymore).
func (s *StoreFile) retire() bool {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	s.retired = true
	if s.refs == 0 && !s.unlinked {
		s.unlinked = true
		return true
	}
	return false
}

// OpenStoreFile opens the store file at path. The footer must carry the
// current version byte and magic; anything else, including a format-v1
// file, is ErrBadStoreFile.
func OpenStoreFile(fs dfs.FileSystem, path string) (*StoreFile, error) {
	size, err := fs.Size(path)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open store file: %w", err)
	}
	if size < footerSizeV2 {
		return nil, fmt.Errorf("%w: %s too small", ErrBadStoreFile, path)
	}
	footer, err := fs.ReadRange(path, size-footerSizeV2, footerSizeV2)
	if err != nil {
		return nil, err
	}
	if len(footer) != footerSizeV2 || footer[25] != storeFileV2 ||
		binary.BigEndian.Uint64(footer[26:34]) != storeFileMagicV2 {
		return nil, fmt.Errorf("%w: %s bad footer", ErrBadStoreFile, path)
	}
	if _, err := compress.ForID(footer[24]); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadStoreFile, path, err)
	}
	idxOff := int64(binary.BigEndian.Uint64(footer[0:8]))
	idxLen := int(binary.BigEndian.Uint32(footer[8:12]))
	index, err := readIndexSection(fs, path, size, idxOff, idxLen)
	if err != nil {
		return nil, err
	}
	bloomOff := int64(binary.BigEndian.Uint64(footer[12:20]))
	bloomLen := int(binary.BigEndian.Uint32(footer[20:24]))
	var filter *bloom.Filter
	if bloomLen > 0 {
		if bloomOff < 0 || bloomOff+int64(bloomLen) > size {
			return nil, fmt.Errorf("%w: %s bloom extent out of bounds", ErrBadStoreFile, path)
		}
		bb, err := fs.ReadRange(path, bloomOff, bloomLen)
		if err != nil {
			return nil, err
		}
		filter, err = bloom.Unmarshal(bb)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrBadStoreFile, path, err)
		}
	}
	return &StoreFile{fs: fs, path: path, index: index, bloom: filter, size: size}, nil
}

// readIndexSection validates the index extent and decodes it.
func readIndexSection(fs dfs.FileSystem, path string, size, idxOff int64, idxLen int) ([]indexEntry, error) {
	if idxOff < 0 || idxLen < 0 || idxOff+int64(idxLen) > size {
		return nil, fmt.Errorf("%w: %s index extent out of bounds", ErrBadStoreFile, path)
	}
	idxBytes, err := fs.ReadRange(path, idxOff, idxLen)
	if err != nil {
		return nil, err
	}
	index, err := decodeIndex(idxBytes)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	// Blocks precede the index: an extent reaching past it is corrupt.
	for _, e := range index {
		if e.offset < 0 || e.length < 0 || e.offset > idxOff || int64(e.length) > idxOff-e.offset {
			return nil, fmt.Errorf("%w: %s block extent out of bounds", ErrBadStoreFile, path)
		}
	}
	return index, nil
}

// Path returns the DFS path of the file.
func (s *StoreFile) Path() string { return s.path }

// DiskSize returns the file's on-disk byte size, used by size-tiered
// compaction selection.
func (s *StoreFile) DiskSize() int64 { return s.size }

// MayContainRow probes the file's bloom filter. False is definitive: the
// file holds no cell of row. A file without a filter (an empty one)
// reports true. Allocation-free.
func (s *StoreFile) MayContainRow(row kv.Key) bool {
	return s.bloom.MayContain(string(row))
}

// hasBloom reports whether the file carries a bloom filter, i.e. whether a
// MayContainRow answer is informative.
func (s *StoreFile) hasBloom() bool { return s.bloom != nil }

// OpenStoreFileRef opens a store file through a reference marker: the
// marker file's contents are the referenced store-file path.
func OpenStoreFileRef(fs dfs.FileSystem, refPath string) (*StoreFile, error) {
	target, err := fs.ReadAll(refPath)
	if err != nil {
		return nil, fmt.Errorf("kvstore: read reference %s: %w", refPath, err)
	}
	sf, err := OpenStoreFile(fs, string(target))
	if err != nil {
		return nil, fmt.Errorf("kvstore: reference %s: %w", refPath, err)
	}
	sf.refMarker = refPath
	return sf, nil
}

// blockCacheKey names one store-file block in the server's block cache.
func blockCacheKey(path string, i int) string {
	return fmt.Sprintf("%s#%d", path, i)
}

// block returns the decoded entries of block i, consulting the cache. The
// cache holds decompressed bytes: a hit never pays decompression, and the
// cache charge is the decompressed length.
func (s *StoreFile) block(i int, cache *BlockCache) ([]kv.KeyValue, error) {
	key := blockCacheKey(s.path, i)
	var raw []byte
	if cache != nil {
		if b, ok := cache.Get(key); ok {
			raw = b
		}
	}
	if raw == nil {
		b, err := s.fs.ReadRange(s.path, s.index[i].offset, s.index[i].length)
		if err != nil {
			return nil, err
		}
		if len(b) == 0 {
			return nil, fmt.Errorf("%w: %s block %d empty frame", ErrBadStoreFile, s.path, i)
		}
		codec, err := compress.ForID(b[0])
		if err != nil {
			return nil, fmt.Errorf("%w: %s block %d: %v", ErrBadStoreFile, s.path, i, err)
		}
		raw, err = codec.Decode(nil, b[1:])
		if err != nil {
			return nil, fmt.Errorf("%w: %s block %d: %v", ErrBadStoreFile, s.path, i, err)
		}
		if cache != nil {
			cache.Put(key, raw)
		}
	}
	var out []kv.KeyValue
	rest := raw
	for len(rest) > 0 {
		var e kv.KeyValue
		var err error
		e, rest, err = kv.DecodeKeyValue(rest)
		if err != nil {
			return nil, fmt.Errorf("%s block %d: %w", s.path, i, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// findBlock returns the index of the last block whose first cell is <= c,
// or -1 if c precedes the whole file.
func (s *StoreFile) findBlock(c kv.Cell) int {
	// sort.Search finds the first block with first-cell > c; the target is
	// the one before it.
	i := sort.Search(len(s.index), func(i int) bool {
		return kv.CompareCells(s.index[i].first, c) > 0
	})
	return i - 1
}

// Get returns the newest version of (row, column) with ts <= maxTS in this
// file.
func (s *StoreFile) Get(row kv.Key, column string, maxTS kv.Timestamp, cache *BlockCache) (kv.KeyValue, bool, error) {
	if len(s.index) == 0 {
		return kv.KeyValue{}, false, nil
	}
	target := kv.Cell{Row: row, Column: column, TS: maxTS}
	bi := s.findBlock(target)
	if bi < 0 {
		bi = 0
	}
	for ; bi < len(s.index); bi++ {
		entries, err := s.block(bi, cache)
		if err != nil {
			return kv.KeyValue{}, false, err
		}
		for _, e := range entries {
			if kv.CompareCells(e.Cell, target) < 0 {
				continue
			}
			if e.Row == row && e.Column == column {
				return e, true, nil
			}
			return kv.KeyValue{}, false, nil
		}
		// Entire block was before the target; continue to the next block.
	}
	return kv.KeyValue{}, false, nil
}

// ScanRange appends every entry within r with ts <= maxTS to dst.
func (s *StoreFile) ScanRange(dst []kv.KeyValue, r kv.KeyRange, maxTS kv.Timestamp, cache *BlockCache) ([]kv.KeyValue, error) {
	if len(s.index) == 0 {
		return dst, nil
	}
	start := kv.Cell{Row: r.Start, Column: "", TS: kv.MaxTimestamp}
	bi := s.findBlock(start)
	if bi < 0 {
		bi = 0
	}
	for ; bi < len(s.index); bi++ {
		if r.End != "" && s.index[bi].first.Row >= r.End {
			break
		}
		entries, err := s.block(bi, cache)
		if err != nil {
			return dst, err
		}
		for _, e := range entries {
			if r.End != "" && e.Row >= r.End {
				return dst, nil
			}
			if !r.Contains(e.Row) {
				continue
			}
			if e.TS <= maxTS {
				dst = append(dst, e)
			}
		}
	}
	return dst, nil
}

// Blocks returns the number of data blocks, for tests and stats.
func (s *StoreFile) Blocks() int { return len(s.index) }

// Iter returns a streaming iterator over the entries of r with ts <= maxTS,
// in store order. Blocks are fetched (through the cache) one at a time as
// the iterator advances, so a limited scan touches only the blocks it
// actually consumes.
func (s *StoreFile) Iter(r kv.KeyRange, maxTS kv.Timestamp, cache *BlockCache) (*FileIter, error) {
	it := &FileIter{sf: s, cache: cache, rng: r, maxTS: maxTS}
	if len(s.index) == 0 {
		return it, nil
	}
	it.bi = s.findBlock(kv.Cell{Row: r.Start, Column: "", TS: kv.MaxTimestamp})
	if it.bi < 0 {
		it.bi = 0
	}
	if err := it.loadAndSkip(); err != nil {
		return nil, err
	}
	return it, nil
}

// FileIter streams one store file's visible entries. See StoreFile.Iter.
type FileIter struct {
	sf    *StoreFile
	cache *BlockCache
	rng   kv.KeyRange
	maxTS kv.Timestamp

	bi      int // next block index to load
	entries []kv.KeyValue
	pos     int
	done    bool
}

// loadAndSkip loads blocks starting at bi until it finds a visible entry or
// runs off the range/file. On return the iterator is positioned or done.
func (it *FileIter) loadAndSkip() error {
	for {
		for it.pos < len(it.entries) {
			e := it.entries[it.pos]
			if it.rng.End != "" && e.Row >= it.rng.End {
				it.done = true
				return nil
			}
			if e.TS <= it.maxTS && it.rng.Contains(e.Row) {
				return nil
			}
			it.pos++
		}
		if it.bi >= len(it.sf.index) {
			it.done = true
			return nil
		}
		// A block's first cell is its minimum, so a block starting at or
		// past the range end cannot contribute — stop without fetching it.
		if it.rng.End != "" && it.sf.index[it.bi].first.Row >= it.rng.End {
			it.done = true
			return nil
		}
		entries, err := it.sf.block(it.bi, it.cache)
		if err != nil {
			return err
		}
		it.bi++
		it.entries = entries
		it.pos = 0
	}
}

// Valid reports whether the iterator is positioned on an entry.
func (it *FileIter) Valid() bool { return !it.done && it.pos < len(it.entries) }

// Head returns the current entry. Only call when Valid.
func (it *FileIter) Head() kv.KeyValue { return it.entries[it.pos] }

// Next advances to the next visible entry, loading further blocks as
// needed.
func (it *FileIter) Next() error {
	it.pos++
	return it.loadAndSkip()
}

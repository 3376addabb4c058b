package kvstore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"txkv/internal/dfs"
	"txkv/internal/kv"
	"txkv/internal/metrics"
)

// RegionInfo identifies a region: a contiguous key range of one table.
type RegionInfo struct {
	ID    string
	Table string
	Range kv.KeyRange
}

func (r RegionInfo) String() string {
	return fmt.Sprintf("%s%s", r.ID, r.Range)
}

// dataDir is the DFS directory holding a region's store files.
func dataDir(table, regionID string) string {
	return fmt.Sprintf("/data/%s/%s/", table, regionID)
}

// regionView is the immutable read view of a region: the current active
// memstore, the frozen memstores awaiting flush, and the store files.
// Readers load it with one atomic pointer read — no lock, no slice copies —
// and mutators (freeze, flush completion, compaction, open) publish a fresh
// view. The slices are never mutated after publication.
type regionView struct {
	active *MemStore
	frozen []*MemStore  // oldest first
	files  []*StoreFile // oldest first
}

// viewRef is a published regionView plus its drain refcount. The count
// starts at 1 (the region's "current view" reference); every reader that
// touches store files holds one more for the duration of its read. When the
// view is swapped out AND the last reader releases, the view drains: it
// drops its per-file references, physically unlinking any store file a
// compaction retired meanwhile. This is what lets compaction delete its
// inputs without ever yanking a file out from under a lock-free reader.
//
// The refcount lives outside regionView so view mutation functions can keep
// copying the plain struct (an embedded atomic would trip copylocks).
type viewRef struct {
	regionView
	refs atomic.Int64
}

// tryRef takes a read reference unless the view has already drained
// (refs == 0 can never be revived: a drained view may have unlinked files).
func (v *viewRef) tryRef() bool {
	for {
		n := v.refs.Load()
		if n <= 0 {
			return false
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Region is one hosted key range: an active memstore, zero or more frozen
// memstores awaiting flush, and the immutable store files on the DFS.
// Regions move between servers on failure; the store files (and nothing
// else) survive the move.
type Region struct {
	Info RegionInfo

	fs      dfs.FileSystem
	cache   *BlockCache
	reclaim *metrics.ReclaimMetrics // nil-safe; set by the hosting server
	stats   *FileStats              // nil-safe; shared cluster-wide, set by the hosting server

	// abandoned is set when the hosting server crashes: late view drains
	// from the dead incarnation must not unlink files — the region's next
	// incarnation discovered them by listing and may be serving them.
	// Leaked retire candidates are re-compacted (and re-retired, safely)
	// by the new incarnation.
	abandoned atomic.Bool

	view atomic.Pointer[viewRef]

	// heat is the always-on per-region load accounting (atomic adds only)
	// behind /debug/regions and the cluster read/write counters.
	heat regionHeat

	mu      sync.Mutex // guards view swaps and nextSeq
	nextSeq int

	flushMu sync.Mutex // serializes flushes and compactions
}

// swapView publishes a new read view derived from the current one and
// returns (new, old). The new view takes a reference on each of its store
// files before publication. Caller holds r.mu and must release the old
// view's current-view reference with r.releaseView AFTER dropping r.mu —
// draining can unlink retired store files, which is filesystem I/O that
// must not run under the swap lock.
func (r *Region) swapView(mutate func(old regionView) regionView) (nv, old *viewRef) {
	old = r.view.Load()
	nv = &viewRef{regionView: mutate(old.regionView)}
	nv.refs.Store(1)
	for _, f := range nv.files {
		f.ref()
	}
	r.view.Store(nv)
	return nv, old
}

// publishView installs the region's first view (open time).
func (r *Region) publishView(data regionView) {
	nv := &viewRef{regionView: data}
	nv.refs.Store(1)
	for _, f := range nv.files {
		f.ref()
	}
	r.view.Store(nv)
}

// acquireView returns the current view with a read reference held. The
// loop retries only when it loses a race with a view that fully drained
// between the pointer load and the reference take — at most a handful of
// iterations even under continuous compaction.
func (r *Region) acquireView() *viewRef {
	for {
		v := r.view.Load()
		if v.tryRef() {
			return v
		}
	}
}

// releaseView drops one reference; the last release drains the view,
// unreferencing its store files and physically unlinking any that were
// retired (deferred deletion: the files were compaction inputs whose
// replacement view is already live).
func (r *Region) releaseView(v *viewRef) {
	if v.refs.Add(-1) != 0 {
		return
	}
	for _, f := range v.files {
		if f.unref() {
			r.unlinkStoreFile(f)
		}
	}
}

// unlinkStoreFile physically removes a retired store file after its last
// view drained. A file served through a split reference marker retires only
// the marker — the shared parent file may still back the sibling daughter.
func (r *Region) unlinkStoreFile(f *StoreFile) {
	if r.abandoned.Load() {
		return // dead incarnation: the file may be live again elsewhere
	}
	path := f.Path()
	if f.refMarker != "" {
		path = f.refMarker
	}
	size, _ := r.fs.Size(path)
	if err := r.fs.Delete(path); err == nil {
		r.reclaim.AddFilesRetired(1)
		// Logical size, not physical reclaim: the journal bytes holding
		// these blocks are reclaimed by the next DFS log compaction.
		r.reclaim.AddRetiredBytes(size)
	}
	// Drop the dead file's blocks from the cache eagerly rather than
	// letting them ride the LRU to eviction. Only when the data file
	// itself is going away: retiring a split reference marker leaves the
	// shared parent file (whose path keys the cached blocks) possibly
	// still serving the sibling daughter.
	if f.refMarker == "" {
		r.cache.InvalidateFile(f.Path(), len(f.index))
	}
}

// cloneFrozenWithout returns frozen minus snap, as a fresh slice.
func cloneFrozenWithout(frozen []*MemStore, snap *MemStore) []*MemStore {
	out := make([]*MemStore, 0, len(frozen))
	for _, m := range frozen {
		if m != snap {
			out = append(out, m)
		}
	}
	return out
}

// OpenRegion opens a region: it discovers and opens the region's store
// files from the DFS directory listing. The memstores start empty (their
// previous content died with the previous server); recovered WAL edits are
// replayed by the caller via Apply.
//
// Discovery-by-listing is only safe when no prior incarnation of the
// region can still be draining readers in this process: the listing may
// contain compaction inputs that are retired but not yet unlinked. For an
// in-process region move use OpenRegionFiles with the source's final live
// file set.
func OpenRegion(fs dfs.FileSystem, cache *BlockCache, info RegionInfo) (*Region, error) {
	return openRegionPaths(fs, cache, info, fs.List(dataDir(info.Table, info.ID)))
}

// OpenRegionFiles opens a region serving exactly the given store-file
// paths (the move path: CloseAndFlushRegion's returned live set).
func OpenRegionFiles(fs dfs.FileSystem, cache *BlockCache, info RegionInfo, paths []string) (*Region, error) {
	return openRegionPaths(fs, cache, info, append([]string(nil), paths...))
}

func openRegionPaths(fs dfs.FileSystem, cache *BlockCache, info RegionInfo, paths []string) (*Region, error) {
	r := &Region{Info: info, fs: fs, cache: cache}
	dir := dataDir(info.Table, info.ID)
	sort.Strings(paths)
	var files []*StoreFile
	for _, p := range paths {
		var (
			isRef bool
			stem  string
		)
		switch {
		case strings.HasSuffix(p, tmpSuffix):
			// Orphan of a store-file write that crashed before its
			// publishing rename: never referenced, safe to sweep.
			_ = fs.Delete(p)
			continue
		case strings.HasSuffix(p, ".sf"):
			stem = strings.TrimSuffix(p[len(dir):], ".sf")
		case strings.HasSuffix(p, refSuffix):
			isRef, stem = true, strings.TrimSuffix(p[len(dir):], refSuffix)
		default:
			continue
		}
		// The name must be exactly a decimal sequence plus the suffix — a
		// lenient parse here would silently accept (and then mis-order)
		// foreign files that happen to contain a digit. Checked before the
		// open so a malformed name is reported as such, not as a corrupt
		// file. The max existing sequence is tracked so new flushes sort
		// after every recovered file.
		seq, err := parseStoreFileSeq(stem)
		if err != nil {
			return nil, fmt.Errorf("open region %s: %w: %q", info.ID, ErrBadStoreFileName, p)
		}
		var sf *StoreFile
		if isRef {
			// Post-split daughter: serve the parent's file through the
			// reference until a compaction localizes the data.
			sf, err = OpenStoreFileRef(fs, p)
		} else {
			sf, err = OpenStoreFile(fs, p)
		}
		if err != nil {
			return nil, fmt.Errorf("open region %s: %w", info.ID, err)
		}
		files = append(files, sf)
		if seq >= r.nextSeq {
			r.nextSeq = seq + 1
		}
	}
	r.publishView(regionView{active: NewMemStore(), files: files})
	return r, nil
}

// parseStoreFileSeq parses a store-file name stem as a strict non-negative
// decimal (fmt.Sscanf's "%d" would tolerate garbage prefixes and signs).
func parseStoreFileSeq(stem string) (int, error) {
	n, err := strconv.ParseUint(stem, 10, 31)
	if err != nil {
		return 0, err
	}
	return int(n), nil
}

// Apply inserts the versioned cells into the active memstore. Idempotent:
// reapplying the same (cell, ts) overwrites in place.
//
// If a freeze swaps the view mid-batch, the batch is re-applied into the
// new active memstore: the flush that froze the old one may already have
// snapshotted it without these cells, and re-application (idempotent
// versioned puts) guarantees they reach a store that will still be flushed.
func (r *Region) Apply(kvs []kv.KeyValue) {
	r.heat.writes.Add(1)
	r.heat.cellsWritten.Add(int64(len(kvs)))
	var bytes int64
	for _, e := range kvs {
		bytes += int64(len(e.Value))
	}
	r.heat.bytesWritten.Add(bytes)
	for {
		v := r.view.Load()
		for _, e := range kvs {
			v.active.Put(e)
		}
		// Only a freeze replaces the active memstore; flush-completion and
		// compaction swaps reuse it and need no re-application.
		if r.view.Load().active == v.active {
			return
		}
	}
}

// Get returns the newest visible version of (row, column) at or below
// maxTS, merging the active memstore, frozen memstores, and store files. A
// tombstone or absence yields found=false. The memstore path is lock-free
// and allocation-free: one atomic view load, skip-list seeks, no copies.
func (r *Region) Get(row kv.Key, column string, maxTS kv.Timestamp) (kv.KeyValue, bool, error) {
	v := r.acquireView()
	defer r.releaseView(v)

	var best kv.KeyValue
	found := false
	fromFile := false
	if e, ok := v.active.Get(row, column, maxTS); ok {
		best, found = e, true
	}
	for _, m := range v.frozen {
		if e, ok := m.Get(row, column, maxTS); ok && (!found || e.TS > best.TS) {
			best, found = e, true
		}
	}
	for _, f := range v.files {
		if f.hasBloom() {
			r.heat.bloomProbes.Add(1)
			r.stats.bloomProbe()
			if !f.MayContainRow(row) {
				// Definitive: the file holds no cell of this row, so the
				// block fetch (and possible decompression) is skipped.
				r.heat.bloomNegatives.Add(1)
				r.stats.bloomNegative()
				continue
			}
		}
		e, ok, err := f.Get(row, column, maxTS, r.cache)
		if err != nil {
			return kv.KeyValue{}, false, err
		}
		if !ok && f.hasBloom() {
			// The filter passed but the file had nothing for the coordinate —
			// counts (row, column) misses too, a slight overestimate of the
			// pure row-key false-positive rate.
			r.heat.bloomFalsePositives.Add(1)
			r.stats.bloomFalsePositive()
		}
		if ok && (!found || e.TS > best.TS) {
			best, found, fromFile = e, true, true
		}
	}
	r.heat.gets.Add(1)
	if !found || best.Tombstone {
		r.heat.misses.Add(1)
		return kv.KeyValue{}, false, nil
	}
	if fromFile {
		r.heat.fileHits.Add(1)
	} else {
		r.heat.memHits.Add(1)
	}
	r.heat.cellsRead.Add(1)
	r.heat.bytesRead.Add(int64(len(best.Value)))
	return best, true, nil
}

// ScanRange returns the newest visible version per (row, column) within rng
// at or below maxTS, sorted in store order, tombstones elided. The sources
// stream through a k-way heap merge that deduplicates by coordinate in
// merge order and stops as soon as limit entries have been produced —
// nothing beyond the limit is materialized or even decoded. It is one
// unbounded page of the cursor-scan machinery (see scanPage).
func (r *Region) ScanRange(rng kv.KeyRange, maxTS kv.Timestamp, limit int) ([]kv.KeyValue, error) {
	out, _, err := r.scanPage(nil, rng, maxTS, kv.CellKey{}, false, nil, false, limit)
	return out, err
}

// MemSize returns the approximate bytes held in the active memstore.
func (r *Region) MemSize() int {
	return r.view.Load().active.ApproxSize()
}

// dirtyForRoll reports whether the region's entire in-memory state is small
// enough (< min bytes) for a WAL roll to skip flushing it, and if so
// returns that state for re-journaling into the fresh generation. A region
// with frozen memstores (a flush in flight or awaiting retry) never skips:
// the roll's flush is what guarantees those edits reach store files before
// the old WAL generations are deleted. min <= 0 disables skipping.
//
// Entries applied concurrently with the snapshot are already journaled in
// the new WAL generation by the writer itself; re-journaling them in the
// carry entry only duplicates an idempotent versioned put.
func (r *Region) dirtyForRoll(min int) ([]kv.KeyValue, bool) {
	if min <= 0 {
		return nil, false
	}
	v := r.view.Load()
	if len(v.frozen) > 0 || v.active.ApproxSize() >= min {
		return nil, false
	}
	return v.active.All(), true
}

// Flush persists the active memstore as a new store file on the DFS. It is
// a no-op for an empty memstore. Reads remain consistent throughout: the
// snapshot stays visible as a frozen memstore until the file is durable.
func (r *Region) Flush(blockSize int) error {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()

	r.mu.Lock()
	if r.view.Load().active.Len() == 0 {
		r.mu.Unlock()
		return nil
	}
	var snap *MemStore
	_, old := r.swapView(func(old regionView) regionView {
		snap = old.active
		old.active = NewMemStore()
		old.frozen = append(cloneFrozenWithout(old.frozen, nil), snap)
		return old
	})
	seq := r.nextSeq
	r.nextSeq++
	r.mu.Unlock()
	r.releaseView(old)

	path := fmt.Sprintf("%s%08d.sf", dataDir(r.Info.Table, r.Info.ID), seq)
	sf, err := WriteStoreFileWith(r.fs, path, snap.All(), r.writeOpts(blockSize))
	if err != nil {
		// Merge the snapshot back into the active memstore so a later
		// flush retries it. Versioned puts make the merge safe even if
		// newer versions were written meanwhile.
		r.mu.Lock()
		nv, old := r.swapView(func(old regionView) regionView {
			old.frozen = cloneFrozenWithout(old.frozen, snap)
			return old
		})
		r.mu.Unlock()
		r.releaseView(old)
		for _, e := range snap.All() {
			nv.active.Put(e)
		}
		return fmt.Errorf("flush region %s: %w", r.Info.ID, err)
	}

	r.mu.Lock()
	_, old = r.swapView(func(old regionView) regionView {
		old.files = append(append([]*StoreFile(nil), old.files...), sf)
		old.frozen = cloneFrozenWithout(old.frozen, snap)
		return old
	})
	r.mu.Unlock()
	r.releaseView(old)
	return nil
}

// writeOpts returns the store-file write options for the per-call block
// size and the region's shared stats sink.
func (r *Region) writeOpts(blockSize int) StoreFileOptions {
	return StoreFileOptions{BlockSize: blockSize, Stats: r.stats}
}

// Files returns the number of store files, for tests and stats.
func (r *Region) Files() int {
	return len(r.view.Load().files)
}

// storeFilePaths returns the current view's region-owned store-file paths
// (files served through split reference markers are excluded — they belong
// to an ancestor region). Only live files appear: retired compaction inputs
// are out of the view the moment their replacement publishes, even while a
// draining reader keeps them on the filesystem.
func (r *Region) storeFilePaths() []string {
	v := r.view.Load()
	out := make([]string, 0, len(v.files))
	for _, f := range v.files {
		if f.refMarker == "" {
			out = append(out, f.Path())
		}
	}
	return out
}

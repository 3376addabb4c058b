package kvstore

import (
	"fmt"
	"sort"

	"txkv/internal/kv"
)

// Compaction merges store files into one, like HBase's (minor) compaction:
// reads fan out over fewer files afterwards. All versions are retained up to
// VersionHorizon — snapshot reads above the horizon remain exact; the
// horizon lets steady-state storage stay bounded (the analogue of HBase's
// TTL/max-versions GC). A horizon of 0 retains everything.
//
// Two entry points share one core. Compact is the major compaction: every
// file merges into one (explicit calls, tests, split localization). The
// background path uses CompactTiered, which picks a subset worth rewriting:
// size-tiered selection avoids re-copying a region's large old files every
// time a few small flushes accumulate on top of them — write amplification
// stays proportional to the small files actually merged.

const (
	// tierRatio bounds a size tier: files within this factor of the tier's
	// smallest member compact together.
	tierRatio = 4

	// tierMinFiles is the minimum tier size worth a rewrite on its own.
	tierMinFiles = 2
)

// selectCompactionInputs picks which of the region's files to compact: the
// must-rewrite set (split-reference files awaiting localization) plus the
// largest tier of size-similar owned files. Returns nil when no rewrite is
// warranted.
func selectCompactionInputs(files []*StoreFile) []*StoreFile {
	var must, rest []*StoreFile
	for _, f := range files {
		if f.refMarker != "" {
			must = append(must, f)
		} else {
			rest = append(rest, f)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].size < rest[j].size })
	// Largest window of size-similar files: every member within tierRatio
	// of the window's smallest. Ties prefer the smaller files (cheaper
	// rewrite for the same fan-in reduction).
	bestI, bestN := 0, 0
	for i, j := 0, 0; i < len(rest); i++ {
		if j < i {
			j = i
		}
		floor := rest[i].size
		if floor < 1 {
			floor = 1
		}
		for j < len(rest) && rest[j].size <= floor*tierRatio {
			j++
		}
		if j-i > bestN {
			bestI, bestN = i, j-i
		}
	}
	if bestN < tierMinFiles {
		bestN = 0
	}
	if len(must) == 0 && bestN == 0 {
		return nil
	}
	out := append([]*StoreFile(nil), must...)
	out = append(out, rest[bestI:bestI+bestN]...)
	if len(out) < tierMinFiles && len(must) == 0 {
		return nil
	}
	return out
}

// Compact merges every store file of the region into a single new file
// (major compaction). Versions shadowed by a newer version of the same
// coordinate at or below horizon are dropped (0 keeps all versions).
func (r *Region) Compact(blockSize int, horizon kv.Timestamp) error {
	r.flushMu.Lock() // flushes and compactions are mutually exclusive
	defer r.flushMu.Unlock()

	v := r.acquireView()
	if len(v.files) <= 1 {
		r.releaseView(v)
		return nil
	}
	return r.compactFiles(v, v.files, blockSize, horizon)
}

// CompactTiered runs one round of size-tiered compaction: split-reference
// files plus the largest tier of size-similar files merge into one new
// file; everything else is left alone. Reports whether a rewrite happened.
func (r *Region) CompactTiered(blockSize int, horizon kv.Timestamp) (bool, error) {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()

	v := r.acquireView()
	inputs := selectCompactionInputs(v.files)
	if len(inputs) == 0 {
		r.releaseView(v)
		return false, nil
	}
	if err := r.compactFiles(v, inputs, blockSize, horizon); err != nil {
		return false, err
	}
	return true, nil
}

// compactFiles merges the given input files (a subset of v's files) into one
// new store file and swaps it into the view in their place. Concurrent reads
// stay consistent throughout AND afterwards: the inputs are not deleted at
// the view swap but *retired* — physically unlinked only when the last read
// view referencing them drains (see viewRef), so a lock-free reader that
// loaded the previous view keeps streaming intact files. Takes ownership of
// the caller's reference on v; caller holds flushMu.
func (r *Region) compactFiles(v *viewRef, files []*StoreFile, blockSize int, horizon kv.Timestamp) error {
	r.mu.Lock()
	seq := r.nextSeq
	r.nextSeq++
	r.mu.Unlock()

	// Each store file is individually sorted in store order, so the k
	// files merge in one pass through the shared k-way heap: O(n log k)
	// instead of the collect-everything-and-sort O(n log n). Reads are
	// clipped to the region's own range: a split daughter serving a shared
	// parent file through a reference copies only its half, localizing the
	// data so the reference (and eventually the parent) can be dropped.
	runs := make([][]kv.KeyValue, 0, len(files))
	for _, f := range files {
		run, err := f.ScanRange(nil, r.Info.Range, kv.MaxTimestamp, r.cache)
		if err != nil {
			r.releaseView(v)
			return fmt.Errorf("compact region %s: %w", r.Info.ID, err)
		}
		if len(run) > 0 {
			runs = append(runs, run)
		}
	}
	all, err := mergeRuns(runs, horizon)
	if err != nil {
		r.releaseView(v)
		return fmt.Errorf("compact region %s: %w", r.Info.ID, err)
	}

	path := fmt.Sprintf("%s%08d.sf", dataDir(r.Info.Table, r.Info.ID), seq)
	merged, err := WriteStoreFileWith(r.fs, path, all, r.writeOpts(blockSize))
	if err != nil {
		r.releaseView(v)
		return fmt.Errorf("compact region %s: %w", r.Info.ID, err)
	}

	compacted := make(map[*StoreFile]bool, len(files))
	for _, f := range files {
		compacted[f] = true
	}
	r.mu.Lock()
	_, old := r.swapView(func(old regionView) regionView {
		// Replace exactly the compacted inputs; files flushed meanwhile stay.
		nf := make([]*StoreFile, 0, len(old.files))
		nf = append(nf, merged)
		for _, f := range old.files {
			if !compacted[f] {
				nf = append(nf, f)
			}
		}
		old.files = nf
		return old
	})
	r.mu.Unlock()

	// Retire the inputs: deletion is deferred to the drain of the last
	// view holding them. With no concurrent readers the old view drains on
	// the releases below and the files are unlinked before compactFiles
	// returns; with readers in flight, the slowest reader unlinks.
	for _, f := range files {
		if f.retire() {
			r.unlinkStoreFile(f)
		}
	}
	r.releaseView(old)
	r.releaseView(v)
	r.m.compactions.Add(1)
	return nil
}

// mergeRuns merges k individually sorted runs into one sorted slice in
// store order, removing exact duplicates (the same cell can appear in
// multiple files after recovery replays) and dropping versions shadowed at
// or below the horizon. Built on the same streaming merger as the region
// scan path; ties on exact cells keep the earliest run, matching the
// previous collect+sort behavior.
func mergeRuns(runs [][]kv.KeyValue, horizon kv.Timestamp) ([]kv.KeyValue, error) {
	total := 0
	iters := make([]kvIter, 0, len(runs))
	for _, r := range runs {
		total += len(r)
		iters = append(iters, &sliceIter{s: r})
	}
	out := make([]kv.KeyValue, 0, total)
	mg := newMerger(iters)
	for {
		e, ok, err := mg.next()
		if err != nil {
			// Never reached with slice-backed runs, but the merger is
			// shared with I/O-backed iterators: a partial merge must not
			// masquerade as a complete one (Compact deletes its inputs).
			return nil, err
		}
		if !ok {
			return out, nil
		}
		if len(out) > 0 {
			prev := out[len(out)-1]
			if e.Cell == prev.Cell {
				continue // duplicate cell: keep the first (identical payload)
			}
			// Store order is ts-descending per coordinate: a previously
			// kept entry with the same (row, column) and TS <= horizon
			// shadows this one entirely for every readable snapshot.
			if horizon > 0 && prev.Row == e.Row && prev.Column == e.Column && prev.TS <= horizon {
				continue
			}
		}
		out = append(out, e)
	}
}

package kvstore

import (
	"context"
	"fmt"
	"time"

	"txkv/internal/kv"
)

// Cursor scans: the server half of the streaming read API. A scan is a
// sequence of independent bounded batch requests; all continuation state
// (the resume coordinate plus the snapshot timestamp) travels with the
// request, so the server holds nothing between batches — a region server
// can crash, split, or shed the region between two batches and the client
// simply re-resolves the continuation key against the current layout.
// Within one batch the region's read view is pinned through the PR-3
// refcounts and released before the response returns, so per-request server
// memory is O(batch), never O(result).

// ScanRequest is one cursor-scan batch request — the RPC message the
// routing client sends a region server.
type ScanRequest struct {
	Table string
	// Range is the overall scan interval; the server clips it to the
	// hosted region containing the effective start key.
	Range kv.KeyRange
	// MaxTS is the snapshot timestamp; together with Resume it is the
	// complete continuation token.
	MaxTS kv.Timestamp
	// Resume, when HasResume, is the last coordinate already delivered:
	// the batch yields only coordinates strictly after it.
	Resume    kv.CellKey
	HasResume bool
	// Columns projects the scan onto the given columns (nil = all).
	// Filtering happens inside the k-way merge, before entries count
	// toward Batch, so unwanted columns are never shipped.
	Columns []string
	// KeysOnly drops value bytes inside the merge: the response carries
	// coordinates only.
	KeysOnly bool
	// Batch bounds the number of entries in the response (0 = unbounded,
	// the legacy whole-region behaviour).
	Batch int
	// AllowFollower permits serving this batch from a follower copy of
	// the region, provided the follower's replicated frontier has reached
	// MaxTS (bounded-staleness snapshot reads). When the primary copy is
	// hosted here it is used regardless.
	AllowFollower bool
}

// ScanResponse is one cursor-scan batch.
type ScanResponse struct {
	KVs []kv.KeyValue
	// More reports that the region may hold further entries in Range
	// beyond this batch; resume with the last KV's coordinate.
	More bool
	// RegionEnd is the serving region's end key (empty = unbounded): when
	// More is false the client continues the scan at RegionEnd, or
	// finishes if RegionEnd is empty or at/past the range end.
	RegionEnd kv.Key
}

// effectiveStart returns the row the scan actually begins at: the resume
// row once a continuation exists, the range start otherwise.
func (q ScanRequest) effectiveStart() kv.Key {
	if q.HasResume && q.Resume.Row > q.Range.Start {
		return q.Resume.Row
	}
	return q.Range.Start
}

// ScanBatch serves one bounded batch of a cursor scan. The effective start
// key must fall in a region hosted (and online) on this server, otherwise
// ErrRegionNotServing is returned and the client re-locates — this is what
// lets a scan survive splits and moves between batches. ctx cancellation
// aborts the batch mid-merge; the pinned read view is released either way.
func (s *RegionServer) ScanBatch(ctx context.Context, req ScanRequest) (ScanResponse, error) {
	s.mu.RLock()
	crashed := s.crashed
	s.mu.RUnlock()
	if crashed {
		return ScanResponse{}, ErrServerStopped
	}
	start := req.effectiveStart()
	r, ok := s.findRegion(req.Table, start)
	if !ok {
		// Follower read: a follower copy may serve the batch if its
		// replicated frontier has caught up to the snapshot — every commit
		// at or below MaxTS affecting the region is already applied here.
		if req.AllowFollower {
			if e, fok := s.followerFor(req.Table, start); fok {
				if kv.Timestamp(e.rep.frontier.Load()) >= req.MaxTS {
					s.m.followerReads.Add(1)
					return s.scanRegionBatch(ctx, e.r, req)
				}
				s.m.followerRejects.Add(1)
				return ScanResponse{}, fmt.Errorf("%w: %s/%s on %s (frontier %d < %d)",
					ErrFollowerBehind, req.Table, start, s.cfg.ID,
					e.rep.frontier.Load(), req.MaxTS)
			}
		}
		return ScanResponse{}, fmt.Errorf("%w: %s/%s on %s", ErrRegionNotServing, req.Table, start, s.cfg.ID)
	}
	defer r.readDone()
	return s.scanRegionBatch(ctx, r, req)
}

// scanRegionBatch serves one cursor-scan batch from a specific region copy
// (the primary on the ordinary path, a caught-up follower on the
// bounded-staleness path).
func (s *RegionServer) scanRegionBatch(ctx context.Context, r *Region, req ScanRequest) (ScanResponse, error) {
	clipped := req.Range
	if r.Info.Range.Start > clipped.Start {
		clipped.Start = r.Info.Range.Start
	}
	if r.Info.Range.End != "" && (clipped.End == "" || r.Info.Range.End < clipped.End) {
		clipped.End = r.Info.Range.End
	}
	pageStart := time.Now()
	kvs, more, err := r.scanPage(ctx, clipped, req.MaxTS, req.Resume, req.HasResume, req.Columns, req.KeysOnly, req.Batch)
	if err != nil {
		return ScanResponse{}, err
	}
	s.m.scanPages.Add(1)
	s.m.scanPageLatency.Record(time.Since(pageStart))
	return ScanResponse{KVs: kvs, More: more, RegionEnd: r.Info.Range.End}, nil
}

// GetBatch serves a batched point read: the newest visible version of every
// requested cell at or below maxTS, in one round trip. Results parallel the
// keys (found[i] reports whether kvs[i] holds a value). Every key must fall
// in an online region hosted here, otherwise nothing is read and
// ErrRegionNotServing is returned so the client re-groups and retries.
func (s *RegionServer) GetBatch(ctx context.Context, table string, keys []kv.CellKey, maxTS kv.Timestamp) ([]kv.KeyValue, []bool, error) {
	s.mu.RLock()
	crashed := s.crashed
	s.mu.RUnlock()
	if crashed {
		return nil, nil, ErrServerStopped
	}
	kvs := make([]kv.KeyValue, len(keys))
	found := make([]bool, len(keys))
	for i, k := range keys {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		r, ok := s.findRegion(table, k.Row)
		if !ok {
			return nil, nil, fmt.Errorf("%w: %s/%s on %s", ErrRegionNotServing, table, k.Row, s.cfg.ID)
		}
		e, ok, err := r.Get(k.Row, k.Column, maxTS)
		r.readDone()
		if err != nil {
			return nil, nil, err
		}
		kvs[i], found[i] = e, ok
	}
	return kvs, found, nil
}

// singleRowRange reports whether rng covers exactly one row — End is
// Start plus a single zero byte, the canonical "this row only" range — and
// returns that row.
func singleRowRange(rng kv.KeyRange) (kv.Key, bool) {
	if len(rng.End) != len(rng.Start)+1 || rng.End[len(rng.Start)] != 0 {
		return "", false
	}
	if rng.End[:len(rng.Start)] != rng.Start {
		return "", false
	}
	return rng.Start, true
}

// cancelCheckStride is how many merge steps a scan page takes between
// context checks: frequent enough that a cancelled scan stops within
// microseconds, rare enough to stay off the per-entry hot path.
const cancelCheckStride = 256

// scanPage produces one batch of the region's cursor scan: the newest
// visible version per projected (row, column) in rng at or below maxTS, in
// store order, tombstones elided, starting strictly after resume (when
// hasResume), at most max entries (0 = unbounded); keysOnly elides value
// bytes. It pins the region's read view for exactly the duration of the
// call, so concurrent compaction can retire store files between batches;
// snapshot stability across batches comes from MVCC (the version-GC horizon
// never passes a live snapshot). more=true means the merge was cut by max
// and the region may hold further entries.
func (r *Region) scanPage(ctx context.Context, rng kv.KeyRange, maxTS kv.Timestamp, resume kv.CellKey, hasResume bool, cols []string, keysOnly bool, max int) (page []kv.KeyValue, more bool, _ error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		r.heat.scans.Add(1)
		r.heat.cellsRead.Add(int64(len(page)))
		var bytes int64
		for _, e := range page {
			bytes += int64(len(e.Value))
		}
		r.heat.bytesRead.Add(bytes)
	}()
	// Seek the iterators directly to the resume row: everything before it
	// was delivered by earlier batches.
	if hasResume && resume.Row > rng.Start {
		rng.Start = resume.Row
	}
	var project map[string]struct{}
	if len(cols) > 0 {
		project = make(map[string]struct{}, len(cols))
		for _, c := range cols {
			project[c] = struct{}{}
		}
	}

	v := r.acquireView()
	defer r.releaseView(v)

	// Row-key blooms can prune a scan only when the range pins a single
	// row; broader ranges carry no per-row information the filter can use.
	bloomRow, singleRow := singleRowRange(rng)

	iters := make([]kvIter, 0, 1+len(v.frozen)+len(v.files))
	iters = append(iters, v.active.Iter(rng, maxTS))
	for _, m := range v.frozen {
		iters = append(iters, m.Iter(rng, maxTS))
	}
	for _, f := range v.files {
		if singleRow && f.hasBloom() {
			r.heat.bloomProbes.Add(1)
			r.m.bloomProbes.Add(1)
			if !f.MayContainRow(bloomRow) {
				r.heat.bloomNegatives.Add(1)
				r.m.bloomNegatives.Add(1)
				continue
			}
		}
		fi, err := f.Iter(rng, maxTS, r.cache)
		if err != nil {
			return nil, false, err
		}
		iters = append(iters, fi)
	}
	mg := newMerger(iters)

	var out []kv.KeyValue
	if max > 0 {
		// Bounded pre-size; capped so a large batch over a sparse range
		// does not allocate the whole bound up front.
		hint := max
		if hint > 256 {
			hint = 256
		}
		out = make([]kv.KeyValue, 0, hint)
	}
	var (
		last  kv.CellKey
		have  bool
		steps int
	)
	for {
		if steps++; steps%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
		}
		e, ok, err := mg.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return out, false, nil
		}
		coord := kv.CellKey{Row: e.Row, Column: e.Column}
		if have && coord == last {
			continue // older version (or exact duplicate) of an emitted coordinate
		}
		if hasResume && kv.CompareCellKeys(coord, resume) <= 0 {
			continue // delivered by a previous batch
		}
		if project != nil {
			if _, ok := project[e.Column]; !ok {
				continue
			}
		}
		last, have = coord, true
		if e.Tombstone {
			continue // coordinate is deleted at this snapshot
		}
		if keysOnly {
			e.Value = nil
		}
		out = append(out, e)
		if max > 0 && len(out) >= max {
			return out, true, nil
		}
	}
}

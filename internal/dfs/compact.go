package dfs

import (
	"encoding/binary"
	"fmt"
	"sort"

	"txkv/internal/storage"
)

// Log compaction. The persistence logs (name-node meta journal, per-node
// block journals) are append-only: without reclamation the backing
// directory grows with all-time synced bytes and reopen replays history
// that deleted files made dead long ago. CompactLogs rewrites the *live*
// state — current file metadata, current block contents — into fresh
// segments and drops every older segment, mirroring the txlog's watermark +
// DropSegmentsBefore scheme.
//
// Crash safety rests on two properties rather than on ordering tricks:
//
//  1. The rewrite is appended BEFORE the old segments are dropped, so at
//     every instant the union of segments on the backend contains the full
//     live state.
//  2. Replay is idempotent: block records overwrite by id, create records
//     are no-ops for existing files, and chunk records are deduplicated by
//     chunk id (ids are never reused). Replaying history plus a (possibly
//     partial) checkpoint therefore yields exactly the pre-compaction
//     state; replaying the checkpoint alone yields the post-compaction
//     state.
//
// A crash at any point recovers to either the old layout (drop never
// happened) or the new one (drop happened; the checkpoint is complete
// because AppendBatch made it durable first). The checkpoint is bracketed
// by persistOpCkptBegin/End records carrying an epoch, so the meta journal
// records which compaction produced the current layout.

// CompactStats reports one CompactLogs pass.
type CompactStats struct {
	// SegmentsDropped is the number of storage-log segments removed
	// (meta journal plus every node's block journal).
	SegmentsDropped int
	// BytesReclaimed is the total size of the dropped segments.
	BytesReclaimed int64
	// LiveFiles, LiveChunks and LiveBlocks count what the checkpoint
	// retained.
	LiveFiles  int
	LiveChunks int
	LiveBlocks int
}

// encodeCkptRec frames a checkpoint marker: op byte plus the epoch.
func encodeCkptRec(op byte, epoch uint64) []byte {
	return binary.AppendUvarint([]byte{op}, epoch)
}

// CompactLogs checkpoints the filesystem's durable state: the live name-node
// metadata is rewritten into the meta journal's freshest segment and each
// data node's live blocks into its block journal's freshest segment; all
// older segments are then dropped. Safe to call while writers sync — a chunk
// committed concurrently is covered either by the checkpoint (registered
// before the snapshot) or by its own records (journaled after the rotation,
// into segments the drop never touches). A memory-only filesystem is a
// no-op.
func (fs *FS) CompactLogs() (CompactStats, error) {
	fs.compactMu.Lock()
	defer fs.compactMu.Unlock()
	var cs CompactStats

	type nodePlan struct {
		id   string
		log  *storage.Log
		keep uint64
		recs [][]byte
	}

	// Exclusive persist fence: every mutation registered in memory has
	// its journal records durable (or rolled back) before the snapshot
	// below can observe it, so the checkpoint never makes a
	// later-rolled-back registration durable. Writers stall at most one
	// group-commit while the snapshot is taken.
	fs.persistMu.Lock()
	fs.mu.Lock()
	meta := fs.metaLog
	if meta == nil {
		fs.mu.Unlock()
		fs.persistMu.Unlock()
		return cs, nil
	}
	fs.ckptEpoch++
	epoch := fs.ckptEpoch

	paths := make([]string, 0, len(fs.files))
	for p := range fs.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	metaRecs := make([][]byte, 0, 2+2*len(paths))
	metaRecs = append(metaRecs, encodeCkptRec(persistOpCkptBegin, epoch))
	for _, p := range paths {
		f := fs.files[p]
		metaRecs = append(metaRecs, encodeCreateRec(p))
		for _, c := range f.chunks {
			metaRecs = append(metaRecs, encodeChunkRec(p, c))
			cs.LiveChunks++
		}
		cs.LiveFiles++
	}
	metaRecs = append(metaRecs, encodeCkptRec(persistOpCkptEnd, epoch))

	// Rotate every log while still holding fs.mu: any chunk registered
	// after this point journals its records into post-rotation segments,
	// which the drops below never touch; any chunk registered before is in
	// the snapshot taken above. Either way nothing acknowledged is lost.
	if err := meta.Rotate(); err != nil {
		fs.mu.Unlock()
		fs.persistMu.Unlock()
		return cs, fmt.Errorf("dfs: compact: rotate meta log: %w", err)
	}
	metaKeep := meta.ActiveSegment()
	var nodes []nodePlan
	for _, id := range fs.nodeIDs {
		nd := fs.nodes[id]
		if nd.log == nil {
			continue
		}
		if err := nd.log.Rotate(); err != nil {
			fs.mu.Unlock()
			fs.persistMu.Unlock()
			return cs, fmt.Errorf("dfs: compact: rotate node log %s: %w", id, err)
		}
		pl := nodePlan{id: id, log: nd.log, keep: nd.log.ActiveSegment()}
		bids := make([]uint64, 0, len(nd.blocks))
		for bid := range nd.blocks {
			bids = append(bids, bid)
		}
		sort.Slice(bids, func(i, j int) bool { return bids[i] < bids[j] })
		for _, bid := range bids {
			pl.recs = append(pl.recs, encodeBlockRec(bid, nd.blocks[bid]))
		}
		cs.LiveBlocks += len(pl.recs)
		nodes = append(nodes, pl)
	}
	fs.mu.Unlock()

	if err := fs.compactStage("rotated"); err != nil {
		fs.persistMu.Unlock()
		return cs, err
	}

	// Meta journal: append the checkpoint (one durable batch) while STILL
	// holding the persist fence. Mutators enqueue their records under the
	// shared fence, so holding it exclusively until the checkpoint is in
	// the log guarantees the checkpoint is the post-rotation segment's
	// first metadata — no delete/rename/chunk record can precede it and
	// then be replayed before (and overridden by) the stale snapshot.
	_, appendErr := meta.AppendBatch(metaRecs)
	fs.persistMu.Unlock()
	if appendErr != nil {
		return cs, fmt.Errorf("dfs: compact: checkpoint meta log: %w", appendErr)
	}
	if err := fs.compactStage("meta-checkpointed"); err != nil {
		return cs, err
	}
	n, reclaimed, err := meta.DropSegmentsBefore(metaKeep)
	if err != nil {
		return cs, fmt.Errorf("dfs: compact: drop meta segments: %w", err)
	}
	cs.SegmentsDropped += n
	cs.BytesReclaimed += reclaimed
	if err := fs.compactStage("meta-dropped"); err != nil {
		return cs, err
	}

	// Block journals: same scheme per node, independent of the meta pass
	// (block replay is an idempotent overwrite by id).
	for _, pl := range nodes {
		if len(pl.recs) > 0 {
			if _, err := pl.log.AppendBatch(pl.recs); err != nil {
				return cs, fmt.Errorf("dfs: compact: checkpoint node log %s: %w", pl.id, err)
			}
		}
		if err := fs.compactStage("node-checkpointed"); err != nil {
			return cs, err
		}
		n, reclaimed, err := pl.log.DropSegmentsBefore(pl.keep)
		if err != nil {
			return cs, fmt.Errorf("dfs: compact: drop node %s segments: %w", pl.id, err)
		}
		cs.SegmentsDropped += n
		cs.BytesReclaimed += reclaimed
		if err := fs.compactStage("node-dropped"); err != nil {
			return cs, err
		}
	}

	fs.mu.Lock()
	fs.stats.LogCompactions++
	fs.stats.LogBytesReclaimed += cs.BytesReclaimed
	fs.mu.Unlock()
	fs.segmentsDropped.Add(int64(cs.SegmentsDropped))
	fs.bytesReclaimed.Add(cs.BytesReclaimed)
	fs.compactions.Add(1)
	return cs, nil
}

// compactStage invokes the test-only crash hook between compaction stages.
// A non-nil error abandons the pass at that point, which is exactly what a
// process crash there would leave behind (minus the in-memory state, which
// the tests discard by reopening).
func (fs *FS) compactStage(stage string) error {
	if fs.testCompactHook != nil {
		return fs.testCompactHook(stage)
	}
	return nil
}

package kvstore

import (
	"fmt"

	"txkv/internal/kv"
)

// Region splitting. HBase tables grow by splitting overloaded regions into
// two daughters (paper §2.1: a table "is partitioned into one or more
// chunks called regions"); this file implements the master-driven split.
// Like HBase, daughters do not rewrite data at split time: each daughter's
// directory receives *reference files* pointing at the parent's store
// files, and daughters serve reads through them (clipped to their range)
// until a compaction rewrites their data locally.
//
// A crash in the middle of a split is out of scope, as the paper assumes a
// reliable master; the split itself is brief (close + flush + metadata).

// refSuffix marks a reference file: its contents are the referenced
// store-file path.
const refSuffix = ".ref"

// writeRef creates one reference file in the daughter's data directory.
func writeRef(r *Region, table, daughterID string, seq int, targetPath string) error {
	path := fmt.Sprintf("%s%08d%s", dataDir(table, daughterID), seq, refSuffix)
	w, err := r.fs.CreateFile(path)
	if err != nil {
		return err
	}
	if err := w.Append([]byte(targetPath)); err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		return err
	}
	return w.Close()
}

// SplitRegion splits an online region at splitKey into two daughter
// regions, served by the same host. The region is briefly offline (clients
// retry, as during moves); no data is rewritten — daughters reference the
// parent's store files until their next compaction.
func (m *Master) SplitRegion(regionID string, splitKey kv.Key) error {
	m.mu.Lock()
	srcID, ok := m.assign[regionID]
	if !ok || m.recovering[regionID] {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrRegionNotServing, regionID)
	}
	src := m.servers[srcID]
	var (
		parent   RegionInfo
		table    string
		tableIdx int
		found    bool
	)
	for name, regions := range m.tables {
		for i, ri := range regions {
			if ri.ID == regionID {
				parent, table, tableIdx, found = ri, name, i, true
			}
		}
	}
	if !found || src == nil {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrRegionNotServing, regionID)
	}
	if !parent.Range.Contains(splitKey) || splitKey == parent.Range.Start {
		m.mu.Unlock()
		return fmt.Errorf("kvstore: split key %q outside region %s", splitKey, parent)
	}
	m.splitSeq++
	seq := m.splitSeq
	left := RegionInfo{
		ID:    fmt.Sprintf("%s-l%03d", parent.ID, seq),
		Table: table,
		Range: kv.KeyRange{Start: parent.Range.Start, End: splitKey},
	}
	right := RegionInfo{
		ID:    fmt.Sprintf("%s-r%03d", parent.ID, seq),
		Table: table,
		Range: kv.KeyRange{Start: splitKey, End: parent.Range.End},
	}
	m.recovering[parent.ID] = true
	delete(m.assign, parent.ID)
	m.mu.Unlock()

	restoreParent := func() {
		m.mu.Lock()
		m.assign[parent.ID] = srcID
		delete(m.recovering, parent.ID)
		m.mu.Unlock()
	}

	// Take the parent offline and persist its memstore: afterwards, every
	// byte of the parent lives in its store files. The returned paths are
	// the parent's final *live* files — listing the data directory here
	// would also pick up retired compaction inputs still awaiting their
	// last reader's drain, and a daughter reference to one of those would
	// dangle the moment the drain unlinks it.
	parentFiles, err := src.host.CloseAndFlushRegion(parent.ID)
	if err != nil {
		restoreParent()
		return fmt.Errorf("split %s: %w", parent.ID, err)
	}

	// Reference the parent's files from both daughters.
	dummy := &Region{fs: m.fs} // writeRef only needs the fs handle
	for i, p := range parentFiles {
		for _, d := range []RegionInfo{left, right} {
			if err := writeRef(dummy, table, d.ID, i, p); err != nil {
				restoreParent()
				return fmt.Errorf("split %s: ref: %w", parent.ID, err)
			}
		}
	}

	// Open the daughters on the same host, then publish the new metadata.
	for _, d := range []RegionInfo{left, right} {
		if err := src.host.OpenRegion(d, nil, false); err != nil {
			restoreParent()
			return fmt.Errorf("split %s: open %s: %w", parent.ID, d.ID, err)
		}
	}
	m.mu.Lock()
	regions := m.tables[table]
	updated := make([]RegionInfo, 0, len(regions)+1)
	updated = append(updated, regions[:tableIdx]...)
	updated = append(updated, left, right)
	updated = append(updated, regions[tableIdx+1:]...)
	m.tables[table] = updated
	m.assign[left.ID] = srcID
	m.assign[right.ID] = srcID
	delete(m.recovering, parent.ID)
	m.mu.Unlock()
	// The parent region is retired: discard its replication group (closing
	// follower copies) and replicate the daughters as new regions.
	m.dropReplicaGroup(parent.ID)
	m.ensureReplicated(left, srcID, true)
	m.ensureReplicated(right, srcID, true)
	return m.recordLayout(table)
}

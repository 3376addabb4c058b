package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"

	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/storage"
	"txkv/internal/wal"
)

// PersistenceMode selects where the cluster's durable state lives.
type PersistenceMode int

const (
	// PersistNone keeps every log in process memory (the original
	// simulation): nothing survives a process restart. This is the
	// default, used by tests and benchmarks.
	PersistNone PersistenceMode = iota
	// PersistDisk journals the TM recovery log, the DFS (name-node
	// metadata and per-node blocks), and table layouts to real files under
	// Config.DataDir. A stopped — or killed — cluster reopens from the
	// same directory with every committed transaction intact.
	PersistDisk
)

// ErrNoDataDir reports PersistDisk without a DataDir.
var ErrNoDataDir = errors.New("cluster: PersistDisk requires Config.DataDir")

// diskLog opens a segmented storage log rooted at dir.
func diskLog(dir string, segmentBytes int64) (*storage.Log, error) {
	be, err := storage.NewDiskBackend(dir)
	if err != nil {
		return nil, err
	}
	return storage.Open(storage.Config{Backend: be, SegmentBytes: segmentBytes})
}

// layout journal records: one record per layout change, holding the table
// name and its full region set. The last record per table wins on replay.

func encodeLayoutRec(table string, regions []kvstore.RegionInfo) []byte {
	b := binary.AppendUvarint(nil, uint64(len(table)))
	b = append(b, table...)
	b = binary.AppendUvarint(b, uint64(len(regions)))
	for _, r := range regions {
		b = binary.AppendUvarint(b, uint64(len(r.ID)))
		b = append(b, r.ID...)
		b = binary.AppendUvarint(b, uint64(len(r.Range.Start)))
		b = append(b, r.Range.Start...)
		b = binary.AppendUvarint(b, uint64(len(r.Range.End)))
		b = append(b, r.Range.End...)
	}
	return b
}

var errBadLayoutRec = errors.New("cluster: malformed layout record")

func readLayoutString(b []byte) (string, []byte, error) {
	n, c := binary.Uvarint(b)
	if c <= 0 || uint64(len(b)-c) < n {
		return "", nil, errBadLayoutRec
	}
	return string(b[c : c+int(n)]), b[c+int(n):], nil
}

func decodeLayoutRec(b []byte) (string, []kvstore.RegionInfo, error) {
	table, b, err := readLayoutString(b)
	if err != nil {
		return "", nil, err
	}
	n, c := binary.Uvarint(b)
	if c <= 0 {
		return "", nil, errBadLayoutRec
	}
	b = b[c:]
	regions := make([]kvstore.RegionInfo, 0, n)
	for i := uint64(0); i < n; i++ {
		var id, start, end string
		if id, b, err = readLayoutString(b); err != nil {
			return "", nil, err
		}
		if start, b, err = readLayoutString(b); err != nil {
			return "", nil, err
		}
		if end, b, err = readLayoutString(b); err != nil {
			return "", nil, err
		}
		regions = append(regions, kvstore.RegionInfo{
			ID:    id,
			Table: table,
			Range: kv.KeyRange{Start: kv.Key(start), End: kv.Key(end)},
		})
	}
	return table, regions, nil
}

// RecordLayout implements kvstore.LayoutSink: it journals the table's
// current region set durably before returning, so any commit that can
// reference the table is preceded by its layout on stable storage. The
// error propagates to the layout change's caller — a create or split whose
// layout cannot be made durable must not be acknowledged.
func (c *Cluster) RecordLayout(table string, regions []kvstore.RegionInfo) error {
	if c.layoutLog == nil {
		return nil
	}
	_, err := c.layoutLog.AppendBatch([][]byte{encodeLayoutRec(table, regions)})
	return err
}

// replayLayouts returns the last journaled region set per table plus the
// order tables first appeared (so restoration is deterministic).
func replayLayouts(log *storage.Log) (map[string][]kvstore.RegionInfo, []string, error) {
	layouts := make(map[string][]kvstore.RegionInfo)
	var order []string
	err := log.Replay(func(_ storage.RecordPos, payload []byte) error {
		table, regions, err := decodeLayoutRec(payload)
		if err != nil {
			return nil // damaged record: skip
		}
		if _, ok := layouts[table]; !ok {
			order = append(order, table)
		}
		layouts[table] = regions
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return layouts, order, nil
}

// harvestWALEdits reads every region-server write-ahead log left behind by
// the previous incarnation, groups the durable entries by region, and
// removes the files (the new incarnation's servers create fresh WALs under
// the same paths). This is the master's log-splitting step, applied at
// reopen: entries covering regions that no longer exist in any layout (for
// instance a split parent, whose data was flushed to store files before the
// split) are dropped by the caller when it routes edits by region ID.
func (c *Cluster) harvestWALEdits() map[string][]kvstore.WALEntry {
	edits := make(map[string][]kvstore.WALEntry)
	for _, path := range c.fs.List("/wal/") {
		records, err := wal.ReadAll(c.fs, path)
		if err != nil && records == nil {
			_ = c.fs.Delete(path)
			continue // unreadable log: the TM log replay covers its tail
		}
		for _, rec := range records {
			e, err := kvstore.DecodeWALEntry(rec)
			if err != nil {
				continue
			}
			edits[e.RegionID] = append(edits[e.RegionID], e)
		}
		_ = c.fs.Delete(path)
	}
	for _, path := range c.fs.List("/recovered/") {
		_ = c.fs.Delete(path) // split-output copies written by earlier versions
	}
	return edits
}

// restoreState rebuilds a reopened cluster's tables and data: table layouts
// come from the layout journal, store files from the replayed DFS, WAL
// tails from the harvested server logs, and — the paper's actual durability
// story — every retained write-set in the TM recovery log is replayed into
// the store. Afterwards every memstore is flushed, so the recovered state
// is durable in store files before the cluster goes live, and the log is
// checkpointed down to its last timestamp.
func (c *Cluster) restoreState(layouts map[string][]kvstore.RegionInfo, order []string, edits map[string][]kvstore.WALEntry) error {
	for _, table := range order {
		if err := c.master.RestoreTable(table, layouts[table], edits); err != nil {
			return fmt.Errorf("cluster: restore table %s: %w", table, err)
		}
	}

	for _, ws := range c.log.Retained() {
		perServer := make(map[*kvstore.RegionServer][]kv.Update)
		for _, u := range ws.Updates {
			_, host, err := c.master.Locate(u.Table, u.Row)
			if err != nil {
				return fmt.Errorf("cluster: replay commit %d: %w", ws.CommitTS, err)
			}
			// Reopen restores onto servers built in this process, so the
			// host is always the concrete server (ReplayWriteSet bypasses
			// the WAL — a deliberate local-only operation: the replayed
			// write-sets are already durable in the retained commit log).
			srv, ok := host.(*kvstore.RegionServer)
			if !ok {
				return fmt.Errorf("cluster: replay commit %d: region %s/%s hosted remotely", ws.CommitTS, u.Table, u.Row)
			}
			perServer[srv] = append(perServer[srv], u)
		}
		for srv, updates := range perServer {
			part := kv.WriteSet{
				TxnID:    ws.TxnID,
				ClientID: ws.ClientID,
				CommitTS: ws.CommitTS,
				Updates:  updates,
			}
			if err := srv.ReplayWriteSet(part); err != nil {
				return fmt.Errorf("cluster: replay commit %d on %s: %w", ws.CommitTS, srv.ID(), err)
			}
		}
	}

	// Persist everything that was just replayed: with the memstores
	// flushed to store files, the recovered state no longer depends on the
	// recovery log, and the log can be checkpointed (the reopen analogue
	// of the paper's global checkpoint at T_P).
	c.mu.Lock()
	units := make([]*serverUnit, 0, len(c.servers))
	for _, u := range c.servers {
		units = append(units, u)
	}
	c.mu.Unlock()
	for _, u := range units {
		if err := u.srv.FlushAll(); err != nil {
			return fmt.Errorf("cluster: post-replay flush: %w", err)
		}
	}
	if !c.cfg.DisableTruncation {
		c.log.Truncate(c.log.LastTS())
	}
	return nil
}

// dataSubdir returns the storage directory for one cluster component.
func dataSubdir(root string, parts ...string) string {
	return filepath.Join(append([]string{root}, parts...)...)
}

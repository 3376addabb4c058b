package cluster

import (
	"errors"
	"io/fs"
	"path/filepath"
	"time"

	"txkv/internal/dfs"
	"txkv/internal/kvstore"
)

// Resource lifecycle: the cluster-level entry points of the space
// reclamation subsystem. Two layers cooperate to keep a long-running
// cluster's disk usage bounded:
//
//   - Store-file retirement (internal/kvstore): region compactions merge
//     store files and retire the inputs; the retired files are physically
//     unlinked from the DFS once the last read view drains, which frees
//     their blocks on the data nodes.
//   - DFS log compaction (internal/dfs): CompactLogs rewrites the live
//     name-node metadata and the live blocks into fresh journal segments
//     and drops the old ones, reclaiming the bytes of everything the layer
//     above deleted.
//
// ReclaimStorage runs one full pass of both; the janitor (Config.
// CompactionInterval) runs it on a cadence. Region compactions use the
// transaction manager's SafeSnapshot as their version-GC horizon, so no
// in-flight or future transaction can lose a readable version.

// ReclaimReport summarizes one ReclaimStorage pass.
type ReclaimReport struct {
	// DFS is the log-compaction result (segments dropped, bytes
	// reclaimed, live state retained).
	DFS dfs.CompactStats
	// Horizon is the version-GC horizon region compactions used.
	Horizon int64
}

// ReclaimStorage runs one reclamation pass: every live server compacts its
// multi-file regions (freeing retired store files and their DFS blocks),
// then the DFS persistence logs are checkpointed and their dead segments
// dropped. Safe to call while clients run; with PersistNone the DFS pass is
// a no-op but store-file compaction still applies.
func (c *Cluster) ReclaimStorage() (ReclaimReport, error) {
	rep := ReclaimReport{Horizon: int64(c.tm.SafeSnapshot())}
	c.mu.Lock()
	units := make([]*serverUnit, 0, len(c.servers))
	for _, u := range c.servers {
		units = append(units, u)
	}
	c.mu.Unlock()
	for _, u := range units {
		if u.srv.Crashed() {
			continue
		}
		// Roll first: it flushes every region, so the compaction that
		// follows merges the freshly flushed files too. Rolling bounds the
		// live WAL — the one file log compaction alone cannot shrink.
		if err := u.srv.RollWAL(); err != nil && !errors.Is(err, kvstore.ErrServerStopped) {
			return rep, err
		}
		if err := u.srv.CompactAll(); err != nil {
			return rep, err
		}
	}
	cs, err := c.fs.CompactLogs()
	rep.DFS = cs
	return rep, err
}

// RollWALs rolls every live server's WAL, flushing all hosted regions to
// store files without compacting them. Benches use it to stage regions
// with a known multi-file layout before cold-read measurement; unlike
// ReclaimStorage it never merges files, so the staged layout persists.
func (c *Cluster) RollWALs() error {
	c.mu.Lock()
	units := make([]*serverUnit, 0, len(c.servers))
	for _, u := range c.servers {
		units = append(units, u)
	}
	c.mu.Unlock()
	for _, u := range units {
		if u.srv.Crashed() {
			continue
		}
		if err := u.srv.RollWAL(); err != nil && !errors.Is(err, kvstore.ErrServerStopped) {
			return err
		}
	}
	return nil
}

// janitorLoop is the background reclamation worker started when
// Config.CompactionInterval is non-zero.
func (c *Cluster) janitorLoop() {
	defer c.janitorWG.Done()
	t := time.NewTicker(c.cfg.CompactionInterval)
	defer t.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case <-t.C:
			// Best effort: a server crashing mid-pass surfaces as an
			// error here and the next tick retries; readers are never
			// affected (retirement is drain-deferred).
			passStart := time.Now()
			_, err := c.ReclaimStorage()
			c.obs.Counter("janitor.passes").Add(1)
			if err != nil {
				c.obs.Counter("janitor.pass_errors").Add(1)
			}
			c.obs.Histogram("janitor.pass").Record(time.Since(passStart))
		}
	}
}

// DataDirBytes returns the total size of the cluster's data directory, the
// soak-test observable that must plateau under continuous writes with the
// janitor running. Returns 0 when the cluster is not disk-persistent.
func (c *Cluster) DataDirBytes() (int64, error) {
	if c.cfg.Persistence != PersistDisk || c.cfg.DataDir == "" {
		return 0, nil
	}
	var total int64
	err := filepath.WalkDir(c.cfg.DataDir, func(_ string, d fs.DirEntry, err error) error {
		// The janitor unlinks segments and store files concurrently with
		// the walk; an entry vanishing mid-walk is expected, not an error.
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

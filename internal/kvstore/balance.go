package kvstore

import (
	"fmt"
	"sort"
)

// Region migration and balancing. The paper motivates the architecture with
// HBase's elastic scalability: "when the existing region servers become
// overloaded, new region servers can be added dynamically" (§2.1). MoveRegion
// implements the HBase-style region move — flush, close on the source, open
// on the target — and Rebalance spreads regions evenly after servers join.

// MoveRegion migrates one region to the target server: the region goes
// offline, its memstore is flushed so the store files carry the full state,
// the source closes it, and the target opens it. Clients retry through the
// brief offline window exactly as during failure recovery.
func (m *Master) MoveRegion(regionID, targetServerID string) error {
	m.mu.Lock()
	target, ok := m.servers[targetServerID]
	if !ok || !target.alive {
		m.mu.Unlock()
		return fmt.Errorf("%w: target %s", ErrNoLiveServers, targetServerID)
	}
	srcID, ok := m.assign[regionID]
	if !ok || m.recovering[regionID] {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrRegionNotServing, regionID)
	}
	if srcID == targetServerID {
		m.mu.Unlock()
		return nil
	}
	src := m.servers[srcID]
	var info RegionInfo
	found := false
	for _, regions := range m.tables {
		for _, ri := range regions {
			if ri.ID == regionID {
				info, found = ri, true
			}
		}
	}
	if !found || src == nil {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrRegionNotServing, regionID)
	}
	m.recovering[regionID] = true
	delete(m.assign, regionID)
	m.mu.Unlock()

	reassign := func(sid string) {
		m.mu.Lock()
		m.assign[regionID] = sid
		delete(m.recovering, regionID)
		m.mu.Unlock()
	}
	// The returned paths are the source's final live store files — the
	// target must open exactly these: the directory listing can still
	// contain retired compaction inputs whose deferred deletion fires
	// when the source's last reader drains.
	files, err := src.host.CloseAndFlushRegion(regionID)
	if err != nil {
		reassign(srcID) // leave it where it was
		return fmt.Errorf("move %s: %w", regionID, err)
	}
	if err := target.host.OpenRegionFiles(info, files, nil); err != nil {
		// Try to restore it on the source. Either way the source's stream
		// state is gone, so the group (if any) re-forms at a fresh epoch.
		if rerr := src.host.OpenRegionFiles(info, files, nil); rerr == nil {
			reassign(srcID)
			m.ensureReplicated(info, srcID, true)
		}
		return fmt.Errorf("move %s: open on %s: %w", regionID, targetServerID, err)
	}
	reassign(targetServerID)
	// The region's copy moved: re-form the replication group around the new
	// primary at a fresh epoch (stale followers re-anchor on its stream).
	m.ensureReplicated(info, targetServerID, true)
	return nil
}

// Rebalance moves regions from the most- to the least-loaded live servers
// until region counts differ by at most one. Returns the number of moves.
func (m *Master) Rebalance() (int, error) {
	moves := 0
	for {
		m.mu.Lock()
		counts := make(map[string]int)
		for id, rec := range m.servers {
			if rec.alive {
				counts[id] = 0
			}
		}
		if len(counts) < 2 {
			m.mu.Unlock()
			return moves, nil
		}
		regionsByServer := make(map[string][]string)
		for regionID, sid := range m.assign {
			if _, live := counts[sid]; live && !m.recovering[regionID] {
				counts[sid]++
				regionsByServer[sid] = append(regionsByServer[sid], regionID)
			}
		}
		type load struct {
			id string
			n  int
		}
		loads := make([]load, 0, len(counts))
		for id, n := range counts {
			loads = append(loads, load{id, n})
		}
		sort.Slice(loads, func(i, j int) bool {
			if loads[i].n != loads[j].n {
				return loads[i].n < loads[j].n
			}
			return loads[i].id < loads[j].id
		})
		least, most := loads[0], loads[len(loads)-1]
		if most.n-least.n <= 1 {
			m.mu.Unlock()
			return moves, nil
		}
		candidates := regionsByServer[most.id]
		sort.Strings(candidates)
		victim := candidates[0]
		m.mu.Unlock()

		if err := m.MoveRegion(victim, least.id); err != nil {
			return moves, err
		}
		moves++
	}
}

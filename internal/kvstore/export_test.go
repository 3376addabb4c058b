package kvstore

import "time"

// SetLastHeartbeat records one last-heartbeat instant for every given
// server, so the liveness check finds them silent at the same moment.
func (m *Master) SetLastHeartbeat(at time.Time, ids ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range ids {
		if rec := m.servers[id]; rec != nil {
			rec.lastHB = at
		}
	}
}

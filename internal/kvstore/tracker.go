package kvstore

import (
	"sync"

	"txkv/internal/kv"
)

// serverTracker maintains a region server's persisted threshold T_P(s), the
// server side of the paper's Algorithm 3. A server cannot deduce from its
// own receive stream which timestamps it merely was not a participant of,
// so T_P(s) advances conservatively: after a WAL sync, T_P(s) moves to the
// latest global T_F the server had learned before the sync began — every
// transaction at or below that T_F was flushed to its participants before
// T_F was computed, hence received before the sync began, hence persisted
// by it.
//
// Replayed updates from the recovery client carry the failed server's
// T_P(s_failed); receiving one lowers this server's threshold at once
// (inheritance, Alg. 3 lines 18-22) and keeps it pinned at or below that
// value until a WAL sync that began after the replay has made it durable.
type serverTracker struct {
	mu      sync.Mutex
	tp      kv.Timestamp   // T_P(s)
	tf      kv.Timestamp   // latest global T_F learned from a heartbeat reply
	piggies []kv.Timestamp // inherited thresholds no completed sync covers yet
	sent    kv.Timestamp   // T_P(s) the master holds, when settled
	settled bool           // the last report landed and none is in flight
}

// learnTF records the global T_F carried by a heartbeat reply. The global
// T_F never regresses, so a lower value (a failed beat replies 0) is
// ignored.
func (t *serverTracker) learnTF(tf kv.Timestamp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tf > t.tf {
		t.tf = tf
	}
}

// inherit records a replayed write-set carrying a failed server's
// threshold: T_P(s) drops to it if lower, and stays capped by it until a
// sync covers the replay. It reports whether the master may hold a higher
// T_P(s) than the new one, which must then be reported before the replay
// is acknowledged (Alg. 3: "if T_P(s') < T_P: T_P <- T_P(s'); heartbeat()").
func (t *serverTracker) inherit(piggy kv.Timestamp) (mustReport bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.piggies = append(t.piggies, piggy)
	if piggy < t.tp {
		t.tp = piggy
	}
	return !t.settled || t.tp < t.sent
}

// sending returns T_P(s) for a report about to go out. Until landed is
// called, the master's value is unknown: its registration seed, or a report
// that may still land.
func (t *serverTracker) sending() kv.Timestamp {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.settled = false
	return t.tp
}

// landed records that a report of tp reached the master.
func (t *serverTracker) landed(tp kv.Timestamp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sent, t.settled = tp, true
}

// beginSync is called before a WAL sync starts. It returns the T_F the sync
// may advance T_P(s) to and the number of inherited pins the sync covers
// (replays appended to the WAL before this call).
func (t *serverTracker) beginSync() (tf kv.Timestamp, pins int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tf, len(t.piggies)
}

// synced completes a successful sync begun with beginSync: the covered pins
// are released and T_P(s) moves to tf, capped by the pins of replays that
// arrived during the sync. A failed sync calls nothing, so its pins stay.
func (t *serverTracker) synced(tf kv.Timestamp, pins int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.piggies = t.piggies[pins:]
	tp := tf
	for _, p := range t.piggies {
		if p < tp {
			tp = p
		}
	}
	t.tp = tp
}

// TP returns the current T_P(s).
func (t *serverTracker) TP() kv.Timestamp {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tp
}

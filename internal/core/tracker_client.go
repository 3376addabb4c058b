package core

import (
	"sync"

	"txkv/internal/kv"
)

// ClientTracker maintains a client's flushed-threshold timestamp T_F(c)
// exactly as the paper's Algorithm 1: two synchronized priority queues —
// FQ, holding every transaction that entered the commit phase, enqueued in
// commit-timestamp order, and FQ' (fqFlushed here), holding every
// transaction whose write-set has been completely flushed to all
// participant servers. T_F(c) advances only while the heads of both queues
// match, which preserves the local invariant even when flushes complete out
// of commit order:
//
//	every local transaction with commit ts T <= T_F(c) is fully flushed.
type ClientTracker struct {
	mu        sync.Mutex
	tf        kv.Timestamp
	fq        tsHeap // committed txns, in commit order (Alg. 1 FQ)
	fqFlushed tsHeap // flushed txns (Alg. 1 FQ')
}

// NewClientTracker returns a tracker with T_F(c) initialized to initial —
// the global T_F at registration time (paper Alg. 2, "On register").
func NewClientTracker(initial kv.Timestamp) *ClientTracker {
	return &ClientTracker{tf: initial}
}

// OnCommitted records that the local transaction with the given commit
// timestamp entered the commit phase. MUST be invoked in commit-timestamp
// order (the transaction manager's ordered commit observer guarantees
// this); Algorithm 1 relies on FQ being populated in commit order.
func (t *ClientTracker) OnCommitted(ts kv.Timestamp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fq.push(ts)
}

// OnFlushed records that the transaction's write-set has been received in
// full by all its participant servers (Alg. 1 "On post-flush").
func (t *ClientTracker) OnFlushed(ts kv.Timestamp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fqFlushed.push(ts)
}

// Advance performs the heartbeat-time threshold advance (Alg. 1 "On
// heartbeat"): while the earliest tracked commit has completed its flush,
// dequeue both trackers and move T_F(c) forward. It returns the resulting
// T_F(c).
//
// lastIssued reads the transaction manager's last issued timestamp L; when
// FQ is empty afterwards, T_F(c) moves up to L, so an idle client does not
// pin the global T_F and log truncation. The manager enters each commit in
// FQ under the lock L is read under, so with L read before FQ is inspected,
// an empty FQ means every own commit at or below L is flushed.
func (t *ClientTracker) Advance(lastIssued func() kv.Timestamp) kv.Timestamp {
	issued := lastIssued()
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.fq.len() > 0 && t.fqFlushed.len() > 0 {
		// Drop stale flush entries (duplicate notifications from retried
		// flushes) that refer to commits already advanced past; they
		// would otherwise wedge the head comparison forever.
		if t.fqFlushed.min() < t.fq.min() {
			t.fqFlushed.pop()
			continue
		}
		if t.fq.min() != t.fqFlushed.min() {
			break // respect local commit ordering
		}
		t.tf = t.fq.pop()
		t.fqFlushed.pop()
	}
	if t.fq.len() == 0 && issued > t.tf {
		t.tf = issued
	}
	return t.tf
}

// TF returns the current T_F(c) without advancing it.
func (t *ClientTracker) TF() kv.Timestamp {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tf
}

// PendingFlushes returns |FQ|: commits whose flush has not yet been
// reflected in T_F(c). The queue-size monitor alerts the recovery manager
// when this exceeds a threshold (paper §3.2: a permanently unavailable
// region would otherwise silently block the global thresholds).
func (t *ClientTracker) PendingFlushes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fq.len()
}

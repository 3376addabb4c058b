// Package txlog implements the transaction manager's recovery log: the
// append-only, commit-ordered log of committed write-sets that provides
// durability for the whole system (paper §2.2). It supports group commit —
// one fsync covers every record that queued while the previous sync was in
// flight — plus the two retrieval operations the recovery manager needs
// (fetch a client's commits after a threshold, fetch all commits after a
// threshold) and truncation below the global persisted threshold T_P (the
// paper's global checkpoint).
//
// The paper's logging sub-component "has access to its own high performance
// stable storage"; that stable storage is an internal/storage segmented log.
// With the default in-memory backend the log behaves like the original
// simulation (reliable in-process storage whose sync cost is the configured
// latency); with a disk backend every committed write-set is durable on
// real files, the in-memory retrieval index is rebuilt by replaying the
// segments on Open, and truncation both journals a marker and reclaims
// whole segments below the retained point.
package txlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"txkv/internal/kv"
	"txkv/internal/obs"
	"txkv/internal/storage"
)

// Log errors.
var (
	ErrClosed    = errors.New("txlog: log closed")
	ErrTruncated = errors.New("txlog: range already truncated")
)

// truncMarkerFormat tags a truncation-watermark record in the storage log.
// kv write-set encodings begin with 0x11; this byte must stay distinct.
const truncMarkerFormat = 0x12

// Config controls the log.
type Config struct {
	// SyncLatency is the duration of one group-commit fsync. All records
	// enqueued while a sync is in flight are covered by the next one.
	SyncLatency time.Duration
	// Backend is the stable storage holding the log's segments. Nil means
	// a fresh in-memory backend (the default for tests and benchmarks); a
	// storage.DiskBackend makes commits durable across process restarts.
	Backend storage.Backend
	// SegmentBytes caps a storage segment before rotation (0 = default).
	SegmentBytes int64
	// Registry receives the txlog.sync histogram (wall-clock duration of
	// each group-commit sync: storage append + fsync) and txlog.sync_batch
	// (record count of each group-commit batch — how well commits coalesce
	// under load). Nil records nothing.
	Registry *obs.Registry
}

// Stats reports log counters used by the truncation experiment.
type Stats struct {
	DurableRecords   int   // records currently retained
	DurableBytes     int64 // approximate bytes currently retained
	TotalAppends     int64 // records ever appended (since open)
	TotalBytes       int64 // bytes ever appended (since open)
	Syncs            int64 // group-commit fsyncs performed
	TruncatedRecords int64 // records removed by truncation
	TruncatedBelow   kv.Timestamp
	Segments         int // storage segments currently on the backend
	ReplayedRecords  int // records recovered from stable storage at Open
	ReplayedDropped  int // replayed records discarded (truncated/undecodable)
}

type pendingRec struct {
	ws   kv.WriteSet
	done chan error
}

// CommitSink receives every commit record exactly once, in commit-timestamp
// order, after the record is durable on stable storage and before the
// committing caller's done channel fires. The log calls it from its single
// sync goroutine, so implementations see a strictly serial, ordered feed —
// the hook the watch/CDC subsystem tails. Implementations must not block:
// anything slow belongs behind a bounded queue (a blocking sink would extend
// the group-commit critical path for every committer).
type CommitSink func(ws kv.WriteSet)

// Pin holds a retention position: Truncate will not drop records with
// CommitTS > the pin's position, so a historical reader (a catching-up
// watcher) can keep replaying from its position without the janitor
// reclaiming the range underneath it. Advance the pin as the reader
// progresses and Release it when done — an abandoned pin holds the log's
// disk space forever.
type Pin struct {
	l   *Log
	pos kv.Timestamp
}

// Pin registers a retention pin at pos: records with CommitTS > pos stay
// retrievable until the pin advances past them or is released.
func (l *Log) Pin(pos kv.Timestamp) *Pin {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := &Pin{l: l, pos: pos}
	if l.pins == nil {
		l.pins = make(map[*Pin]struct{})
	}
	l.pins[p] = struct{}{}
	return p
}

// Advance moves the pin forward (a smaller pos is a no-op: pins never move
// backwards, mirroring Truncate).
func (p *Pin) Advance(pos kv.Timestamp) {
	p.l.mu.Lock()
	defer p.l.mu.Unlock()
	if pos > p.pos {
		p.pos = pos
	}
}

// Pos returns the pin's current position.
func (p *Pin) Pos() kv.Timestamp {
	p.l.mu.Lock()
	defer p.l.mu.Unlock()
	return p.pos
}

// Release drops the pin. Idempotent.
func (p *Pin) Release() {
	p.l.mu.Lock()
	defer p.l.mu.Unlock()
	delete(p.l.pins, p)
}

// minPinLocked returns the lowest pinned position (or max if none). Caller
// holds l.mu.
func (l *Log) minPinLocked() (kv.Timestamp, bool) {
	var (
		low kv.Timestamp
		any bool
	)
	for p := range l.pins {
		if !any || p.pos < low {
			low, any = p.pos, true
		}
	}
	return low, any
}

// logRec is one durable, indexed commit record and the storage segment
// holding its bytes (used to reclaim whole segments on truncation).
type logRec struct {
	ws  kv.WriteSet
	seg uint64
}

// Log is the recovery log. Records must be enqueued in commit-timestamp
// order (the transaction manager enqueues under its commit mutex, which
// guarantees this); retrieval relies on that order.
type Log struct {
	cfg   Config
	store *storage.Log

	syncHist, syncBatch *obs.Histogram

	mu        sync.Mutex
	cond      *sync.Cond
	pending   []pendingRec
	records   []logRec     // durable, ascending CommitTS
	truncated kv.Timestamp // all records <= truncated have been dropped
	lastTS    kv.Timestamp // highest CommitTS ever observed (incl. truncated)
	closed    bool
	stats     Stats
	pins      map[*Pin]struct{} // active retention pins (watchers)
	sink      CommitSink        // durable-ordered commit hook (nil = none)

	// ioMu spans each batch's storage append plus its index insertion, and
	// Truncate's marker append plus segment reclamation. Without it a
	// truncation could observe an empty index while a durable batch is
	// still between AppendBatch and the index, and reclaim the very
	// segment holding that batch's records. Always acquired before mu.
	ioMu sync.Mutex

	// encoded carries encoder-prepared batches to the sync loop. The
	// buffer of one lets the encoder serialize batch N+1 while the fsync
	// of batch N is still in flight, so payload encoding never extends the
	// group-commit critical path.
	encoded chan encodedBatch

	wg sync.WaitGroup
}

// encodedBatch is one group of records with their payloads already
// serialized, ready for a single storage append + fsync.
type encodedBatch struct {
	recs     []pendingRec
	payloads [][]byte
}

// Open creates or resumes a log on cfg.Backend. Resuming replays the
// storage segments to rebuild the in-memory retrieval index: commit records
// re-populate the index in commit order and truncation markers re-establish
// the watermark, so a reopened log serves After/ByClientAfter exactly as if
// the process had never stopped.
func Open(cfg Config) (*Log, error) {
	store, err := storage.Open(storage.Config{
		Backend:      cfg.Backend,
		SegmentBytes: cfg.SegmentBytes,
		SyncDelay:    cfg.SyncLatency,
	})
	if err != nil {
		return nil, fmt.Errorf("txlog: open storage: %w", err)
	}
	l := &Log{
		cfg:       cfg,
		store:     store,
		syncHist:  cfg.Registry.Histogram("txlog.sync"),
		syncBatch: cfg.Registry.Histogram("txlog.sync_batch"),
	}
	l.cond = sync.NewCond(&l.mu)

	err = store.Replay(func(pos storage.RecordPos, payload []byte) error {
		if len(payload) == 0 {
			return nil
		}
		if payload[0] == truncMarkerFormat {
			ts, err := decodeTruncMarker(payload)
			if err != nil {
				l.stats.ReplayedDropped++
				return nil
			}
			if ts > l.truncated {
				l.truncated = ts
			}
			if ts > l.lastTS {
				l.lastTS = ts
			}
			return nil
		}
		ws, err := kv.DecodeWriteSet(payload)
		if err != nil {
			l.stats.ReplayedDropped++ // foreign or damaged record: skip
			return nil
		}
		l.records = append(l.records, logRec{ws: ws, seg: pos.Segment})
		if ws.CommitTS > l.lastTS {
			l.lastTS = ws.CommitTS
		}
		l.stats.ReplayedRecords++
		return nil
	})
	if err != nil {
		_ = store.Close()
		return nil, fmt.Errorf("txlog: replay: %w", err)
	}

	// Apply the recovered watermark: markers can trail the records they
	// cover, so the drop happens after the full replay.
	if l.truncated > 0 {
		i := sort.Search(len(l.records), func(i int) bool {
			return l.records[i].ws.CommitTS > l.truncated
		})
		l.stats.ReplayedDropped += i
		l.records = append([]logRec(nil), l.records[i:]...)
	}
	for _, r := range l.records {
		sz := recordSize(r.ws)
		l.stats.DurableRecords++
		l.stats.DurableBytes += sz
	}
	l.stats.TruncatedBelow = l.truncated

	l.encoded = make(chan encodedBatch, 1)
	l.wg.Add(2)
	go l.encodeLoop()
	go l.syncLoop()
	return l, nil
}

// New creates and starts a log. It panics if the backend cannot be opened —
// use Open to handle resumable (disk) backends gracefully.
func New(cfg Config) *Log {
	l, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// SetCommitSink installs the durable-ordered commit hook (see CommitSink).
// Install before the first commit is enqueued: the sink is read by the sync
// loop without further synchronization beyond the log mutex, and records
// that became durable before installation are not replayed into it.
func (l *Log) SetCommitSink(sink CommitSink) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = sink
}

// Enqueue adds a write-set to the current group and returns a channel that
// yields the durability result exactly once. Callers must enqueue in
// commit-timestamp order.
func (l *Log) Enqueue(ws kv.WriteSet) <-chan error {
	done := make(chan error, 1)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		done <- ErrClosed
		return done
	}
	l.pending = append(l.pending, pendingRec{ws: ws.Clone(), done: done})
	l.cond.Signal()
	return done
}

// Append enqueues ws and blocks until it is durable.
func (l *Log) Append(ws kv.WriteSet) error { return <-l.Enqueue(ws) }

// encodeLoop drains pending records, serializes their payloads, and hands
// complete batches to the sync loop. Encoding runs outside every lock and —
// thanks to the channel buffer — concurrently with the previous batch's
// fsync, so serialization cost overlaps stable-storage latency instead of
// adding to it.
func (l *Log) encodeLoop() {
	defer l.wg.Done()
	defer close(l.encoded)
	for {
		l.mu.Lock()
		for len(l.pending) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.pending) == 0 && l.closed {
			l.mu.Unlock()
			return
		}
		batch := l.pending
		l.pending = nil
		l.mu.Unlock()

		payloads := make([][]byte, len(batch))
		for i, p := range batch {
			payloads[i] = kv.EncodeWriteSet(p.ws)
		}
		l.encoded <- encodedBatch{recs: batch, payloads: payloads}
	}
}

func (l *Log) syncLoop() {
	defer l.wg.Done()
	for batch := range l.encoded {
		// One storage group-commit (single fsync + the configured sync
		// latency) covers the whole batch.
		syncStart := time.Now()
		l.ioMu.Lock()
		positions, err := l.store.AppendBatch(batch.payloads)

		l.mu.Lock()
		sink := l.sink
		if err == nil {
			for i, p := range batch.recs {
				l.records = append(l.records, logRec{ws: p.ws, seg: positions[i].Segment})
				if p.ws.CommitTS > l.lastTS {
					l.lastTS = p.ws.CommitTS
				}
				sz := int64(len(batch.payloads[i]))
				l.stats.DurableRecords++
				l.stats.DurableBytes += sz
				l.stats.TotalAppends++
				l.stats.TotalBytes += sz
			}
			l.stats.Syncs++
		}
		l.mu.Unlock()
		l.ioMu.Unlock()
		l.syncHist.Record(time.Since(syncStart))
		l.syncBatch.RecordValue(int64(len(batch.recs)))
		// Publish durable commits to the sink before releasing the waiters:
		// once a committer's Commit returns, its change event is already in
		// every live watcher's queue, so a watcher subscribed before the
		// commit can never miss it. Still strictly commit-ordered — this is
		// the log's single sync goroutine.
		if err == nil && sink != nil {
			for _, p := range batch.recs {
				sink(p.ws)
			}
		}
		for _, p := range batch.recs {
			p.done <- err
		}
	}
}

func recordSize(ws kv.WriteSet) int64 {
	return int64(kv.WriteSetSize(ws))
}

// After returns every durable record with CommitTS > after, in ascending
// commit order. It fails if the requested range has been truncated away.
func (l *Log) After(after kv.Timestamp) ([]kv.WriteSet, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after < l.truncated {
		return nil, fmt.Errorf("%w: need > %d, truncated at %d", ErrTruncated, after, l.truncated)
	}
	i := sort.Search(len(l.records), func(i int) bool { return l.records[i].ws.CommitTS > after })
	out := make([]kv.WriteSet, 0, len(l.records)-i)
	for ; i < len(l.records); i++ {
		out = append(out, l.records[i].ws.Clone())
	}
	return out, nil
}

// ReadAfter returns up to max durable records with CommitTS > after, in
// ascending commit order — the bounded, positioned form of After used by
// catching-up watchers: each call binary-searches the index by timestamp, so
// the reader holds no log-side state between pulls (the same stateless-
// continuation idiom as the scanner). max <= 0 means no bound. It fails with
// ErrTruncated if the range right after `after` has been truncated away.
func (l *Log) ReadAfter(after kv.Timestamp, max int) ([]kv.WriteSet, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after < l.truncated {
		return nil, fmt.Errorf("%w: need > %d, truncated at %d", ErrTruncated, after, l.truncated)
	}
	i := sort.Search(len(l.records), func(i int) bool { return l.records[i].ws.CommitTS > after })
	n := len(l.records) - i
	if max > 0 && n > max {
		n = max
	}
	out := make([]kv.WriteSet, 0, n)
	for ; len(out) < n; i++ {
		out = append(out, l.records[i].ws.Clone())
	}
	return out, nil
}

// ByClientAfter returns every durable record of clientID with CommitTS >
// after, ascending.
func (l *Log) ByClientAfter(clientID string, after kv.Timestamp) ([]kv.WriteSet, error) {
	all, err := l.After(after)
	if err != nil {
		return nil, err
	}
	out := all[:0]
	for _, ws := range all {
		if ws.ClientID == clientID {
			out = append(out, ws)
		}
	}
	return out, nil
}

// Retained returns every durable record still in the log, ascending — the
// replay set a reopened cluster applies to its stores.
func (l *Log) Retained() []kv.WriteSet {
	l.mu.Lock()
	after := l.truncated
	l.mu.Unlock()
	out, err := l.After(after)
	if err != nil {
		return nil // truncation raced forward; the new range needs no replay
	}
	return out
}

// LastTS returns the highest commit timestamp the log has ever observed,
// including truncated records. A reopened transaction manager seeds its
// timestamp oracle here so fresh commits sort after every recovered one.
func (l *Log) LastTS() kv.Timestamp {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastTS
}

// TruncatedBelow returns the current truncation watermark.
func (l *Log) TruncatedBelow() kv.Timestamp {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

func encodeTruncMarker(ts kv.Timestamp) []byte {
	return binary.AppendUvarint([]byte{truncMarkerFormat}, uint64(ts))
}

func decodeTruncMarker(payload []byte) (kv.Timestamp, error) {
	if len(payload) < 2 || payload[0] != truncMarkerFormat {
		return 0, errors.New("txlog: bad truncation marker")
	}
	v, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return 0, errors.New("txlog: truncated truncation marker")
	}
	return kv.Timestamp(v), nil
}

// Truncate drops every record with CommitTS <= upTo. The recovery manager
// calls this with the global persisted threshold T_P: those write-sets are
// durable in the data store itself and will never need replay (paper §3.2,
// "global checkpoint"). Truncate never un-truncates: a smaller upTo is a
// no-op. The watermark is journaled to stable storage (so a reopened log
// does not resurrect truncated records) and storage segments wholly below
// the retained point are physically reclaimed.
// Active retention pins clamp the drop: records above the lowest pinned
// position stay retrievable for the historical readers holding the pins,
// exactly as SafeSnapshot pins clamp the version-GC horizon.
func (l *Log) Truncate(upTo kv.Timestamp) {
	l.mu.Lock()
	if min, ok := l.minPinLocked(); ok && upTo > min {
		upTo = min
	}
	if l.closed || upTo <= l.truncated {
		l.mu.Unlock()
		return
	}
	i := sort.Search(len(l.records), func(i int) bool { return l.records[i].ws.CommitTS > upTo })
	for j := 0; j < i; j++ {
		l.stats.DurableBytes -= recordSize(l.records[j].ws)
	}
	l.stats.DurableRecords -= i
	l.stats.TruncatedRecords += int64(i)
	l.records = append([]logRec(nil), l.records[i:]...)
	l.truncated = upTo
	if upTo > l.lastTS {
		l.lastTS = upTo
	}
	l.stats.TruncatedBelow = upTo
	l.mu.Unlock()

	// ioMu: no commit batch may sit between its storage append and its
	// index insertion while segments are chosen for reclamation, or the
	// choice below could drop the segment holding that batch.
	l.ioMu.Lock()
	defer l.ioMu.Unlock()

	// Journal the watermark before reclaiming segments: if the process
	// dies between the two, replay sees the marker and still drops the
	// truncated range.
	if _, err := l.store.AppendBatch([][]byte{encodeTruncMarker(upTo)}); err != nil {
		return // backend failing; leave segments in place
	}
	// Everything below the first retained record's segment is reclaimable;
	// with nothing retained (and no batch in flight, per ioMu), everything
	// below the active segment is.
	l.mu.Lock()
	keepSeg := l.store.ActiveSegment()
	if len(l.records) > 0 {
		keepSeg = l.records[0].seg
	}
	l.mu.Unlock()
	_, _, _ = l.store.DropSegmentsBefore(keepSeg)
}

// Stats returns a snapshot of the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Segments = l.store.Stats().Segments
	return s
}

// Close drains pending records, stops the sync loop, and releases the
// stable storage.
func (l *Log) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.cond.Signal()
	l.mu.Unlock()
	l.wg.Wait()
	_ = l.store.Close()
}

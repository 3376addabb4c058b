package watch

import (
	"fmt"
	"sort"
	"time"

	"txkv/internal/kv"
	"txkv/internal/txlog"

	"sync"
)

// Config tunes a Hub.
type Config struct {
	// Buffer is the per-stream live queue depth, in batches. When a
	// consumer lets the queue fill, the stream falls back to historical
	// catch-up instead of blocking the commit path. 0 means the default.
	Buffer int
	// LagHorizon caps how far (in commits) a consumer may trail the commit
	// frontier before its stream is cancelled with ErrLagging and its
	// retention pin released. 0 means unlimited: a slow watcher pins the
	// log forever rather than being cancelled.
	LagHorizon kv.Timestamp
	// Page is the catch-up read size, in commits per txlog.ReadAfter pull.
	// 0 means the default.
	Page int
	// ProgressEvery throttles progress-only batches: while a live stream's
	// range is idle, an empty position-advancing batch is emitted at most
	// once per this many non-matching commits. 0 means the default.
	ProgressEvery int
}

const (
	defaultBuffer        = 256
	defaultPage          = 64
	defaultProgressEvery = 32
)

func (c Config) withDefaults() Config {
	if c.Buffer <= 0 {
		c.Buffer = defaultBuffer
	}
	if c.Page <= 0 {
		c.Page = defaultPage
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = defaultProgressEvery
	}
	return c
}

// Stats is a snapshot of hub counters, pulled into the metrics registry.
type Stats struct {
	Watchers         int   // streams currently open
	Live             int   // streams attached to the live tail
	CatchingUp       int   // streams replaying history
	QueuedBatches    int   // batches sitting in live queues right now
	EventsDelivered  int64 // change events handed to consumers
	BatchesDelivered int64 // batches handed to consumers (incl. progress)
	Overflows        int64 // live -> catch-up fallbacks (queue full)
	LagCancels       int64 // streams cancelled past the lag horizon
	HorizonFailures  int64 // starts/resumes rejected below the watermark
	Opened           int64 // streams ever opened
}

// WatcherInfo describes one open stream for /debug/watchers.
type WatcherInfo struct {
	ID        uint64       `json:"id"`
	Owner     string       `json:"owner,omitempty"`
	Table     string       `json:"table"`
	Start     string       `json:"start,omitempty"`
	End       string       `json:"end,omitempty"`
	Pos       kv.Timestamp `json:"pos"`
	Live      bool         `json:"live"`
	Queued    int          `json:"queued"`
	Events    int64        `json:"events"`
	Batches   int64        `json:"batches"`
	Overflows int64        `json:"overflows"`
	AgeMS     int64        `json:"age_ms"`
	LagMS     int64        `json:"-"` // reserved
	Lag       kv.Timestamp `json:"lag"`
}

// Hub fans durable commits out to watch streams. Create one per cluster,
// install Publish as the log's commit sink, and open streams with Watch.
type Hub struct {
	cfg Config
	log *txlog.Log

	mu          sync.Mutex
	subs        map[*Stream]struct{}
	lastDurable kv.Timestamp // highest commit Publish has fanned out
	nextID      uint64
	closed      bool
	stats       Stats
}

// NewHub creates a hub over the log. The caller must install hub.Publish as
// the log's commit sink (txlog.SetCommitSink) before the first commit.
func NewHub(log *txlog.Log, cfg Config) *Hub {
	return &Hub{
		cfg:  cfg.withDefaults(),
		log:  log,
		subs: make(map[*Stream]struct{}),
		// Seed the live frontier from the log: everything up to here is
		// history, served by catch-up reads.
		lastDurable: log.LastTS(),
	}
}

// Publish fans one durable commit out to the subscribed streams. It is the
// log's CommitSink: called from the log's single sync goroutine, strictly in
// commit order, after the record is durable and before the committer's done
// channel fires. It never blocks — sends to live queues are non-blocking,
// and a full queue demotes that stream to catch-up instead of waiting.
func (h *Hub) Publish(ws kv.WriteSet) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ws.CommitTS > h.lastDurable {
		h.lastDurable = ws.CommitTS
	}
	for s := range h.subs {
		if s.err != nil {
			continue
		}
		// Lag horizon: a consumer (live or catching up) too far behind the
		// frontier is cancelled so its pin stops holding the log.
		if h.cfg.LagHorizon > 0 && ws.CommitTS > s.pos+h.cfg.LagHorizon {
			h.stats.LagCancels++
			s.failLocked(fmt.Errorf("%w: position %d, frontier %d, horizon %d",
				ErrLagging, s.pos, ws.CommitTS, h.cfg.LagHorizon))
			continue
		}
		if !s.live {
			continue // catching up: it will read this commit from the log
		}
		evs := filterWS(ws, s.filter)
		if len(evs) == 0 {
			// Nothing in range. Keep the stream's position (and resume
			// token, and pin) moving with an occasional empty batch — but
			// only when the queue is idle, so the position never runs
			// ahead of undelivered events.
			s.sinceProgress++
			if s.sinceProgress >= h.cfg.ProgressEvery && len(s.queue) == 0 {
				select {
				case s.queue <- ChangeBatch{Pos: ws.CommitTS}:
					s.sinceProgress = 0
				default:
				}
			}
			continue
		}
		s.sinceProgress = 0
		select {
		case s.queue <- ChangeBatch{Events: evs, CommitTS: ws.CommitTS, Pos: ws.CommitTS}:
		default:
			// Queue full. The commit is durable in the log, so the stream
			// loses nothing by falling back to historical catch-up; it
			// re-attaches once it drains. The committer never waits.
			s.live = false
			s.overflows++
			h.stats.Overflows++
		}
	}
}

// Watch opens a stream of the commits matching filter with CommitTS > from.
// The stream replays history first, then hands off to the live tail. owner
// is a debug label (the watching client's ID). It fails with
// ErrHorizonPassed if from is below the log's truncation watermark.
func (h *Hub) Watch(filter Filter, from kv.Timestamp, owner string) (*Stream, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	// Pin before validating: once the pin holds, truncation cannot pass
	// `from`, so a successful check stays true.
	pin := h.log.Pin(from)
	if t := h.log.TruncatedBelow(); from < t {
		pin.Release()
		h.stats.HorizonFailures++
		return nil, fmt.Errorf("%w: resume at %d, log truncated below %d", ErrHorizonPassed, from, t)
	}
	h.nextID++
	s := &Stream{
		hub:     h,
		id:      h.nextID,
		owner:   owner,
		filter:  filter,
		pos:     from,
		pin:     pin,
		queue:   make(chan ChangeBatch, h.cfg.Buffer),
		failc:   make(chan struct{}),
		started: time.Now(),
	}
	h.subs[s] = struct{}{}
	h.stats.Opened++
	return s, nil
}

// Stats snapshots the hub counters.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.stats
	s.Watchers = len(h.subs)
	for sub := range h.subs {
		if sub.live {
			s.Live++
		} else if sub.err == nil {
			s.CatchingUp++
		}
		s.QueuedBatches += len(sub.queue)
	}
	return s
}

// Watchers describes every open stream, ordered by ID — the payload of
// /debug/watchers.
func (h *Hub) Watchers() []WatcherInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]WatcherInfo, 0, len(h.subs))
	for s := range h.subs {
		lag := kv.Timestamp(0)
		if h.lastDurable > s.pos {
			lag = h.lastDurable - s.pos
		}
		out = append(out, WatcherInfo{
			ID:        s.id,
			Owner:     s.owner,
			Table:     s.filter.Table,
			Start:     string(s.filter.Range.Start),
			End:       string(s.filter.Range.End),
			Pos:       s.pos,
			Live:      s.live,
			Queued:    len(s.queue),
			Events:    s.events,
			Batches:   s.batches,
			Overflows: s.overflows,
			AgeMS:     time.Since(s.started).Milliseconds(),
			Lag:       lag,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close cancels every stream with ErrClosed and rejects future watches. Call
// it on cluster stop, before closing the log.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		if s.err == nil {
			s.failLocked(ErrClosed)
		}
	}
}

package kvstore

import (
	"context"
	"fmt"
	"time"

	"txkv/internal/kv"
	"txkv/internal/obs"
)

// defaultScanBatch is the per-request batch size when ScanOptions.Batch is
// zero: large enough to amortize the RPC, small enough that server and
// client memory stay far below big-range result sizes.
const defaultScanBatch = 256

// ScanOptions tunes a streaming scan.
type ScanOptions struct {
	// Limit caps the total number of entries delivered (0 = unlimited).
	// It is pushed down into the per-batch requests, so servers never
	// produce entries past it.
	Limit int
	// Batch bounds one request's response (0 = defaultScanBatch, negative
	// = unbounded single-batch-per-region, the legacy behaviour).
	Batch int
	// Columns projects the scan onto the given columns (nil = all). The
	// filter runs inside the server's merge, before batching.
	Columns []string
	// KeysOnly elides values server-side: the scan delivers coordinates
	// (row, column, version) with nil Value bytes. The value bytes never
	// leave the region server's merge, so a coordinate sweep over a
	// large-value table ships only keys — the DeleteRange push-down.
	KeysOnly bool
}

// batchSize resolves the effective per-request batch bound (0 = unbounded).
func (o ScanOptions) batchSize() int {
	switch {
	case o.Batch < 0:
		return 0
	case o.Batch == 0:
		return defaultScanBatch
	default:
		return o.Batch
	}
}

// Scanner streams a range scan as a sequence of bounded batch RPCs, pulling
// the next batch only when the previous one is consumed. All continuation
// state lives here (resume coordinate + snapshot timestamp); region servers
// keep nothing between batches, so the scan transparently survives region
// splits, moves, and server fail-over by re-resolving its position against
// the master's layout — exactly the retry discipline of point reads.
//
//	sc := client.NewScanner(ctx, "t", rng, snapTS, ScanOptions{})
//	for sc.Next() {
//		use(sc.KV())
//	}
//	err := sc.Err()
type Scanner struct {
	c     *Client
	ctx   context.Context
	table string
	end   kv.Key // overall range end ("" = unbounded)
	maxTS kv.Timestamp
	opts  ScanOptions

	buf []kv.KeyValue // fetched, not yet delivered
	pos int           // next index in buf
	cur kv.KeyValue

	emitted   int
	nextStart kv.Key     // inclusive row where the next fetch begins
	resume    kv.CellKey // last delivered coordinate
	hasResume bool
	exhausted bool // no further fetches: range complete (or limit hit)
	err       error
}

// NewScanner starts a streaming scan of rng at snapshot maxTS. The scan
// performs no I/O until the first Next call. ctx cancels in-flight batch
// requests and stops the scan at the next pull.
func (c *Client) NewScanner(ctx context.Context, table string, rng kv.KeyRange, maxTS kv.Timestamp, opts ScanOptions) *Scanner {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Scanner{
		c:         c,
		ctx:       ctx,
		table:     table,
		end:       rng.End,
		maxTS:     maxTS,
		opts:      opts,
		nextStart: rng.Start,
	}
}

// Next advances to the next entry, fetching the next batch when the buffer
// is drained. It returns false when the scan is exhausted, failed, or
// cancelled; Err distinguishes.
func (s *Scanner) Next() bool {
	for {
		if s.err != nil {
			return false
		}
		if s.pos < len(s.buf) {
			s.cur = s.buf[s.pos]
			s.pos++
			s.emitted++
			s.resume = kv.CellKey{Row: s.cur.Row, Column: s.cur.Column}
			s.hasResume = true
			if s.opts.Limit > 0 && s.emitted >= s.opts.Limit {
				s.exhausted = true
			}
			return true
		}
		if s.exhausted {
			return false
		}
		s.fill()
	}
}

// KV returns the current entry. Only valid after a true Next.
func (s *Scanner) KV() kv.KeyValue { return s.cur }

// Err returns the scan's terminal error, if any. A cancelled context
// surfaces as its ctx error.
func (s *Scanner) Err() error { return s.err }

// Close stops the scan: no further batches are fetched. Close is idempotent
// and safe at any point; a fully consumed scan need not be closed (the
// scanner holds no server-side resources between pulls).
func (s *Scanner) Close() { s.exhausted = true }

// fill fetches one batch at the scanner's current position, retrying with
// re-location when the hosting region moved — the same retryable-error
// discipline as point reads.
func (s *Scanner) fill() {
	if err := s.ctx.Err(); err != nil {
		s.err = fmt.Errorf("kvstore: scan %s cancelled before batch: %w", s.table, err)
		return
	}
	// Continue from the last delivered row when it is past the region
	// bound we advanced to (mid-region continuation).
	start := s.nextStart
	if s.hasResume && s.resume.Row > start {
		start = s.resume.Row
	}
	if s.end != "" && start >= s.end {
		s.exhausted = true
		return
	}
	batch := s.opts.batchSize()
	if s.opts.Limit > 0 {
		if rem := s.opts.Limit - s.emitted; batch == 0 || rem < batch {
			batch = rem
		}
	}
	req := ScanRequest{
		Table:     s.table,
		Range:     kv.KeyRange{Start: start, End: s.end},
		MaxTS:     s.maxTS,
		Resume:    s.resume,
		HasResume: s.hasResume,
		Columns:   s.opts.Columns,
		KeysOnly:  s.opts.KeysOnly,
		Batch:     batch,
	}

	s.c.m.scanBatches.Add(1)
	if s.hasResume {
		s.c.m.scanContinuations.Add(1)
	}
	sp := obs.FromContext(s.ctx)
	var fillStart time.Time
	if sp != nil {
		fillStart = time.Now()
	}
	var lastErr error
	for attempt := 0; attempt < s.c.cfg.ReadRetries; attempt++ {
		loc, err := s.c.locate(s.ctx, s.table, start)
		if err == nil {
			var resp ScanResponse
			resp, err = s.scanOnce(loc, req)
			if err == nil {
				sp.Stage("scan.fill", fillStart)
				s.buf, s.pos = resp.KVs, 0
				if !resp.More {
					// Region (clipped to the range) is exhausted: advance to
					// the next region, or finish at the end of the key space
					// or of the requested range.
					if resp.RegionEnd == "" || (s.end != "" && resp.RegionEnd >= s.end) {
						s.exhausted = true
					} else {
						s.nextStart = resp.RegionEnd
					}
				}
				return
			}
			s.c.invalidate(s.table, loc.info.ID)
		}
		if !retryable(err) {
			s.err = fmt.Errorf("kvstore: scan %s batch at %q: %w", s.table, start, err)
			return
		}
		lastErr = err
		select {
		case <-s.ctx.Done():
			s.err = fmt.Errorf("kvstore: scan %s cancelled between retries: %w", s.table, s.ctx.Err())
			return
		case <-time.After(backoff(s.c.cfg.RetryBackoff, attempt)):
		}
	}
	s.err = fmt.Errorf("kvstore: scan %s at %q retries exhausted: %w", s.table, start, lastErr)
}

// scanOnce issues one batch request at the located region: through a
// follower replica first when the client opted into follower reads and the
// layout lists one, falling back to the primary within the same call on ANY
// follower error — a behind or unreachable follower costs one extra hop,
// never a failed scan. Follower attempts carry AllowFollower so the serving
// side enforces the staleness bound (frontier >= the scan's snapshot).
func (s *Scanner) scanOnce(loc location, req ScanRequest) (ScanResponse, error) {
	if s.c.cfg.FollowerReads {
		freq := req
		freq.AllowFollower = true
		for _, fep := range loc.followers {
			resp, err := fep.ScanBatch(s.ctx, freq)
			if err == nil {
				s.c.m.followerBatches.Add(1)
				return resp, nil
			}
			s.c.m.followerFallbacks.Add(1)
		}
	}
	return loc.ep.ScanBatch(s.ctx, req)
}

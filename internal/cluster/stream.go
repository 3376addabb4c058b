package cluster

import (
	"context"
	"iter"
	"sort"

	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/obs"
)

// Streaming read API: cursor scans and batched point reads. A Txn.Scan no
// longer materializes its result — it returns a Scanner that pulls bounded
// batches from region servers through an explicit continuation token
// (resume coordinate + snapshot timestamp), overlaying the transaction's
// own buffered writes in a streaming merge. Per-request memory on both
// sides is O(batch); a scan survives region splits and moves between
// batches because the continuation is re-resolved against the layout; and
// the Ctx variants make slow reads cancellable and deadline-bounded all the
// way into the region-server merge loop.

// ScanOptions tunes a streaming scan: total limit, per-batch size, and
// column projection — all pushed down into the region servers' k-way merge.
type ScanOptions = kvstore.ScanOptions

// BatchValue is one cell's result in a batched read.
type BatchValue struct {
	Value []byte
	Found bool
}

// Scanner streams one transaction's range scan: the newest visible version
// per (row, column) at the transaction's snapshot, overlaid with the
// transaction's own buffered writes (puts shadow, tombstones elide), in
// (row asc, column asc) order.
//
//	sc := txn.Scan(ctx, "t", rng, txkv.ScanOptions{})
//	for sc.Next() {
//		use(sc.KV())
//	}
//	if err := sc.Err(); err != nil { ... }
//
// A Scanner holds no server-side state between pulls; Close only stops
// further fetches and is optional after a fully consumed or failed scan.
type Scanner struct {
	base   *kvstore.Scanner
	table  string             // error context
	cancel context.CancelFunc // releases the merged-context resources
	sp     *obs.Span          // scan trace; finished on Close/exhaustion

	own      []kv.Update // txn writes in range, (row, col)-sorted
	ownPos   int
	keysOnly bool // strip own-write values like the server strips stored ones

	baseCur  kv.KeyValue
	baseHave bool
	baseDone bool

	limit   int
	emitted int
	cur     kv.KeyValue
	done    bool
	err     error
}

// errScanner returns a Scanner that fails immediately with err (wrapped
// with scan context).
func errScanner(table string, err error) *Scanner {
	return &Scanner{err: opErr("scan", table, "", err), done: true}
}

// Scan starts a streaming scan of rng at the transaction's snapshot. See
// Scanner. ctx bounds the whole scan: cancelling it aborts in-flight batch
// requests (including the region server's merge loop) and stops the scan at
// the next pull with ctx's error. Errors (including use of a finished
// transaction) surface through Scanner.Err at the first pull.
func (t *Txn) Scan(ctx context.Context, table string, rng kv.KeyRange, opts ScanOptions) *Scanner {
	t.mu.Lock()
	if err := t.usableLocked(); err != nil {
		t.mu.Unlock()
		return errScanner(table, err)
	}
	// Snapshot the transaction's own writes that fall inside the scan.
	var project map[string]struct{}
	if len(opts.Columns) > 0 {
		project = make(map[string]struct{}, len(opts.Columns))
		for _, c := range opts.Columns {
			project[c] = struct{}{}
		}
	}
	var own []kv.Update
	tombstones := 0
	for _, u := range t.writes {
		if u.Table != table || !rng.Contains(u.Row) {
			continue
		}
		if project != nil {
			if _, ok := project[u.Column]; !ok {
				continue
			}
		}
		if u.Tombstone {
			tombstones++
		}
		own = append(own, u)
	}
	t.mu.Unlock()
	sort.Slice(own, func(i, j int) bool {
		return kv.CompareCellKeys(
			kv.CellKey{Row: own[i].Row, Column: own[i].Column},
			kv.CellKey{Row: own[j].Row, Column: own[j].Column}) < 0
	})

	// Push the limit down to the servers. Own tombstones can each consume
	// one base coordinate without emitting, so the base stream may need
	// that many extra entries to fill the caller's limit; own puts only
	// ever reduce what the base must supply.
	baseOpts := opts
	if opts.Limit > 0 {
		baseOpts.Limit = opts.Limit + tombstones
	}
	ts, err := t.snapshot()
	if err != nil {
		return errScanner(table, err)
	}
	mctx, release := t.client.opCtx(ctx)
	// The span rides the scan context, so each batch fetch records a
	// scan.fill stage onto it; the span finishes when the scan closes.
	mctx, sp := t.client.tracer().StartSpan(mctx, "scan")
	return &Scanner{
		base:     t.client.kv.NewScanner(mctx, table, rng, ts, baseOpts),
		table:    table,
		cancel:   release,
		sp:       sp,
		own:      own,
		keysOnly: opts.KeysOnly,
		limit:    opts.Limit,
	}
}

// Next advances to the next entry; false means exhausted, failed, or
// cancelled (Err distinguishes).
func (s *Scanner) Next() bool {
	if s.err != nil || s.done {
		return false
	}
	for {
		if !s.baseHave && !s.baseDone {
			if s.base.Next() {
				s.baseCur, s.baseHave = s.base.KV(), true
			} else {
				s.baseDone = true
				if err := s.base.Err(); err != nil {
					s.err = opErr("scan", s.table, "", err)
					s.Close()
					return false
				}
			}
		}
		ownHave := s.ownPos < len(s.own)
		switch {
		case !ownHave && !s.baseHave:
			s.done = true
			s.Close()
			return false
		case ownHave && (!s.baseHave || s.ownBeforeBase()):
			u := s.own[s.ownPos]
			s.ownPos++
			if s.baseHave && u.Row == s.baseCur.Row && u.Column == s.baseCur.Column {
				s.baseHave = false // own write shadows the stored version
			}
			if u.Tombstone {
				continue // coordinate deleted by this transaction
			}
			e := u.ToKeyValue(kv.MaxTimestamp)
			if s.keysOnly {
				e.Value = nil // match the server's value-stripped entries
			}
			return s.emit(e)
		default:
			e := s.baseCur
			s.baseHave = false
			return s.emit(e)
		}
	}
}

// ownBeforeBase reports whether the next own write sorts at or before the
// buffered base entry.
func (s *Scanner) ownBeforeBase() bool {
	u := s.own[s.ownPos]
	return kv.CompareCellKeys(
		kv.CellKey{Row: u.Row, Column: u.Column},
		kv.CellKey{Row: s.baseCur.Row, Column: s.baseCur.Column}) <= 0
}

func (s *Scanner) emit(e kv.KeyValue) bool {
	s.cur = e
	s.emitted++
	if s.limit > 0 && s.emitted >= s.limit {
		s.done = true
		s.Close()
	}
	return true
}

// KV returns the current entry. Only valid after a true Next.
func (s *Scanner) KV() kv.KeyValue { return s.cur }

// Err returns the scan's terminal error, if any (a cancelled context
// surfaces as its ctx error).
func (s *Scanner) Err() error { return s.err }

// Close stops the scan early: no further batches are fetched and
// subsequent Next calls return false. Idempotent.
func (s *Scanner) Close() {
	s.done = true
	if s.base != nil {
		s.base.Close()
	}
	if s.cancel != nil {
		s.cancel()
	}
	s.sp.Finish()
}

// All adapts the scanner to a Go 1.23 range-over-func sequence. Entries
// stream with a nil error; a terminal failure yields once as (zero, err).
// Breaking out of the range closes the scanner.
//
//	for e, err := range txn.Scan("t", rng, txkv.ScanOptions{}).All() {
//		if err != nil { ... }
//		use(e)
//	}
func (s *Scanner) All() iter.Seq2[kv.KeyValue, error] {
	return func(yield func(kv.KeyValue, error) bool) {
		defer s.Close()
		for s.Next() {
			if !yield(s.KV(), nil) {
				return
			}
		}
		if err := s.Err(); err != nil {
			yield(kv.KeyValue{}, err)
		}
	}
}

// GetBatch reads N cells in one round trip per involved region server,
// merged with the transaction's write buffer (buffered puts and tombstones
// win). Results parallel keys. ctx bounds the batched reads.
func (t *Txn) GetBatch(ctx context.Context, table string, keys []kv.CellKey) ([]BatchValue, error) {
	t.mu.Lock()
	if err := t.usableLocked(); err != nil {
		t.mu.Unlock()
		return nil, opErr("getbatch", table, "", err)
	}
	out := make([]BatchValue, len(keys))
	var (
		missIdx  []int
		missKeys []kv.CellKey
	)
	for i, k := range keys {
		if j, ok := t.writeIdx[writeKey(table, k.Row, k.Column)]; ok {
			u := t.writes[j]
			if !u.Tombstone {
				out[i] = BatchValue{Value: append([]byte(nil), u.Value...), Found: true}
			}
			continue
		}
		missIdx = append(missIdx, i)
		missKeys = append(missKeys, k)
	}
	t.mu.Unlock()

	if len(missKeys) > 0 {
		ts, err := t.snapshot()
		if err != nil {
			return nil, opErr("getbatch", table, "", err)
		}
		mctx, release := t.client.opCtx(ctx)
		defer release()
		kvs, found, err := t.client.kv.GetBatch(mctx, table, missKeys, ts)
		if err != nil {
			return nil, opErr("getbatch", table, "", err)
		}
		for j, i := range missIdx {
			if found[j] {
				out[i] = BatchValue{Value: kvs[j].Value, Found: true}
			}
		}
	}
	return out, nil
}

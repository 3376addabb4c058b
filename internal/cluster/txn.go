package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"txkv/internal/kv"
	"txkv/internal/obs"
	"txkv/internal/txmgr"
)

// Managed transactions: the v2 client API. Callers hand the middleware a
// closure and the middleware owns the cross-cutting concerns the paper keeps
// out of application code — snapshot selection, conflict retry with capped
// exponential backoff, cancellation, and (for read-only transactions)
// pinning the snapshot against the version-GC horizon:
//
//	cts, err := client.Update(ctx, func(txn *txkv.Txn) error {
//		v, _, err := txn.Get(ctx, "accounts", "alice", "balance")
//		if err != nil {
//			return err
//		}
//		return txn.Put(ctx, "accounts", "alice", "balance", next(v))
//	})
//
//	err = client.View(ctx, func(txn *txkv.Txn) error { ... reads ... })
//
// Update re-runs the closure on snapshot-isolation conflicts, so the closure
// must be idempotent side-effect-free application logic (its writes are
// buffered per attempt and dropped on abort). View transactions skip the
// write buffer, commit validation, and the commit log entirely.

// SnapshotMode selects the snapshot a transaction reads at.
type SnapshotMode int

const (
	// SnapshotAuto picks the default: the freshest fully-readable
	// snapshot (SnapshotFresh), so a read-only transaction observes every
	// commit its client was already acknowledged for.
	SnapshotAuto SnapshotMode = iota
	// SnapshotFresh waits (normally sub-millisecond) until the newest
	// issued snapshot is fully readable at the servers. During an ongoing
	// recovery the wait can stretch; read-only callers wanting liveness
	// over freshness use SnapshotFrontier.
	SnapshotFresh
	// SnapshotFrontier reads the visibility frontier without waiting:
	// consistent, never blocks, possibly slightly stale — the paper's
	// "read-only transactions on older snapshots" during disturbances.
	SnapshotFrontier
	// SnapshotLatest reads the newest issued timestamp regardless of flush
	// progress: freshest possible, but may miss committed-but-unflushed
	// writes. Safe for blind writes.
	SnapshotLatest
)

// Update retry defaults.
const (
	// DefaultUpdateRetries is the conflict-retry budget when
	// TxnOptions.MaxRetries is zero.
	DefaultUpdateRetries = 8
	// NoRetry disables automatic conflict retries (MaxRetries: NoRetry).
	NoRetry = -1
	// defaultRetryBackoff is the initial backoff between conflict retries;
	// it doubles per retry up to maxRetryBackoff.
	defaultRetryBackoff = time.Millisecond
	maxRetryBackoff     = 64 * time.Millisecond
)

// TxnOptions parameterizes a transaction.
type TxnOptions struct {
	// ReadOnly rejects writes and makes commit a pure snapshot release: no
	// write buffer, no validation, no commit-log append. Read-only
	// transactions register their snapshot with the transaction manager,
	// so the version-GC horizon (txmgr.SafeSnapshot) cannot overrun a
	// long-lived reader.
	ReadOnly bool
	// SnapshotTS pins the snapshot to an explicit timestamp — time-travel
	// reads. Implies ReadOnly. Begin fails with ErrSnapshotTooOld below
	// the version-GC horizon and ErrFutureSnapshot above the newest issued
	// commit timestamp. Zero means "current" per Mode.
	SnapshotTS kv.Timestamp
	// Mode selects the snapshot (see SnapshotMode). Ignored when
	// SnapshotTS is set.
	Mode SnapshotMode
	// MaxRetries bounds Update's automatic conflict retries: zero means
	// DefaultUpdateRetries, NoRetry (negative) disables retrying.
	MaxRetries int
	// RetryBackoff is the initial backoff between conflict retries
	// (doubling, capped at 64x ms-scale; zero = 1ms).
	RetryBackoff time.Duration
}

// retryBudget resolves the effective number of automatic retries.
func (o TxnOptions) retryBudget() int {
	switch {
	case o.MaxRetries < 0:
		return 0
	case o.MaxRetries == 0:
		return DefaultUpdateRetries
	default:
		return o.MaxRetries
	}
}

// retryDelay returns the capped exponential backoff before retry attempt
// (0-based).
func (o TxnOptions) retryDelay(attempt int) time.Duration {
	d := o.RetryBackoff
	if d <= 0 {
		d = defaultRetryBackoff
	}
	for i := 0; i < attempt && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	return d
}

// BeginTxn starts an explicit transaction with the given options. Most
// callers want the managed closures (Update, View) instead; BeginTxn is the
// escape hatch for transactions whose lifetime cannot nest in a closure —
// interactive sessions, tests that interleave transactions, fault drills.
// The caller owns the outcome: Commit or Abort must be called exactly once.
func (cl *Client) BeginTxn(opts TxnOptions) (*Txn, error) {
	cl.mu.Lock()
	closed := cl.closed
	cl.mu.Unlock()
	if closed {
		return nil, opErr("begin", "", "", ErrClientClosed)
	}
	if cl.remote != nil {
		return cl.beginRemoteTxn(opts)
	}
	tm := cl.cluster.tm
	readOnly := opts.ReadOnly || opts.SnapshotTS != 0
	// Read-write transactions carry a commit-pipeline span from begin: the
	// begin wait (snapshot readability) is the pipeline's first stage.
	var sp *obs.Span
	if !readOnly {
		sp = cl.cluster.tracer.NewSpan("commit")
	}
	var beginStart time.Time
	if sp != nil {
		beginStart = time.Now()
	}
	var h txmgr.TxnHandle
	if opts.SnapshotTS != 0 {
		var err error
		if h, err = tm.BeginReadOnlyAt(cl.id, opts.SnapshotTS); err != nil {
			return nil, opErr("begin", "", "", err)
		}
	} else {
		switch opts.Mode {
		case SnapshotFrontier:
			h = tm.BeginSnapshot(cl.id)
		case SnapshotLatest:
			h = tm.BeginLatest(cl.id)
		default:
			h = tm.Begin(cl.id)
		}
	}
	sp.Stage("commit.begin", beginStart)
	t := &Txn{client: cl, h: h, readOnly: readOnly, sp: sp}
	if !readOnly {
		t.writeIdx = make(map[string]int)
	}
	return t, nil
}

// BeginAt starts a read-only transaction pinned at snapshot ts — time-travel
// reads. The pin registers with the transaction manager, so background
// compaction's version-GC horizon cannot pass ts while the transaction
// lives; release it with Abort (or Commit, which is equivalent for a
// read-only transaction). Fails with ErrSnapshotTooOld / ErrFutureSnapshot
// when ts is outside the readable window.
func (cl *Client) BeginAt(ts kv.Timestamp) (*Txn, error) {
	return cl.BeginTxn(TxnOptions{SnapshotTS: ts})
}

// Update runs fn in a read-write transaction and commits it, automatically
// retrying snapshot-isolation conflicts with capped exponential backoff (the
// DefaultUpdateRetries budget; see UpdateWith to tune). The middleware owns
// begin, commit, abort, and retry — fn holds only application logic:
//
//	cts, err := client.Update(ctx, func(txn *txkv.Txn) error {
//		// reads and writes through txn; return nil to commit
//	})
//
// fn may run multiple times (once per attempt, each on a fresh snapshot with
// an empty write buffer), so it must not leak side effects other than its
// transaction writes. On a remote client an attempt takes its snapshot at
// its first read; one that only writes begins inside its commit, in the
// same gateway round trip. A non-nil error from fn aborts the transaction
// and is returned as is (no retry — only commit-time conflicts retry). When the
// retry budget is exhausted the last conflict error is returned
// (errors.Is(err, ErrConflict)). On success Update returns the commit
// timestamp; commit durability semantics are those of Txn.Commit.
func (cl *Client) Update(ctx context.Context, fn func(*Txn) error) (kv.Timestamp, error) {
	return cl.UpdateWith(ctx, TxnOptions{}, fn)
}

// UpdateWith is Update with explicit options (retry budget, backoff,
// snapshot mode). Read-only options are rejected: use View.
func (cl *Client) UpdateWith(ctx context.Context, opts TxnOptions, fn func(*Txn) error) (kv.Timestamp, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.ReadOnly || opts.SnapshotTS != 0 {
		return 0, opErr("update", "", "", fmt.Errorf("%w: use View for read-only closures", ErrReadOnlyTxn))
	}
	budget := opts.retryBudget()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, opErr("update", "", "", err)
		}
		var txn *Txn
		var err error
		if cl.remote != nil {
			txn, err = cl.deferredRemoteTxn(opts)
		} else {
			txn, err = cl.BeginTxn(opts)
		}
		if err != nil {
			return 0, err
		}
		if err := runClosure(txn, fn); err != nil {
			txn.Abort()
			return 0, err
		}
		cts, err := txn.Commit(ctx)
		switch {
		case err == nil:
			cl.updateCommits.Add(1)
			if cl.cluster != nil {
				cl.cluster.updateCommitsTotal.Add(1)
			}
			return cts, nil
		case errors.Is(err, ErrCommitIndeterminate):
			// The write-set is enqueued and will commit; retrying would
			// double-apply. Surface the indeterminate outcome.
			return cts, err
		case !txmgr.IsRetryable(err):
			return 0, err
		}
		lastErr = err
		if attempt >= budget {
			return 0, lastErr
		}
		cl.updateRetries.Add(1)
		if cl.cluster != nil {
			cl.cluster.updateRetriesTotal.Add(1)
		}
		select {
		case <-ctx.Done():
			return 0, opErr("update", "", "", ctx.Err())
		case <-time.After(opts.retryDelay(attempt)):
		}
	}
}

// runClosure runs a managed transaction's closure, aborting the
// transaction before re-propagating a panic: an application panic recovered
// further up must not leave the handle registered (a leaked handle pins the
// version-GC horizon forever).
func runClosure(txn *Txn, fn func(*Txn) error) error {
	done := false
	defer func() {
		if !done {
			txn.Abort()
		}
	}()
	err := fn(txn)
	done = true
	return err
}

// View runs fn in a read-only transaction at a consistent snapshot,
// registered with the transaction manager so the version-GC horizon cannot
// overrun it while fn runs. The transaction skips the write buffer, commit
// validation, and the commit log entirely — mutations through it fail with
// ErrReadOnlyTxn. The snapshot is released when View returns (on success,
// error, or panic); on a remote client the release reaches the gateway
// with the next begin, or a few milliseconds later when none comes.
//
// View waits (normally sub-millisecond) until the freshest snapshot is
// fully readable, so it observes every commit already acknowledged to this
// process. During an ongoing disturbance that wait can stretch; for
// non-blocking reads of a slightly older snapshot — the paper's "read-only
// transactions on older snapshots" — use
// BeginTxn(TxnOptions{ReadOnly: true, Mode: SnapshotFrontier}).
func (cl *Client) View(ctx context.Context, fn func(*Txn) error) error {
	return cl.view(ctx, TxnOptions{ReadOnly: true}, fn)
}

// ViewAt is View pinned at snapshot ts (time-travel; see BeginAt).
func (cl *Client) ViewAt(ctx context.Context, ts kv.Timestamp, fn func(*Txn) error) error {
	return cl.view(ctx, TxnOptions{SnapshotTS: ts}, fn)
}

func (cl *Client) view(ctx context.Context, opts TxnOptions, fn func(*Txn) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return opErr("view", "", "", err)
	}
	opts.ReadOnly = true
	txn, err := cl.BeginTxn(opts)
	if err != nil {
		return err
	}
	defer txn.Abort() // snapshot pin released even on panic
	return fn(txn)
}

// UpdateStats returns the managed-retry counters: transactions committed
// through Update and conflict retries it performed.
func (cl *Client) UpdateStats() (commits, retries int64) {
	return cl.updateCommits.Load(), cl.updateRetries.Load()
}

// PutOp is one cell mutation in a Txn.PutBatch.
type PutOp struct {
	Row    kv.Key
	Column string
	Value  []byte
}

// PutBatch buffers n cell writes in one call — symmetric with GetBatch. The
// batch costs one write-buffer pass now and, after commit, one flush round
// trip per involved region server (write-sets are always delivered grouped
// by server). ctx is accepted for API uniformity; buffering is local.
func (t *Txn) PutBatch(ctx context.Context, table string, puts []PutOp) error {
	_ = ctx
	var start time.Time
	if t.sp != nil {
		start = time.Now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.usableLocked(); err != nil {
		return opErr("putbatch", table, "", err)
	}
	if t.readOnly {
		return opErr("putbatch", table, "", ErrReadOnlyTxn)
	}
	for _, p := range puts {
		t.bufferLocked(kv.Update{
			Table: table, Row: p.Row, Column: p.Column,
			Value: append([]byte(nil), p.Value...),
		})
	}
	if t.sp != nil {
		t.bufNs += time.Since(start)
	}
	return nil
}

// DeleteRange buffers a tombstone for every cell live in rng at the
// transaction's snapshot — plus the transaction's own buffered writes in the
// range — and returns how many cells were deleted. The coordinate sweep is
// pushed down to the region servers as a keys-only scan (one round trip per
// region, value bytes never shipped); the tombstones join the write-set, so
// commit validation gives range deletes the same first-committer-wins
// semantics as point writes.
func (t *Txn) DeleteRange(ctx context.Context, table string, rng kv.KeyRange) (int, error) {
	t.mu.Lock()
	if err := t.usableLocked(); err != nil {
		t.mu.Unlock()
		return 0, opErr("deleterange", table, rng.Start, err)
	}
	if t.readOnly {
		t.mu.Unlock()
		return 0, opErr("deleterange", table, rng.Start, ErrReadOnlyTxn)
	}
	t.mu.Unlock()

	ts, err := t.snapshot()
	if err != nil {
		return 0, opErr("deleterange", table, rng.Start, err)
	}
	mctx, release := t.client.opCtx(ctx)
	coords, err := t.client.kv.RangeCoords(mctx, table, rng, ts)
	release()
	if err != nil {
		return 0, opErr("deleterange", table, rng.Start, err)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.usableLocked(); err != nil {
		return 0, opErr("deleterange", table, rng.Start, err)
	}
	// Own buffered live writes in range, keyed like writeIdx: cells the
	// store sweep cannot see (and double-count guards for ones it can).
	own := make(map[string]struct{})
	for _, u := range t.writes {
		if u.Table == table && rng.Contains(u.Row) && !u.Tombstone {
			own[writeKey(table, u.Row, u.Column)] = struct{}{}
		}
	}
	n := 0
	for _, ck := range coords {
		key := writeKey(table, ck.Row, ck.Column)
		if i, ok := t.writeIdx[key]; ok && t.writes[i].Tombstone {
			continue // already deleted by this transaction: invisible to it
		}
		t.bufferLocked(kv.Update{Table: table, Row: ck.Row, Column: ck.Column, Tombstone: true})
		delete(own, key)
		n++
	}
	for key := range own {
		i := t.writeIdx[key]
		u := t.writes[i]
		t.bufferLocked(kv.Update{Table: u.Table, Row: u.Row, Column: u.Column, Tombstone: true})
		n++
	}
	return n, nil
}

package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"txkv/internal/core"
	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/obs"
	"txkv/internal/txmgr"
)

// Client errors.
var (
	ErrClientClosed = errors.New("cluster: client closed")
	ErrTxnFinished  = errors.New("cluster: transaction already finished")
	// ErrCommitIndeterminate reports a Commit whose context fired while
	// the commit was already enqueued: the transaction is neither known
	// committed nor aborted at return. It commits in order once the group
	// commit completes — the cluster finishes the bookkeeping (and the
	// asynchronous flush) in the background; only the caller's wait was
	// cut short.
	ErrCommitIndeterminate = errors.New("cluster: commit outcome indeterminate")
)

// Client is a transactional client: the application-facing handle combining
// the transaction manager (begin/commit/abort, snapshot reads), the
// key-value routing client (deferred-update flushes), and the recovery
// agent (Algorithm 1 heartbeats). One Client can run many transactions
// concurrently, like the paper's client processes with multiple threads.
type Client struct {
	id      string
	cluster *Cluster // nil in remote mode
	remote  *Remote  // nil in local mode
	kv      *kvstore.Client
	agent   *core.ClientAgent // nil when recovery is disabled or remote

	ctx     context.Context
	cancel  context.CancelFunc
	flushWG sync.WaitGroup

	updateCommits obs.Counter // transactions committed via Update
	updateRetries obs.Counter // conflict retries Update performed

	mu     sync.Mutex
	closed bool
}

// NewClient creates and registers a transactional client. An empty id
// auto-generates one.
func (c *Cluster) NewClient(id string) (*Client, error) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return nil, ErrStopped
	}
	if id == "" {
		id = fmt.Sprintf("client-%d", c.clientSeq)
	}
	c.clientSeq++
	if _, dup := c.clients[id]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: duplicate client id %q", id)
	}
	c.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	cl := &Client{
		id:      id,
		cluster: c,
		kv: kvstore.NewClient(kvstore.ClientConfig{
			ID:            id,
			Registry:      c.obs,
			FollowerReads: c.cfg.FollowerReads,
		}, c.net, c.master),
		ctx:    ctx,
		cancel: cancel,
	}
	if !c.cfg.DisableRecovery {
		cl.agent = core.NewClientAgent(core.ClientAgentConfig{
			ClientID:            id,
			HeartbeatInterval:   c.cfg.HeartbeatInterval,
			SessionTTL:          c.cfg.SessionTTL,
			QueueAlertThreshold: c.cfg.QueueAlertThreshold,
			OnQueueAlert:        c.onQueueAlert,
			OnFatal:             func(error) { cl.Crash() },
		}, c.svc, c.tm.LastIssued)
		if err := cl.agent.Start(); err != nil {
			cancel()
			return nil, err
		}
	}
	c.mu.Lock()
	c.clients[id] = cl
	dial := c.remoteDial
	c.mu.Unlock()
	installDial(cl.kv, dial) // reach region-server processes when serving RPC
	return cl, nil
}

// tracer returns the owning cluster's tracer; nil — permanently disabled —
// for remote-mode clients.
func (cl *Client) tracer() *obs.Tracer {
	if cl.cluster == nil {
		return nil
	}
	return cl.cluster.tracer
}

// ID returns the client's identity.
func (cl *Client) ID() string { return cl.id }

// TF returns the client's flushed threshold T_F(c) (0 when recovery is
// disabled).
func (cl *Client) TF() kv.Timestamp {
	if cl.agent == nil {
		return 0
	}
	return cl.agent.TF()
}

// Txn is one transaction: reads at the snapshot, buffered deferred updates
// (held at the client, paper §2.2), commit via the TM then asynchronous
// flush. Read-only transactions (View, BeginAt, TxnOptions.ReadOnly) carry
// no write buffer and commit by releasing their snapshot pin — no
// validation, no commit-log append.
type Txn struct {
	client   *Client
	h        txmgr.TxnHandle
	readOnly bool
	sp       *obs.Span // commit-pipeline trace; nil when tracing is off or read-only

	// deferred marks a remote Update attempt that has not sent its gateway
	// begin yet; it begins, at mode, on its first read (see snapshot) or
	// else inside its commit. bmu guards h and begun of a deferred
	// transaction; a transaction that is not deferred never changes h.
	deferred bool
	mode     SnapshotMode
	bmu      sync.Mutex
	begun    bool

	mu       sync.Mutex
	writes   []kv.Update
	writeIdx map[string]int // coordinate+column -> index in writes
	bufNs    time.Duration  // accumulated write-buffering time (traced txns)
	finished bool
}

// usableLocked reports why the transaction cannot serve an operation
// (completion), or nil. Caller holds t.mu.
func (t *Txn) usableLocked() error {
	if t.finished {
		return ErrTxnFinished
	}
	return nil
}

// StartTS returns the transaction's snapshot timestamp. A remote Update
// transaction that has not read yet begins here; one that committed
// without reading reports the start its commit was assigned, and one
// that failed to begin reports 0.
func (t *Txn) StartTS() kv.Timestamp {
	ts, _ := t.snapshot()
	return ts
}

// ReadOnly reports whether the transaction is read-only (View, BeginAt, or
// TxnOptions.ReadOnly).
func (t *Txn) ReadOnly() bool { return t.readOnly }

func writeKey(table string, row kv.Key, column string) string {
	return table + "\x00" + string(row) + "\x00" + column
}

// opCtx combines the client's lifetime context with a caller context, so an
// operation aborts when either the caller cancels or the client crashes.
// The returned release func must be called when the operation finishes.
func (cl *Client) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil || ctx == context.Background() {
		return cl.ctx, func() {}
	}
	merged, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(cl.ctx, cancel)
	return merged, func() { stop(); cancel() }
}

// Get reads (table, row, column) at the transaction's snapshot, seeing the
// transaction's own buffered writes first. ctx bounds the read (including
// its re-locate retries): cancellation or deadline expiry aborts it with
// ctx's error.
func (t *Txn) Get(ctx context.Context, table string, row kv.Key, column string) ([]byte, bool, error) {
	t.mu.Lock()
	if err := t.usableLocked(); err != nil {
		t.mu.Unlock()
		return nil, false, opErr("get", table, row, err)
	}
	if i, ok := t.writeIdx[writeKey(table, row, column)]; ok {
		u := t.writes[i]
		t.mu.Unlock()
		if u.Tombstone {
			return nil, false, nil
		}
		return append([]byte(nil), u.Value...), true, nil
	}
	t.mu.Unlock()

	ts, err := t.snapshot()
	if err != nil {
		return nil, false, opErr("get", table, row, err)
	}
	mctx, release := t.client.opCtx(ctx)
	defer release()
	if tr := t.client.tracer(); tr.Enabled() {
		var sp *obs.Span
		mctx, sp = tr.StartSpan(mctx, "get")
		defer sp.Finish()
	}
	e, found, err := t.client.kv.Get(mctx, table, row, column, ts)
	if err != nil || !found {
		return nil, false, opErr("get", table, row, err)
	}
	return e.Value, true, nil
}

// Put buffers an update (deferred-update model: nothing reaches the servers
// before commit). ctx is accepted for API uniformity; buffering is local.
func (t *Txn) Put(ctx context.Context, table string, row kv.Key, column string, value []byte) error {
	_ = ctx
	return t.bufferOp("put", kv.Update{
		Table: table, Row: row, Column: column,
		Value: append([]byte(nil), value...),
	})
}

// Delete buffers a tombstone. ctx is accepted for API uniformity; buffering
// is local.
func (t *Txn) Delete(ctx context.Context, table string, row kv.Key, column string) error {
	_ = ctx
	return t.bufferOp("delete", kv.Update{Table: table, Row: row, Column: column, Tombstone: true})
}

func (t *Txn) bufferOp(op string, u kv.Update) error {
	var start time.Time
	if t.sp != nil {
		start = time.Now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.usableLocked(); err != nil {
		return opErr(op, u.Table, u.Row, err)
	}
	if t.readOnly {
		return opErr(op, u.Table, u.Row, ErrReadOnlyTxn)
	}
	t.bufferLocked(u)
	if t.sp != nil {
		t.bufNs += time.Since(start)
	}
	return nil
}

// bufferLocked adds one update to the write buffer (overwriting a previous
// write of the same cell). Caller holds t.mu on a usable read-write txn.
func (t *Txn) bufferLocked(u kv.Update) {
	key := writeKey(u.Table, u.Row, u.Column)
	if i, ok := t.writeIdx[key]; ok {
		t.writes[i] = u // overwrite within the txn
		return
	}
	t.writeIdx[key] = len(t.writes)
	t.writes = append(t.writes, u)
}

// Abort discards the transaction; the buffered write-set is dropped without
// touching the log or the servers (paper §2.2). On a read-only transaction
// Abort simply releases the snapshot pin.
func (t *Txn) Abort() {
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	t.mu.Unlock()
	if t.client.remote != nil {
		t.client.abortRemoteTxn(t)
		return
	}
	if t.readOnly {
		t.client.cluster.tm.Release(t.h)
		return
	}
	t.client.cluster.tm.Abort(t.h)
}

// Commit validates and commits the transaction. When Commit returns, the
// transaction is durably committed in the TM's recovery log; the write-set
// flush to the key-value store proceeds asynchronously (the paper's
// "updates can even be sent to the key-value store after commit"). The
// recovery middleware guarantees the flush survives client failure.
//
// ctx bounds the waits: the group-commit durability wait and (under
// synchronous persistence) the flush wait. Cancellation never un-commits —
// if ctx fires while the write-set is already enqueued, Commit returns the
// timestamp with an error wrapping ErrCommitIndeterminate and the cluster
// completes the commit and its asynchronous flush in the background; if it
// fires during the flush wait, the transaction is durably committed and
// only the wait is abandoned.
//
// Committing a read-only transaction releases its snapshot pin and returns
// the snapshot timestamp: no validation, no commit-log append.
func (t *Txn) Commit(ctx context.Context) (kv.Timestamp, error) {
	return t.commit(ctx, false)
}

// CommitWait commits and then waits for the write-set to be fully flushed —
// useful when the caller immediately reads its own commit from a different
// client. ctx bounds both waits (see Commit).
func (t *Txn) CommitWait(ctx context.Context) (kv.Timestamp, error) {
	return t.commit(ctx, true)
}

func (t *Txn) commit(ctx context.Context, wait bool) (kv.Timestamp, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t.mu.Lock()
	if err := t.usableLocked(); err != nil {
		t.mu.Unlock()
		return 0, opErr("commit", "", "", err)
	}
	t.finished = true
	updates := t.writes
	bufNs := t.bufNs
	t.mu.Unlock()
	sp := t.sp

	if t.client.remote != nil {
		// Remote mode: the gateway validates, commits, and owns the
		// recovery-protected flush (read-only: the snapshot pin's release
		// rides the next gateway begin).
		return t.client.commitRemoteTxn(ctx, t, updates, wait)
	}

	if t.readOnly {
		// Read-only commit: release the snapshot pin; validation, the
		// commit log, and the flush path are skipped entirely.
		t.client.cluster.tm.Release(t.h)
		return t.h.StartTS, nil
	}

	cl := t.client
	cl.mu.Lock()
	closed := cl.closed
	cl.mu.Unlock()
	if closed {
		cl.cluster.tm.Abort(t.h)
		return 0, opErr("commit", "", "", ErrClientClosed)
	}
	if err := ctx.Err(); err != nil {
		cl.cluster.tm.Abort(t.h) // not yet enqueued: a clean abort
		return 0, opErr("commit", "", "", err)
	}

	if sp != nil && bufNs > 0 {
		sp.StageDur("commit.buffer", bufNs)
	}
	cts, logDone, err := cl.cluster.tm.CommitAsyncSpan(t.h, updates, sp)
	if err != nil {
		return 0, opErr("commit", "", "", err)
	}
	// The transaction is committed from here on; every return path records
	// the end-to-end commit latency (idempotent, safe on the nil span).
	defer sp.Finish()
	var fsyncStart time.Time
	if sp != nil {
		fsyncStart = time.Now()
	}
	if logDone != nil {
		select {
		case err := <-logDone:
			if err != nil {
				return 0, opErr("commit", "", "", fmt.Errorf("commit log append: %w", err))
			}
			sp.Stage("commit.fsync", fsyncStart)
		case <-ctx.Done():
			// Enqueued in commit order: the transaction commits when the
			// group commit lands whether or not anyone waits. Finish the
			// protocol in the background so the visibility frontier and the
			// recovery thresholds keep advancing. Registered with flushWG
			// *before* returning, so a clean Stop waits for the pending
			// group commit and its flush instead of unregistering with a
			// committed write-set undelivered.
			cl.flushWG.Add(1)
			go func() {
				defer cl.flushWG.Done()
				if err := <-logDone; err == nil {
					sp.Stage("commit.fsync", fsyncStart)
					ws := kv.WriteSet{TxnID: t.h.ID, ClientID: cl.id, CommitTS: cts, Updates: updates}
					_ = cl.flushWS(ws, cts, sp)
				}
			}()
			return cts, opErr("commit", "", "", fmt.Errorf("%w: txn %d enqueued at %d: %w",
				ErrCommitIndeterminate, t.h.ID, cts, ctx.Err()))
		}
	}
	if len(updates) == 0 {
		return cts, nil // read-only: nothing to flush
	}
	// Synchronous-persistence baseline (Figure 2(a)): the end-to-end
	// response time includes flushing and persisting the updates.
	wait = wait || cl.cluster.cfg.SyncPersistence
	flushDone := cl.flushAsync(t.h.ID, cts, updates, sp)
	if wait {
		select {
		case err := <-flushDone:
			if err != nil {
				return cts, opErr("commit", "", "", fmt.Errorf("committed at %d but flush failed: %w", cts, err))
			}
		case <-ctx.Done():
			// Durably committed; the flush continues in the background (and
			// recovery covers it if this client dies). Only the wait ends.
			return cts, opErr("commit", "", "", fmt.Errorf("committed at %d but flush wait cancelled: %w", cts, ctx.Err()))
		}
	}
	return cts, nil
}

// flushAsync starts the post-commit write-set flush: delivery to the region
// servers, then the flushed-threshold and visibility notifications. The
// returned channel delivers the flush outcome exactly once. The flush runs
// on the client's lifetime context, never a per-call one: a committed
// write-set must reach the servers (or be replayed by recovery), regardless
// of the committing caller's patience.
func (cl *Client) flushAsync(txnID uint64, cts kv.Timestamp, updates []kv.Update, sp *obs.Span) <-chan error {
	ws := kv.WriteSet{TxnID: txnID, ClientID: cl.id, CommitTS: cts, Updates: updates}
	cl.flushWG.Add(1)
	flushDone := make(chan error, 1)
	go func() {
		defer cl.flushWG.Done()
		flushDone <- cl.flushWS(ws, cts, sp)
	}()
	return flushDone
}

// flushWS delivers one committed write-set and, on success, advances the
// flushed threshold and the visibility frontier. Runs on the client's
// lifetime context; the caller is responsible for flushWG registration.
func (cl *Client) flushWS(ws kv.WriteSet, cts kv.Timestamp, sp *obs.Span) error {
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	err := cl.kv.Flush(cl.ctx, ws, 0, false)
	if err == nil {
		// Recorded after Finish for the common asynchronous case: the stage
		// lands on the (possibly already retained) span tree, so a slow-op
		// dump shows the flush tail of an already acknowledged commit.
		sp.Stage("commit.flush", start)
		if cl.agent != nil {
			cl.agent.OnFlushed(cts)
		}
		cl.cluster.tm.NotifyFlushed(cts)
	}
	return err
}

// Stop shuts the client down cleanly: it waits for all outstanding flushes,
// sends the final heartbeat, and unregisters (paper Alg. 1 "On shutdown").
func (cl *Client) Stop() { cl.stop(true) }

func (cl *Client) stop(unlist bool) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return
	}
	cl.closed = true
	cl.mu.Unlock()

	done := make(chan struct{})
	go func() {
		cl.flushWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		// Flushes cannot drain: a clean unregister would remove this
		// client from the T_F computation with unflushed commits, losing
		// them. Die like a crash instead — the session expires and the
		// recovery manager replays (paper Alg. 1 only unregisters after
		// the pre-shutdown flush state is final).
		cl.cancel()
		if cl.agent != nil {
			cl.agent.Crash()
		}
		cl.unlist()
		return
	}
	if cl.agent != nil {
		cl.agent.Stop()
	}
	cl.cancel()
	if unlist {
		cl.unlist()
	}
}

// unlist removes the client from its cluster's registry (no-op in remote
// mode, where the serving process tracks only its own gateway clients).
func (cl *Client) unlist() {
	if cl.cluster == nil {
		return
	}
	cl.cluster.mu.Lock()
	delete(cl.cluster.clients, cl.id)
	cl.cluster.mu.Unlock()
}

// Crash simulates the client process dying: in-flight flushes are
// abandoned, heartbeats stop, and the recovery manager will replay the
// client's committed-but-unflushed write-sets after the session expires.
func (cl *Client) Crash() {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return
	}
	cl.closed = true
	cl.mu.Unlock()
	cl.cancel()
	if cl.agent != nil {
		cl.agent.Crash()
	}
	cl.unlist()
}

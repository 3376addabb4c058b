package rpc

import (
	"context"
	"errors"
	"fmt"

	"txkv/internal/kv"
	"txkv/internal/kvstore"
)

// The transaction gateway surface. Region-server reads and scans go
// directly from the client to the region servers, but begin/commit/abort
// run against the master process, which hosts the transaction manager, the
// commit log, and the recovery middleware. The gateway executes each remote
// client's transactions through a server-side cluster client, so the
// paper's client-side machinery (deferred-update flush, T_F heartbeats,
// recovery on failure) runs where the coordination service lives; the
// remote process ships only begin/commit/abort and its buffered write-set.
//
// The backend is an interface over kv-level types only: internal/cluster
// implements it (TxnGateway) without this package importing cluster.

// TxnBackend is the server-side transaction executor the gateway service
// dispatches to. Handles are backend-assigned, unique across sessions and
// never reused, so a handle sent on another connection than the one that
// began it names nothing there; EndSession must abort every transaction
// the session still has open.
// BeginCommit is Begin of a read-write transaction followed by its Commit,
// in one request: the start timestamp is returned alongside the outcome
// (zero if the begin itself failed).
type TxnBackend interface {
	Begin(sessionID uint64, clientID string, readOnly bool, snapTS kv.Timestamp, mode int) (handle uint64, startTS kv.Timestamp, err error)
	Commit(ctx context.Context, sessionID, handle uint64, updates []kv.Update, wait bool) (kv.Timestamp, error)
	BeginCommit(ctx context.Context, sessionID uint64, clientID string, mode int, updates []kv.Update, wait bool) (startTS, commitTS kv.Timestamp, err error)
	Abort(sessionID, handle uint64) error
	EndSession(sessionID uint64)
}

// txnSessionKey marks a session as registered with the backend.
const txnSessionKey = "txn.session"

// RegisterTxnService wires a transaction backend onto s.
func RegisterTxnService(s *Server, b TxnBackend) {
	ensureSession := func(sess *Session) {
		if sess.Value(txnSessionKey) != nil {
			return
		}
		sess.SetValue(txnSessionKey, true)
		sess.OnClose(func() { b.EndSession(sess.ID()) })
	}
	s.Handle(TBegin, func(_ context.Context, sess *Session, body []byte) ([]byte, error) {
		clientID, readOnly, snapTS, mode, release, err := decBeginReq(body)
		if err != nil {
			return nil, err
		}
		ensureSession(sess)
		// Finished read-only transactions ride the next begin instead of a
		// TAbort each. They go first, so they never wait behind this
		// begin's snapshot wait.
		for _, h := range release {
			_ = b.Abort(sess.ID(), h)
		}
		handle, startTS, err := b.Begin(sess.ID(), clientID, readOnly, snapTS, int(mode))
		if err != nil {
			return nil, err
		}
		return encBeginResp(handle, startTS), nil
	})
	s.Handle(TCommit, func(ctx context.Context, sess *Session, body []byte) ([]byte, error) {
		handle, updates, wait, err := decCommitReq(body)
		if err != nil {
			return nil, err
		}
		ensureSession(sess)
		cts, err := b.Commit(ctx, sess.ID(), handle, updates, wait)
		// The outcome rides in the OK body: a commit can return both a
		// timestamp and an error (indeterminate, committed-but-flush-
		// failed), which a bare error frame cannot carry.
		if err != nil {
			return encCommitResp(cts, CodeFor(err), err.Error()), nil
		}
		return encCommitResp(cts, 0, ""), nil
	})
	s.Handle(TBeginCommit, func(ctx context.Context, sess *Session, body []byte) ([]byte, error) {
		clientID, mode, updates, wait, err := decBeginCommitReq(body)
		if err != nil {
			return nil, err
		}
		ensureSession(sess)
		startTS, cts, err := b.BeginCommit(ctx, sess.ID(), clientID, int(mode), updates, wait)
		if err != nil {
			return encBeginCommitResp(startTS, cts, CodeFor(err), err.Error()), nil
		}
		return encBeginCommitResp(startTS, cts, 0, ""), nil
	})
	s.Handle(TAbort, func(_ context.Context, sess *Session, body []byte) ([]byte, error) {
		handle, err := decHandleMsg(body)
		if err != nil {
			return nil, err
		}
		ensureSession(sess)
		return nil, b.Abort(sess.ID(), handle)
	})
}

// TxnClient runs transactions against a remote gateway. internal/cluster's
// remote client mode drives it for begin/commit/abort while reads and
// scans go directly to the region servers.
type TxnClient struct {
	pool *Pool
	addr string
}

// NewTxnClient returns a transaction client against the gateway at addr.
// Sharing the pool with the TCPTransport keeps all gateway traffic on one
// connection, which is what scopes the server-side session.
func NewTxnClient(pool *Pool, addr string) *TxnClient {
	return &TxnClient{pool: pool, addr: addr}
}

// BeginRemote starts a transaction in the gateway, first ending the
// read-only transactions whose handles release lists.
func (t *TxnClient) BeginRemote(ctx context.Context, clientID string, readOnly bool, snapTS kv.Timestamp, mode int, release []uint64) (uint64, kv.Timestamp, error) {
	resp, err := t.pool.Call(ctx, t.addr, TBegin, encBeginReq(clientID, readOnly, snapTS, uint64(mode), release))
	if err != nil {
		return 0, 0, err
	}
	return decBeginResp(resp)
}

// CommitRemote ships the buffered write-set and commits. A transport
// failure is indeterminate (see commitCallErr).
func (t *TxnClient) CommitRemote(ctx context.Context, handle uint64, updates []kv.Update, wait bool) (kv.Timestamp, error) {
	resp, err := t.pool.Call(ctx, t.addr, TCommit, encCommitReq(handle, updates, wait))
	if err != nil {
		return 0, commitCallErr(err)
	}
	cts, code, msg, err := decCommitResp(resp)
	if err != nil {
		return 0, err
	}
	if code != 0 {
		return cts, &RemoteError{Code: code, Msg: msg}
	}
	return cts, nil
}

// BeginCommitRemote begins a read-write transaction at snapshot mode and
// commits the write-set in it, in one round trip, returning the start and
// commit timestamps. Transport failures are indeterminate, as for
// CommitRemote.
func (t *TxnClient) BeginCommitRemote(ctx context.Context, clientID string, mode int, updates []kv.Update, wait bool) (startTS, cts kv.Timestamp, err error) {
	resp, err := t.pool.Call(ctx, t.addr, TBeginCommit, encBeginCommitReq(clientID, uint64(mode), updates, wait))
	if err != nil {
		return 0, 0, commitCallErr(err)
	}
	startTS, cts, code, msg, err := decBeginCommitResp(resp)
	if err != nil {
		return 0, 0, err
	}
	if code != 0 {
		return startTS, cts, &RemoteError{Code: code, Msg: msg}
	}
	return startTS, cts, nil
}

// commitCallErr classifies a failed commit call: a transport failure after
// the request may have left the commit in flight — the gateway commits
// independently of the requesting connection — so it surfaces as
// ErrCommitIndeterminate, never as a clean abort.
func commitCallErr(err error) error {
	if errors.Is(err, kvstore.ErrTransport) {
		return fmt.Errorf("%w: connection lost with commit in flight: %v", ErrCommitIndeterminate, err)
	}
	return err
}

// AbortRemote discards a transaction.
func (t *TxnClient) AbortRemote(ctx context.Context, handle uint64) error {
	_, err := t.pool.Call(ctx, t.addr, TAbort, encHandleMsg(handle))
	return err
}

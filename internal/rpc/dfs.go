package rpc

import (
	"context"
	"fmt"
	"sync"

	"txkv/internal/dfs"
)

// The DFS surface. RegisterDFSService exposes a dfs.FileSystem (in
// practice the master process's *dfs.FS); RemoteFS is the client half, a
// dfs.FileSystem whose operations execute in the master's process — all
// but writer appends, which buffer in the writing process until Sync.
// This is what gives region-server processes a shared filesystem
// namespace — the deployment shape HBase gets from HDFS: a WAL written by
// one process is readable by the master for log splitting, and store files
// flushed by one server are openable by whichever server the region is
// reassigned to.
//
// Open writers are stateful: the service keeps them per session, keyed by
// a handle ID, and abandons any still open when the connection dies — a
// crashed region-server process must not leak half-written files (their
// unsynced tails are discarded, exactly the hflush/hsync contract).

// dfsSessionKey stores the per-session writer table.
const dfsSessionKey = "dfs.writers"

// writerTable is one session's open writer handles.
type writerTable struct {
	mu      sync.Mutex
	next    uint64
	writers map[uint64]dfs.FileWriter
}

func (t *writerTable) add(w dfs.FileWriter) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	if t.writers == nil {
		t.writers = make(map[uint64]dfs.FileWriter)
	}
	t.writers[t.next] = w
	return t.next
}

func (t *writerTable) get(id uint64) (dfs.FileWriter, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w, ok := t.writers[id]
	if !ok {
		return nil, fmt.Errorf("%w: unknown writer handle %d", dfs.ErrClosed, id)
	}
	return w, nil
}

func (t *writerTable) remove(id uint64) {
	t.mu.Lock()
	delete(t.writers, id)
	t.mu.Unlock()
}

// abandonAll abandons every still-open writer (connection death).
func (t *writerTable) abandonAll() {
	t.mu.Lock()
	writers := t.writers
	t.writers = nil
	t.mu.Unlock()
	for _, w := range writers {
		w.Abandon()
	}
}

// sessionWriters returns (creating on first use) the session's writer
// table, registering the abandon-on-close cleanup.
func sessionWriters(sess *Session) *writerTable {
	if t, ok := sess.Value(dfsSessionKey).(*writerTable); ok {
		return t
	}
	t := &writerTable{}
	sess.SetValue(dfsSessionKey, t)
	sess.OnClose(t.abandonAll)
	return t
}

// RegisterDFSService wires a filesystem onto s.
func RegisterDFSService(s *Server, fs dfs.FileSystem) {
	s.Handle(FCreate, func(_ context.Context, sess *Session, body []byte) ([]byte, error) {
		path, err := decStringMsg(body)
		if err != nil {
			return nil, err
		}
		w, err := fs.CreateFile(path)
		if err != nil {
			return nil, err
		}
		return encHandleMsg(sessionWriters(sess).add(w)), nil
	})
	s.Handle(FAppend, func(_ context.Context, sess *Session, body []byte) ([]byte, error) {
		id, p, err := decFAppendReq(body)
		if err != nil {
			return nil, err
		}
		w, err := sessionWriters(sess).get(id)
		if err != nil {
			return nil, err
		}
		return nil, w.Append(p)
	})
	s.Handle(FSync, func(_ context.Context, sess *Session, body []byte) ([]byte, error) {
		id, err := decHandleMsg(body)
		if err != nil {
			return nil, err
		}
		w, err := sessionWriters(sess).get(id)
		if err != nil {
			return nil, err
		}
		return nil, w.Sync()
	})
	s.Handle(FClose, func(_ context.Context, sess *Session, body []byte) ([]byte, error) {
		id, err := decHandleMsg(body)
		if err != nil {
			return nil, err
		}
		t := sessionWriters(sess)
		w, err := t.get(id)
		if err != nil {
			return nil, err
		}
		t.remove(id)
		return nil, w.Close()
	})
	s.Handle(FAbandon, func(_ context.Context, sess *Session, body []byte) ([]byte, error) {
		id, err := decHandleMsg(body)
		if err != nil {
			return nil, err
		}
		t := sessionWriters(sess)
		w, err := t.get(id)
		if err != nil {
			return nil, err
		}
		t.remove(id)
		w.Abandon()
		return nil, nil
	})
	s.Handle(FDelete, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		path, err := decStringMsg(body)
		if err != nil {
			return nil, err
		}
		return nil, fs.Delete(path)
	})
	s.Handle(FRename, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		oldPath, newPath, err := decFRenameReq(body)
		if err != nil {
			return nil, err
		}
		return nil, fs.Rename(oldPath, newPath)
	})
	s.Handle(FExists, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		path, err := decStringMsg(body)
		if err != nil {
			return nil, err
		}
		return encBoolMsg(fs.Exists(path)), nil
	})
	s.Handle(FList, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		prefix, err := decStringMsg(body)
		if err != nil {
			return nil, err
		}
		return encStringsMsg(fs.List(prefix)), nil
	})
	s.Handle(FSize, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		path, err := decStringMsg(body)
		if err != nil {
			return nil, err
		}
		size, err := fs.Size(path)
		if err != nil {
			return nil, err
		}
		return encHandleMsg(uint64(size)), nil
	})
	s.Handle(FReadAll, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		path, err := decStringMsg(body)
		if err != nil {
			return nil, err
		}
		data, err := fs.ReadAll(path)
		if err != nil {
			return nil, err
		}
		return encBytesMsg(data), nil
	})
	s.Handle(FReadRange, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		path, off, n, err := decFReadRangeReq(body)
		if err != nil {
			return nil, err
		}
		data, err := fs.ReadRange(path, off, n)
		if err != nil {
			return nil, err
		}
		return encBytesMsg(data), nil
	})
}

// RemoteFS is a dfs.FileSystem executing in the master process. All calls
// use the background context: filesystem operations back WAL appends and
// store-file flushes, whose durability must not be subject to a caller's
// deadline.
type RemoteFS struct {
	pool *Pool
	addr string
}

// NewRemoteFS returns a filesystem client against the DFS service at addr.
func NewRemoteFS(pool *Pool, addr string) *RemoteFS {
	return &RemoteFS{pool: pool, addr: addr}
}

func (fs *RemoteFS) CreateFile(path string) (dfs.FileWriter, error) {
	resp, err := fs.pool.Call(context.Background(), fs.addr, FCreate, encStringMsg(path))
	if err != nil {
		return nil, err
	}
	id, err := decHandleMsg(resp)
	if err != nil {
		return nil, err
	}
	return &remoteWriter{fs: fs, id: id}, nil
}

func (fs *RemoteFS) Delete(path string) error {
	_, err := fs.pool.Call(context.Background(), fs.addr, FDelete, encStringMsg(path))
	return err
}

func (fs *RemoteFS) Rename(oldPath, newPath string) error {
	_, err := fs.pool.Call(context.Background(), fs.addr, FRename, encFRenameReq(oldPath, newPath))
	return err
}

func (fs *RemoteFS) Exists(path string) bool {
	resp, err := fs.pool.Call(context.Background(), fs.addr, FExists, encStringMsg(path))
	if err != nil {
		return false
	}
	ok, err := decBoolMsg(resp)
	return err == nil && ok
}

func (fs *RemoteFS) List(prefix string) []string {
	resp, err := fs.pool.Call(context.Background(), fs.addr, FList, encStringMsg(prefix))
	if err != nil {
		return nil
	}
	ss, err := decStringsMsg(resp)
	if err != nil {
		return nil
	}
	return ss
}

func (fs *RemoteFS) Size(path string) (int64, error) {
	resp, err := fs.pool.Call(context.Background(), fs.addr, FSize, encStringMsg(path))
	if err != nil {
		return 0, err
	}
	v, err := decHandleMsg(resp)
	return int64(v), err
}

func (fs *RemoteFS) ReadAll(path string) ([]byte, error) {
	resp, err := fs.pool.Call(context.Background(), fs.addr, FReadAll, encStringMsg(path))
	if err != nil {
		return nil, err
	}
	return decBytesMsg(resp)
}

func (fs *RemoteFS) ReadRange(path string, off int64, n int) ([]byte, error) {
	resp, err := fs.pool.Call(context.Background(), fs.addr, FReadRange, encFReadRangeReq(path, off, n))
	if err != nil {
		return nil, err
	}
	return decBytesMsg(resp)
}

// remoteShipBytes bounds a remote writer's unshipped buffer. An Append
// that brings the buffer to it ships the buffer (FAppend, no sync), so
// store-file, compaction and replay writes keep a bounded buffer and every
// FAppend frame stays far below MaxFrameBytes.
const remoteShipBytes = 256 << 10

// remoteWriter is the client handle to a server-side writer. It keeps the
// FileWriter contract in the region-server process, as dfs.Writer does for
// in-process servers: Append copies into a local buffer and makes no RPC;
// Sync ships the buffer in order as FAppend chunks, then sends FSync. The
// only early ship is an Append that fills the buffer to remoteShipBytes.
// A process crash loses only bytes never synced — the ones still here and
// the ones the service holds, which it abandons with the session.
//
// A failed ship puts its bytes back at the front of the buffer, and the
// failure sticks: Append returns it (buffering nothing) until a Sync
// succeeds, so an error of the asynchronous syncer surfaces on the next
// write. An Append whose own ship fails returns that error too; its bytes
// stay buffered and go out with the next successful Sync.
//
// Syncs (the WAL syncer's and the heartbeat's persist) and ships are
// serialized by syncMu. mu guards the buffer and is never held across an
// RPC: a ship swaps the buffer out, so appenders do not wait on it.
type remoteWriter struct {
	fs *RemoteFS
	id uint64

	syncMu sync.Mutex // serializes ships and syncs

	mu       sync.Mutex
	buf      []byte // appended, not yet shipped
	unsynced int    // bytes shipped or in flight since the last FSync
	err      error  // sticky ship/sync failure; cleared by a successful Sync
	closed   bool
}

func (w *remoteWriter) Append(b []byte) error {
	w.mu.Lock()
	switch {
	case w.closed:
		w.mu.Unlock()
		return dfs.ErrClosed
	case w.err != nil:
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.buf = append(w.buf, b...)
	full := len(w.buf) >= remoteShipBytes
	w.mu.Unlock()
	if !full {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	full = len(w.buf) >= remoteShipBytes // a concurrent Sync may have shipped it
	w.mu.Unlock()
	if !full {
		return nil
	}
	return w.shipLocked()
}

// shipLocked sends the buffer as FAppend chunks. The caller holds syncMu.
func (w *remoteWriter) shipLocked() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return dfs.ErrClosed
	}
	data := w.buf
	w.buf = nil
	w.unsynced += len(data)
	w.mu.Unlock()

	for off := 0; off < len(data); {
		n := min(len(data)-off, remoteShipBytes)
		_, err := w.fs.pool.Call(context.Background(), w.fs.addr, FAppend, encFAppendReq(w.id, data[off:off+n]))
		if err != nil {
			w.mu.Lock()
			if !w.closed {
				w.unsynced -= len(data) - off
				w.buf = append(data[off:], w.buf...)
			}
			w.err = err
			w.mu.Unlock()
			return err
		}
		off += n
	}
	return nil
}

// Buffered counts the bytes appended and not yet synced: buffered here,
// in flight, or shipped and awaiting FSync.
func (w *remoteWriter) Buffered() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf) + w.unsynced
}

// Sync ships the buffer and makes it durable. With nothing appended since
// the last successful sync it is a no-op and pays no round trip.
func (w *remoteWriter) Sync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	closed, idle := w.closed, len(w.buf)+w.unsynced == 0
	w.mu.Unlock()
	if closed {
		return dfs.ErrClosed
	}
	if idle {
		return nil
	}
	if err := w.shipLocked(); err != nil {
		return err
	}
	_, err := w.fs.pool.Call(context.Background(), w.fs.addr, FSync, encHandleMsg(w.id))
	w.mu.Lock()
	if err == nil {
		w.unsynced = 0
	}
	w.err = err
	w.mu.Unlock()
	return err
}

// drop discards the unsynced tail locally; the service drops its own
// buffer when it closes or abandons the server-side writer.
func (w *remoteWriter) drop() {
	w.mu.Lock()
	w.closed = true
	w.buf = nil
	w.unsynced = 0
	w.mu.Unlock()
}

func (w *remoteWriter) Close() error {
	w.drop()
	_, err := w.fs.pool.Call(context.Background(), w.fs.addr, FClose, encHandleMsg(w.id))
	return err
}

func (w *remoteWriter) Abandon() {
	w.drop()
	_, _ = w.fs.pool.Call(context.Background(), w.fs.addr, FAbandon, encHandleMsg(w.id))
}

// Package dfs implements an HDFS-like distributed filesystem simulation: a
// name node that maps paths to sequences of replicated chunks, and data
// nodes that hold chunk replicas. Files are append-only and write-once (like
// HDFS); durability follows HDFS hflush/hsync semantics:
//
//   - Writer.Append buffers data in the *writer's* memory. It is NOT durable
//     and is lost if the writing process (e.g. a region server) crashes.
//   - Writer.Sync ships the buffer as a chunk to Replication live data nodes
//     and returns only once all replicas acknowledge, paying the configured
//     sync latency. Synced data survives the writer's crash.
//   - A data-node crash makes its replicas unavailable but does not destroy
//     them (disks survive restarts); a chunk is readable while at least one
//     replica is on a live node.
//
// These are exactly the semantics the paper's recovery protocol depends on:
// the HBase write-ahead log is persisted to the DFS asynchronously, so a
// region-server failure loses the unsynced WAL tail, which the transaction
// manager's log then covers.
package dfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"txkv/internal/obs"
	"txkv/internal/storage"
)

// Filesystem errors.
var (
	ErrNotFound    = errors.New("dfs: file not found")
	ErrExists      = errors.New("dfs: file already exists")
	ErrNoDataNodes = errors.New("dfs: no live data nodes")
	ErrDataLoss    = errors.New("dfs: chunk unavailable on all replicas")
	ErrClosed      = errors.New("dfs: writer closed")
)

// Config controls the simulated filesystem.
type Config struct {
	// Replication is the number of data nodes each chunk is written to.
	// The paper's evaluation uses 2.
	Replication int
	// DataNodes is the number of data nodes to create.
	DataNodes int
	// SyncLatency is the time one Sync takes (replica transfer + fsync on
	// the pipeline). This is the dominant cost that makes synchronous
	// persistence slow in Figure 2(a).
	SyncLatency time.Duration
	// ReadLatency is the time one ranged read (ReadRange / ReadAll) takes,
	// simulating a disk seek plus network fetch from a data node. Block
	// cache misses in the store pay this; it drives the cache warm-up
	// effect after fail-over in Figure 3.
	ReadLatency time.Duration
	// OpenLog, when set, enables durable persistence: the name node
	// journals metadata through the "meta" storage log and every data node
	// journals block contents through a log named after it. Reopening a
	// filesystem over the same logs (via Open) restores all synced state.
	// Nil keeps the filesystem purely in-process, the seed's behavior.
	OpenLog func(name string) (*storage.Log, error)
	// Registry receives the space-reclamation counters of CompactLogs
	// passes: reclaim.segments_dropped, reclaim.bytes_reclaimed and
	// reclaim.compactions. Nil records nothing.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.DataNodes <= 0 {
		c.DataNodes = c.Replication
	}
	return c
}

type chunk struct {
	id       uint64
	size     int
	replicas []string // data-node IDs
}

type file struct {
	chunks []chunk
	open   bool // a writer currently owns the file
}

type dataNode struct {
	id     string
	alive  bool
	blocks map[uint64][]byte
	log    *storage.Log // nil without persistence
}

// Stats reports filesystem-wide counters, used by benchmarks.
type Stats struct {
	Files     int
	Syncs     int64
	BytesSync int64
	// LogCompactions counts completed CompactLogs passes this
	// incarnation; LogBytesReclaimed totals the segment bytes they
	// dropped. LogCheckpoints counts complete checkpoint records found at
	// replay (at most one survives each compaction's segment drop).
	LogCompactions    int64
	LogBytesReclaimed int64
	LogCheckpoints    int64
}

// FS is the filesystem: the name node plus its data nodes, all in-process.
// FS methods are safe for concurrent use.
type FS struct {
	cfg Config

	mu      sync.Mutex
	files   map[string]*file
	nodes   map[string]*dataNode
	nodeIDs []string // stable ordering for placement
	nextID  uint64
	place   int // round-robin placement cursor
	stats   Stats

	metaLog *storage.Log // nil without persistence

	segmentsDropped, bytesReclaimed, compactions *obs.Counter

	// compactMu serializes CompactLogs passes; ckptEpoch numbers them
	// (guarded by mu, restored from checkpoint records at replay).
	compactMu sync.Mutex
	ckptEpoch uint64
	// persistMu fences checkpoint snapshots away from in-flight mutation
	// persists. Mutators (Create, Delete, Rename, commitChunk) hold it
	// shared from their in-memory registration until their journal wait —
	// and a possible failure rollback — completes; CompactLogs holds it
	// exclusively while snapshotting. Without the fence a checkpoint
	// could durably record a registration whose own journal append later
	// fails and is rolled back: a phantom chunk (duplicated file bytes
	// once the writer retries) or a resurrected/lost file at the next
	// replay. Acquired before mu when both are held.
	persistMu sync.RWMutex
	// testCompactHook, when set by tests before any concurrent use, is
	// called between compaction stages to simulate a crash at that point.
	testCompactHook func(stage string) error
}

// New creates a memory-only filesystem with cfg.DataNodes data nodes named
// "dn-0"... For a persistent filesystem use Open.
func New(cfg Config) *FS {
	cfg.OpenLog = nil
	fs, err := Open(cfg)
	if err != nil {
		panic(err) // unreachable: the memory-only path cannot fail
	}
	return fs
}

// Open creates a filesystem, replaying existing persistence logs when
// cfg.OpenLog is set: every file whose data was synced before the previous
// process stopped is restored, chunks that never became durable are
// dropped (they were never acknowledged).
func Open(cfg Config) (*FS, error) {
	cfg = cfg.withDefaults()
	fs := &FS{
		cfg:             cfg,
		files:           make(map[string]*file),
		nodes:           make(map[string]*dataNode),
		segmentsDropped: cfg.Registry.Counter("reclaim.segments_dropped"),
		bytesReclaimed:  cfg.Registry.Counter("reclaim.bytes_reclaimed"),
		compactions:     cfg.Registry.Counter("reclaim.compactions"),
	}
	for i := 0; i < cfg.DataNodes; i++ {
		id := fmt.Sprintf("dn-%d", i)
		fs.nodes[id] = &dataNode{id: id, alive: true, blocks: make(map[uint64][]byte)}
		fs.nodeIDs = append(fs.nodeIDs, id)
	}
	if cfg.OpenLog != nil {
		meta, err := cfg.OpenLog("meta")
		if err != nil {
			return nil, fmt.Errorf("dfs: open meta log: %w", err)
		}
		fs.metaLog = meta
		if err := fs.replayPersisted(cfg); err != nil {
			_ = fs.Close()
			return nil, err
		}
	}
	return fs, nil
}

// CrashDataNode marks a data node down; its replicas become unavailable
// until RestartDataNode.
func (fs *FS) CrashDataNode(id string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.nodes[id]
	if !ok {
		return fmt.Errorf("dfs: unknown data node %q", id)
	}
	n.alive = false
	return nil
}

// RestartDataNode brings a crashed data node back; its on-disk blocks are
// intact.
func (fs *FS) RestartDataNode(id string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.nodes[id]
	if !ok {
		return fmt.Errorf("dfs: unknown data node %q", id)
	}
	n.alive = true
	return nil
}

// Stats returns a snapshot of filesystem counters.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s := fs.stats
	s.Files = len(fs.files)
	return s
}

// pickReplicas chooses up to Replication live data nodes round-robin.
// Caller holds fs.mu.
func (fs *FS) pickReplicas() ([]*dataNode, error) {
	var live []*dataNode
	n := len(fs.nodeIDs)
	for i := 0; i < n; i++ {
		nd := fs.nodes[fs.nodeIDs[(fs.place+i)%n]]
		if nd.alive {
			live = append(live, nd)
		}
		if len(live) == fs.cfg.Replication {
			break
		}
	}
	fs.place = (fs.place + 1) % n
	if len(live) == 0 {
		return nil, ErrNoDataNodes
	}
	return live, nil
}

// Create creates a new append-only file and returns its writer. It fails if
// the path already exists.
func (fs *FS) Create(path string) (*Writer, error) {
	fs.persistMu.RLock()
	defer fs.persistMu.RUnlock()
	fs.mu.Lock()
	if _, ok := fs.files[path]; ok {
		fs.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExists, path)
	}
	fs.files[path] = &file{open: true}
	wait := fs.appendMetaLocked(encodeCreateRec(path))
	fs.mu.Unlock()
	if err := waitPersist([]<-chan storage.AppendResult{wait}); err != nil {
		fs.mu.Lock()
		delete(fs.files, path)
		fs.mu.Unlock()
		return nil, err
	}
	return &Writer{fs: fs, path: path}, nil
}

// Delete removes a file. Deleting a missing file returns ErrNotFound. With
// persistence, a failed journal append rolls the removal back so memory and
// journal never diverge (the file would otherwise resurrect at reopen).
func (fs *FS) Delete(path string) error {
	type savedBlock struct {
		nd   *dataNode
		id   uint64
		data []byte
	}
	fs.persistMu.RLock()
	defer fs.persistMu.RUnlock()
	fs.mu.Lock()
	f, ok := fs.files[path]
	if !ok {
		fs.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	var saved []savedBlock
	for _, c := range f.chunks {
		for _, r := range c.replicas {
			if nd, ok := fs.nodes[r]; ok {
				if data, ok := nd.blocks[c.id]; ok {
					saved = append(saved, savedBlock{nd: nd, id: c.id, data: data})
					delete(nd.blocks, c.id)
				}
			}
		}
	}
	delete(fs.files, path)
	wait := fs.appendMetaLocked(encodeDeleteRec(path))
	fs.mu.Unlock()
	if err := waitPersist([]<-chan storage.AppendResult{wait}); err != nil {
		fs.mu.Lock()
		fs.files[path] = f
		for _, s := range saved {
			s.nd.blocks[s.id] = s.data
		}
		fs.mu.Unlock()
		return err
	}
	return nil
}

// Rename atomically moves a file, as the name-node metadata operation it is.
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.persistMu.RLock()
	defer fs.persistMu.RUnlock()
	fs.mu.Lock()
	f, ok := fs.files[oldPath]
	if !ok {
		fs.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, oldPath)
	}
	if _, ok := fs.files[newPath]; ok {
		fs.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrExists, newPath)
	}
	delete(fs.files, oldPath)
	fs.files[newPath] = f
	wait := fs.appendMetaLocked(encodeRenameRec(oldPath, newPath))
	fs.mu.Unlock()
	if err := waitPersist([]<-chan storage.AppendResult{wait}); err != nil {
		fs.mu.Lock()
		if fs.files[newPath] == f {
			delete(fs.files, newPath)
			fs.files[oldPath] = f
		}
		fs.mu.Unlock()
		return err
	}
	return nil
}

// Exists reports whether path names a file.
func (fs *FS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// List returns all paths with the given prefix, sorted.
func (fs *FS) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Size returns the durable (synced) length of the file in bytes.
func (fs *FS) Size(path string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	var n int64
	for _, c := range f.chunks {
		n += int64(c.size)
	}
	return n, nil
}

// ReadAll returns the full durable contents of the file. It fails with
// ErrDataLoss if any chunk has no live replica. It pays one ReadLatency.
func (fs *FS) ReadAll(path string) ([]byte, error) {
	fs.mu.Lock()
	f, ok := fs.files[path]
	if !ok {
		fs.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	var out []byte
	for _, c := range f.chunks {
		b, err := fs.readChunkLocked(c)
		if err != nil {
			fs.mu.Unlock()
			return nil, err
		}
		out = append(out, b...)
	}
	lat := fs.cfg.ReadLatency
	fs.mu.Unlock()
	if lat > 0 {
		time.Sleep(lat)
	}
	return out, nil
}

// ReadRange reads n bytes starting at byte offset off within the durable
// contents of the file. It pays one ReadLatency (one simulated seek+fetch).
// Reads past the durable end are truncated; a read entirely past the end
// returns an empty slice.
func (fs *FS) ReadRange(path string, off int64, n int) ([]byte, error) {
	fs.mu.Lock()
	f, ok := fs.files[path]
	if !ok {
		fs.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	out := make([]byte, 0, n)
	pos := int64(0)
	for _, c := range f.chunks {
		if len(out) >= n {
			break
		}
		end := pos + int64(c.size)
		if end <= off {
			pos = end
			continue
		}
		b, err := fs.readChunkLocked(c)
		if err != nil {
			fs.mu.Unlock()
			return nil, err
		}
		lo := int64(0)
		if off > pos {
			lo = off - pos
		}
		hi := int64(c.size)
		if remain := int64(n - len(out)); hi-lo > remain {
			hi = lo + remain
		}
		out = append(out, b[lo:hi]...)
		pos = end
	}
	lat := fs.cfg.ReadLatency
	fs.mu.Unlock()
	if lat > 0 {
		time.Sleep(lat)
	}
	return out, nil
}

func (fs *FS) readChunkLocked(c chunk) ([]byte, error) {
	for _, r := range c.replicas {
		nd, ok := fs.nodes[r]
		if !ok || !nd.alive {
			continue
		}
		if b, ok := nd.blocks[c.id]; ok {
			return b, nil
		}
	}
	return nil, fmt.Errorf("%w: chunk %d", ErrDataLoss, c.id)
}

// Writer appends to a file. Appends buffer in the writer's memory; Sync
// makes them durable. Writer methods are safe for concurrent use (the WAL
// appends from handler goroutines while a background syncer calls Sync).
type Writer struct {
	fs   *FS
	path string

	mu     sync.Mutex
	buf    []byte
	closed bool
}

// Append adds data to the writer's in-memory buffer. Not durable until Sync.
func (w *Writer) Append(b []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	w.buf = append(w.buf, b...)
	return nil
}

// Buffered returns the number of not-yet-synced bytes.
func (w *Writer) Buffered() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf)
}

// Sync makes all buffered data durable: it writes one chunk to Replication
// live data nodes and sleeps the configured sync latency. A Sync with an
// empty buffer is a no-op and pays nothing.
func (w *Writer) Sync() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if len(w.buf) == 0 {
		w.mu.Unlock()
		return nil
	}
	data := w.buf
	w.buf = nil
	w.mu.Unlock()

	if err := w.fs.commitChunk(w.path, data); err != nil {
		// Put the data back so a retry can succeed (pipeline recovery).
		w.mu.Lock()
		w.buf = append(data, w.buf...)
		w.mu.Unlock()
		return err
	}
	return nil
}

// commitChunk registers one durable chunk for path. With persistence, the
// chunk is acknowledged only once its payload is durable on every replica's
// log and its metadata on the name-node log; the simulated sync latency is
// charged on top (it models the replication pipeline, not the local fsync).
func (fs *FS) commitChunk(path string, data []byte) error {
	fs.persistMu.RLock()
	defer fs.persistMu.RUnlock()
	fs.mu.Lock()
	f, ok := fs.files[path]
	if !ok {
		fs.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	replicas, err := fs.pickReplicas()
	if err != nil {
		fs.mu.Unlock()
		return err
	}
	id := fs.nextID
	fs.nextID++
	c := chunk{id: id, size: len(data)}
	stored := append([]byte(nil), data...)
	var blockLogs []*storage.Log
	for _, nd := range replicas {
		nd.blocks[id] = stored
		c.replicas = append(c.replicas, nd.id)
		if nd.log != nil {
			blockLogs = append(blockLogs, nd.log)
		}
	}
	f.chunks = append(f.chunks, c)
	meta := fs.metaLog
	fs.stats.Syncs++
	fs.stats.BytesSync += int64(len(data))
	lat := fs.cfg.SyncLatency
	fs.mu.Unlock()

	// Journal outside fs.mu: an enqueue writes the frame inline and may
	// even fsync on a segment rotation — neither should stall every other
	// filesystem operation. Ordering does not depend on the enqueue
	// order: chunk ids are assigned under fs.mu and replay sorts each
	// file's chunks by id.
	var waits []<-chan storage.AppendResult
	for _, log := range blockLogs {
		waits = append(waits, log.Enqueue(encodeBlockRec(id, stored)))
	}
	if meta != nil {
		waits = append(waits, meta.Enqueue(encodeChunkRec(path, c)))
	}

	if err := waitPersist(waits); err != nil {
		// Roll the registration back so the writer's retry (which
		// re-buffers the data) cannot leave a phantom chunk behind.
		fs.mu.Lock()
		for i, cc := range f.chunks {
			if cc.id == id {
				f.chunks = append(f.chunks[:i], f.chunks[i+1:]...)
				break
			}
		}
		for _, nd := range replicas {
			delete(nd.blocks, id)
		}
		fs.stats.Syncs--
		fs.stats.BytesSync -= int64(len(data))
		fs.mu.Unlock()
		return err
	}
	if lat > 0 {
		time.Sleep(lat)
	}
	return nil
}

// Close discards any unsynced buffer (crash-consistent: only synced data is
// durable) unless sync is called first, and releases the writer.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	w.buf = nil
	w.fs.mu.Lock()
	if f, ok := w.fs.files[w.path]; ok {
		f.open = false
	}
	w.fs.mu.Unlock()
	return nil
}

// Abandon simulates the writer's process crashing: the unsynced buffer is
// lost. Identical to Close but named for intent at call sites.
func (w *Writer) Abandon() { _ = w.Close() }

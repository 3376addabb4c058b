// Package kvstore implements the HBase-like distributed key-value store:
// sorted in-memory stores (memstores), immutable store files with an LRU
// block cache, regions (contiguous key ranges), region servers with a
// per-server write-ahead log on the DFS, a master that detects server
// failures and reassigns regions (splitting the dead server's WAL), and a
// routing client. The store deliberately reproduces the durability
// behaviour the paper builds on: updates are applied to memory and the WAL
// buffer and acknowledged immediately; WAL syncs and memstore flushes happen
// asynchronously, so a server crash loses recent updates unless a higher
// layer (the transaction manager's log plus the recovery middleware in
// internal/core) replays them.
package kvstore

import (
	"sync/atomic"

	"txkv/internal/kv"
)

const (
	skipMaxLevel = 24
	skipPFactor  = 4 // 1/4 promotion probability
)

// cellVersion is a memstore entry's mutable part. Re-puts of the same cell
// coordinate swap the whole struct atomically, so readers always observe a
// consistent (value, tombstone) pair.
type cellVersion struct {
	value     []byte
	tombstone bool
	heap      int // kv.KeyValue.HeapSize() of the entry carrying this version
}

type skipNode struct {
	cell kv.Cell
	val  atomic.Pointer[cellVersion]
	next []atomic.Pointer[skipNode]
}

// entry materializes the node's KeyValue from its immutable cell and the
// current version.
func (n *skipNode) entry() kv.KeyValue {
	v := n.val.Load()
	return kv.KeyValue{Cell: n.cell, Value: v.value, Tombstone: v.tombstone}
}

// MemStore is a concurrency-safe sorted store of versioned cells, ordered
// by (row asc, column asc, timestamp desc) — the memstore of a region. It is
// a lock-free concurrent skip list: inserts link nodes with per-level CAS
// (nodes are never removed, which removes the need for deletion marks), and
// overwrites swap the node's version pointer. Readers never block writers
// and vice versa. The zero value is not usable, construct with NewMemStore.
type MemStore struct {
	head *skipNode
	n    atomic.Int64
	size atomic.Int64  // approximate heap bytes
	rnd  atomic.Uint64 // splitmix64 state for level generation
}

// NewMemStore returns an empty memstore.
func NewMemStore() *MemStore {
	m := &MemStore{head: &skipNode{next: make([]atomic.Pointer[skipNode], skipMaxLevel)}}
	m.rnd.Store(0x5eed)
	return m
}

// randLevel draws a skip-list level from a shared splitmix64 sequence. The
// atomic add replaces the seed's old mutex-guarded rand.Rand: level draws
// are wait-free and never serialize concurrent writers.
func (m *MemStore) randLevel() int {
	x := m.rnd.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	lvl := 1
	for lvl < skipMaxLevel && x&(skipPFactor-1) == 0 {
		lvl++
		x >>= 2
	}
	return lvl
}

// findPreds fills preds/succs with, per level, the rightmost node whose
// cell is < c and its successor. Returns the level-0 successor if its cell
// equals c (the overwrite case).
func (m *MemStore) findPreds(c kv.Cell, preds, succs *[skipMaxLevel]*skipNode) *skipNode {
	x := m.head
	for i := skipMaxLevel - 1; i >= 0; i-- {
		// succs[i] is the node the search compared against, not a reload
		// of x.next[i]: a node linked after x since then may be < c, and
		// linking c in front of it would break the order.
		var nxt *skipNode
		for {
			nxt = x.next[i].Load()
			if nxt == nil || kv.CompareCells(nxt.cell, c) >= 0 {
				break
			}
			x = nxt
		}
		preds[i] = x
		succs[i] = nxt
	}
	if s := succs[0]; s != nil && s.cell == c {
		return s
	}
	return nil
}

// Put inserts a versioned cell. Re-inserting the exact same cell coordinate
// (row, column, ts) overwrites the previous value, which makes write-set
// replay idempotent. Safe for any number of concurrent writers.
func (m *MemStore) Put(e kv.KeyValue) {
	ver := &cellVersion{value: e.Value, tombstone: e.Tombstone, heap: e.HeapSize()}
	var preds, succs [skipMaxLevel]*skipNode
	var node *skipNode
	lvl := 0
	for {
		if hit := m.findPreds(e.Cell, &preds, &succs); hit != nil {
			old := hit.val.Swap(ver)
			m.size.Add(int64(ver.heap - old.heap))
			return
		}
		if node == nil {
			lvl = m.randLevel()
			node = &skipNode{cell: e.Cell, next: make([]atomic.Pointer[skipNode], lvl)}
			node.val.Store(ver)
		}
		node.next[0].Store(succs[0])
		if preds[0].next[0].CompareAndSwap(succs[0], node) {
			break
		}
		// Lost the race at level 0: another writer linked a node here.
		// Re-search — the cell may now exist (overwrite path above).
	}
	m.n.Add(1)
	m.size.Add(int64(ver.heap))

	// Link the upper levels. Failures only mean a concurrent insert moved
	// the predecessor; re-search that level and retry. The node is already
	// reachable via level 0, so readers are correct throughout.
	for i := 1; i < lvl; i++ {
		for {
			node.next[i].Store(succs[i])
			if preds[i].next[i].CompareAndSwap(succs[i], node) {
				break
			}
			m.findPredsAt(i, e.Cell, &preds, &succs)
		}
	}
}

// findPredsAt recomputes preds/succs for one level (upper-level relink
// retries).
func (m *MemStore) findPredsAt(level int, c kv.Cell, preds, succs *[skipMaxLevel]*skipNode) {
	x := preds[level]
	if x == nil {
		x = m.head
	}
	var nxt *skipNode
	for {
		nxt = x.next[level].Load()
		if nxt == nil || kv.CompareCells(nxt.cell, c) >= 0 {
			break
		}
		x = nxt
	}
	preds[level] = x
	succs[level] = nxt // the compared successor (see findPreds)
}

// seek returns the first node whose cell is >= the given cell in store
// order. It returns the level-0 successor it compared, not a re-load of
// the predecessor's link: a node inserted concurrently behind the
// predecessor may sort before c.
func (m *MemStore) seek(c kv.Cell) *skipNode {
	x := m.head
	var nxt *skipNode
	for i := skipMaxLevel - 1; i >= 0; i-- {
		for {
			nxt = x.next[i].Load()
			if nxt == nil || kv.CompareCells(nxt.cell, c) >= 0 {
				break
			}
			x = nxt
		}
	}
	return nxt
}

// Get returns the newest version of (row, column) with timestamp <= maxTS.
// The boolean reports whether such a version exists (a tombstone is
// returned as found=true with Tombstone set; callers decide deletion
// semantics when merging across stores). Lock-free and allocation-free.
func (m *MemStore) Get(row kv.Key, column string, maxTS kv.Timestamp) (kv.KeyValue, bool) {
	// Store order is ts-descending, so seeking to (row, column, maxTS)
	// lands on the newest version with ts <= maxTS; a version from the
	// read's future sorts before that cell, so seek never returns one.
	n := m.seek(kv.Cell{Row: row, Column: column, TS: maxTS})
	if n == nil || n.cell.Row != row || n.cell.Column != column {
		return kv.KeyValue{}, false
	}
	return n.entry(), true
}

// ScanRange appends to dst every entry in [r.Start, r.End) with timestamp
// <= maxTS, in store order, returning the extended slice. All versions <=
// maxTS are included; callers merge/deduplicate per coordinate.
func (m *MemStore) ScanRange(dst []kv.KeyValue, r kv.KeyRange, maxTS kv.Timestamp) []kv.KeyValue {
	for n := m.seek(kv.Cell{Row: r.Start, Column: "", TS: kv.MaxTimestamp}); n != nil; n = n.next[0].Load() {
		if r.End != "" && n.cell.Row >= r.End {
			break
		}
		if n.cell.TS <= maxTS {
			dst = append(dst, n.entry())
		}
	}
	return dst
}

// Iter returns a streaming iterator positioned at the first entry of
// [r.Start, r.End) with timestamp <= maxTS. Entries inserted concurrently
// behind the cursor are not revisited (same guarantee a snapshot scan
// needs: the region read view pins maxTS below any in-flight write).
func (m *MemStore) Iter(r kv.KeyRange, maxTS kv.Timestamp) *MemIter {
	it := &MemIter{node: m.seek(kv.Cell{Row: r.Start, Column: "", TS: kv.MaxTimestamp}), end: r.End, maxTS: maxTS}
	it.skipInvisible()
	return it
}

// MemIter streams a memstore range in store order. See MemStore.Iter.
type MemIter struct {
	node  *skipNode
	end   kv.Key
	maxTS kv.Timestamp
}

// skipInvisible advances past entries newer than maxTS and clamps at end.
func (it *MemIter) skipInvisible() {
	for it.node != nil {
		if it.end != "" && it.node.cell.Row >= it.end {
			it.node = nil
			return
		}
		if it.node.cell.TS <= it.maxTS {
			return
		}
		it.node = it.node.next[0].Load()
	}
}

// Valid reports whether the iterator is positioned on an entry.
func (it *MemIter) Valid() bool { return it.node != nil }

// Head returns the current entry. Only call when Valid.
func (it *MemIter) Head() kv.KeyValue { return it.node.entry() }

// Next advances to the next visible entry.
func (it *MemIter) Next() error {
	it.node = it.node.next[0].Load()
	it.skipInvisible()
	return nil
}

// All returns every entry in store order. Used for memstore flushes.
func (m *MemStore) All() []kv.KeyValue {
	out := make([]kv.KeyValue, 0, m.n.Load())
	for n := m.head.next[0].Load(); n != nil; n = n.next[0].Load() {
		out = append(out, n.entry())
	}
	return out
}

// Len returns the number of entries.
func (m *MemStore) Len() int {
	return int(m.n.Load())
}

// ApproxSize returns the approximate heap footprint in bytes, used to
// trigger flushes.
func (m *MemStore) ApproxSize() int {
	return int(m.size.Load())
}

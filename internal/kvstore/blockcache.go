package kvstore

import (
	"container/list"
	"sync"

	"txkv/internal/obs"
)

// BlockCache is a byte-capacity-bounded LRU cache of store-file blocks,
// modelled on the HBase region-server block cache. Each region server owns
// one. A cold cache after region fail-over is what produces the slow return
// to pre-failure performance in Figure 3.
type BlockCache struct {
	mu       sync.Mutex
	capacity int
	used     int
	order    *list.List // front = most recently used
	items    map[string]*list.Element

	hits, misses *obs.Counter
}

type cacheEntry struct {
	key  string
	data []byte
	// charge is the byte cost recorded against used when this entry was
	// admitted (the decompressed length for v2 blocks). Eviction, overwrite,
	// and invalidation reclaim exactly this amount — never a re-derived
	// len(data), which could drift from the admitted charge if a caller
	// reslices the shared backing array — so used is always the exact sum of
	// live charges and a retired file's invalidation returns precisely what
	// its blocks cost.
	charge int
}

// NewBlockCache returns a cache holding at most capacity bytes. A zero or
// negative capacity disables caching (every lookup misses). Lookups count
// into reg's blockcache.hits and blockcache.misses; nil records nothing.
func NewBlockCache(capacity int, reg *obs.Registry) *BlockCache {
	return &BlockCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
		hits:     reg.Counter("blockcache.hits"),
		misses:   reg.Counter("blockcache.misses"),
	}
}

// Get returns the cached block and whether it was present.
func (c *BlockCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	data := el.Value.(*cacheEntry).data
	c.mu.Unlock()
	c.hits.Add(1)
	return data, true
}

// Put inserts a block, evicting least-recently-used blocks to stay within
// capacity. Blocks larger than the whole capacity are not cached.
func (c *BlockCache) Put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(data) > c.capacity {
		return
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.used += len(data) - ent.charge
		ent.data = data
		ent.charge = len(data)
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&cacheEntry{key: key, data: data, charge: len(data)})
		c.used += len(data)
	}
	for c.used > c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.items, ent.key)
		c.used -= ent.charge
	}
}

// Len returns the number of cached blocks.
func (c *BlockCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Used returns the number of cached bytes.
func (c *BlockCache) Used() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// InvalidateFile eagerly drops every cached block of a store file, given
// its path and block count — called when a retired file is physically
// unlinked. Store-file paths are never reused, so without this the dead
// entries would merely linger until LRU eviction (wasted capacity, not a
// correctness issue); with it the bytes are available to live blocks
// immediately. Nil-safe.
func (c *BlockCache) InvalidateFile(path string, blocks int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < blocks; i++ {
		key := blockCacheKey(path, i)
		if el, ok := c.items[key]; ok {
			c.order.Remove(el)
			delete(c.items, key)
			c.used -= el.Value.(*cacheEntry).charge
		}
	}
}

// Clear empties the cache (used when a server drops a region).
func (c *BlockCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.items = make(map[string]*list.Element)
	c.used = 0
}

package kvstore

import (
	"fmt"
	"testing"
)

// sumCharges walks the LRU and returns the total recorded charge and total
// live data length — the two quantities exact accounting keeps equal to
// used.
func sumCharges(c *BlockCache) (charges, data int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		charges += ent.charge
		data += len(ent.data)
	}
	return charges, data
}

// TestBlockCacheChargeExact drives admissions, overwrites (including
// size-changing ones, the decompressed-size case), evictions, and file
// invalidations, asserting after every step that used is neither over- nor
// under-charged relative to the entries actually resident.
func TestBlockCacheChargeExact(t *testing.T) {
	c := NewBlockCache(10000, nil)

	check := func(step string) {
		t.Helper()
		charges, data := sumCharges(c)
		if c.Used() != charges {
			t.Fatalf("%s: used=%d but live charges sum to %d (%+d drift)", step, c.Used(), charges, c.Used()-charges)
		}
		if c.Used() != data {
			t.Fatalf("%s: used=%d but live data sums to %d", step, c.Used(), data)
		}
		if c.Used() < 0 {
			t.Fatalf("%s: used went negative: %d", step, c.Used())
		}
	}

	// Admit blocks for three files.
	for fi := 0; fi < 3; fi++ {
		for b := 0; b < 8; b++ {
			c.Put(blockCacheKey(fmt.Sprintf("/f%d", fi), b), make([]byte, 100+10*b))
			check("admit")
		}
	}

	// Overwrite with different sizes: grow and shrink.
	c.Put(blockCacheKey("/f0", 0), make([]byte, 500))
	check("grow overwrite")
	c.Put(blockCacheKey("/f0", 0), make([]byte, 7))
	check("shrink overwrite")

	// Force evictions.
	for b := 0; b < 30; b++ {
		c.Put(blockCacheKey("/big", b), make([]byte, 400))
		check("evicting admit")
	}

	// Invalidate a file whose blocks are partly evicted, partly live, and
	// partly never cached (count past the admitted range).
	before := c.Used()
	c.InvalidateFile("/f1", 16)
	check("invalidate")
	if c.Used() > before {
		t.Fatalf("invalidate increased used: %d -> %d", before, c.Used())
	}

	// Invalidating the same file again must reclaim nothing.
	before = c.Used()
	c.InvalidateFile("/f1", 16)
	check("re-invalidate")
	if c.Used() != before {
		t.Fatalf("double invalidate changed used: %d -> %d", before, c.Used())
	}

	// Invalidate everything that could remain; the cache must return to
	// exactly zero — any residue is an under-reclaim.
	c.InvalidateFile("/f0", 16)
	c.InvalidateFile("/f2", 16)
	c.InvalidateFile("/big", 64)
	check("drain")
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatalf("drained cache holds used=%d len=%d", c.Used(), c.Len())
	}
}

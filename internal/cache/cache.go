// Package cache provides a generic set-associative cache model with LRU
// replacement. It backs both the compression-metadata cache (Fig. 5,
// 4-way, 4 KB per L2 slice, 32 B lines) and the simulator's L2 slices.
package cache

import "fmt"

// Cache is a set-associative cache indexed by line address. The zero value
// is not usable; construct with New.
type Cache struct {
	sets      int
	ways      int
	lineBytes int
	// tags[set*ways+way] holds the line address; valid bits track fills.
	tags  []uint64
	valid []bool
	// lru[set*ways+way] holds a per-set logical timestamp.
	lru   []uint64
	clock uint64

	hits   uint64
	misses uint64
}

// New constructs a cache of the given total capacity in bytes. capacity must
// be a multiple of ways*lineBytes; sets are derived. It panics on invalid
// geometry, which is a configuration error.
func New(capacityBytes, ways, lineBytes int) *Cache {
	if capacityBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry %d/%d/%d", capacityBytes, ways, lineBytes))
	}
	lines := capacityBytes / lineBytes
	if lines == 0 || lines%ways != 0 {
		panic(fmt.Sprintf("cache: capacity %d not divisible into %d-way sets of %d B lines",
			capacityBytes, ways, lineBytes))
	}
	sets := lines / ways
	return &Cache{
		sets:      sets,
		ways:      ways,
		lineBytes: lineBytes,
		tags:      make([]uint64, sets*ways),
		valid:     make([]bool, sets*ways),
		lru:       make([]uint64, sets*ways),
	}
}

// Access looks up the line containing byte address addr, filling it on a
// miss (evicting the LRU way). It reports whether the access hit.
func (c *Cache) Access(addr uint64) bool { return c.AccessN(addr, 1) }

// AccessN is n >= 1 back-to-back Accesses of addr's line in one tag search:
// only the first can miss, the other n-1 hit the line it leaves resident, and
// the line's LRU stamp is the last one's. It reports whether the first hit.
func (c *Cache) AccessN(addr uint64, n int) bool {
	line := addr / uint64(c.lineBytes)
	set := int(line % uint64(c.sets))
	base := set * c.ways
	c.clock += uint64(n)
	c.hits += uint64(n - 1)
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			c.lru[base+w] = c.clock
			c.hits++
			return true
		}
	}
	// Miss: evict LRU (prefer invalid ways).
	victim := base
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = base + w
			break
		}
		if c.lru[base+w] < c.lru[victim] {
			victim = base + w
		}
	}
	c.tags[victim] = line
	c.valid[victim] = true
	c.lru[victim] = c.clock
	c.misses++
	return false
}

// Probe reports whether addr's line is resident without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	line := addr / uint64(c.lineBytes)
	set := int(line % uint64(c.sets))
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			return true
		}
	}
	return false
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.hits, c.misses, c.clock = 0, 0, 0
}

// Hits returns the hit count since the last Reset.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the miss count since the last Reset.
func (c *Cache) Misses() uint64 { return c.misses }

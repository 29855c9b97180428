package um

import "sync"

// Pager is an incremental demand-paging model over the same CLOCK pool the
// Fig. 12 sweeps use: a bounded set of resident pages, with misses counted
// as driver-serviced fault migrations. Unlike RunOversubscription, which
// replays a whole trace, Pager is driven one access at a time so it can sit
// underneath a live storage tier (the host unified-memory fallback backend).
// It is safe for concurrent use.
type Pager struct {
	mu        sync.Mutex
	pageBytes int
	pool      *clockPool
	faults    uint64
	migrated  uint64
}

// NewPager builds a pager with the given migration granularity and resident
// pool capacity in bytes. pageBytes defaults to PageBytes;
// residentBytes below one page is rounded up to a single-page pool.
func NewPager(pageBytes int, residentBytes int64) *Pager {
	if pageBytes <= 0 {
		pageBytes = PageBytes
	}
	capacity := int(residentBytes / int64(pageBytes))
	return &Pager{pageBytes: pageBytes, pool: newClockPool(capacity)}
}

// Touch records an access to addr and reports whether its page was already
// resident. A miss evicts (CLOCK) and migrates the page in, accounting one
// fault and PageBytes of migration traffic.
func (p *Pager) Touch(addr uint64) bool {
	page := addr / uint64(p.pageBytes)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pool.touch(page) {
		return true
	}
	p.faults++
	p.migrated += uint64(p.pageBytes)
	return false
}

// Stats returns the fault count and migrated bytes so far.
func (p *Pager) Stats() (faults, migratedBytes uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.faults, p.migrated
}

// Reset clears residency and counters.
func (p *Pager) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pool = newClockPool(p.pool.cap)
	p.faults, p.migrated = 0, 0
}

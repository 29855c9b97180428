// Package lockorder is the fixture for the core lock hierarchy and the
// release discipline.
package lockorder

import "sync"

// Device mirrors core.Device's lock field: the allocation-list mu.
type Device struct {
	mu sync.RWMutex
}

// Allocation mirrors core.Allocation's: the control-plane ctl, its own mu,
// and its entry-shard stripes.
type Allocation struct {
	ctl    sync.Mutex
	mu     sync.RWMutex
	shards [8]sync.Mutex
	dev    *Device
}

func (a *Allocation) shard(i int) *sync.Mutex { return &a.shards[i%len(a.shards)] }

// streamStore mirrors core's: mu is taken under a shard, never over one.
type streamStore struct{ mu sync.Mutex }

// The documented order with deferred unlocks: clean.
func (a *Allocation) ordered(i int) {
	a.ctl.Lock()
	defer a.ctl.Unlock()
	a.dev.mu.Lock()
	defer a.dev.mu.Unlock()
	a.mu.RLock()
	defer a.mu.RUnlock()
	sh := a.shard(i)
	sh.Lock()
	defer sh.Unlock()
}

// Taking the allocation's mu while holding an entry-shard lock inverts the
// hierarchy, whether the shard came from shard() or by index.
func (a *Allocation) shardThenMu(i int) {
	sh := a.shard(i)
	sh.Lock()
	defer sh.Unlock()
	a.mu.Lock() // want `violates the lock order Allocation.ctl -> Device.mu -> Allocation.mu -> entry shards -> streamStore.mu`
	defer a.mu.Unlock()
}

func (a *Allocation) indexedShardThenMu(i int) {
	a.shards[i].Lock()
	defer a.shards[i].Unlock()
	a.mu.RLock() // want `violates the lock order`
	defer a.mu.RUnlock()
}

// Taking the device's mu under an allocation's mu inverts the middle: a pass
// holds a.mu and must not reach for the allocation list.
func (a *Allocation) allocMuThenDeviceMu() {
	a.mu.RLock()
	defer a.mu.RUnlock()
	a.dev.mu.Lock() // want `acquiring a.dev.mu \(Device.mu\) while holding a.mu \(Allocation.mu\) violates the lock order`
	defer a.dev.mu.Unlock()
}

// Taking ctl under the device's mu inverts it one level up: Recover must not
// hold the list while it waits for an allocation's control plane.
func (d *Device) deviceMuThenCtl(a *Allocation) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	a.ctl.Lock() // want `acquiring a.ctl \(Allocation.ctl\) while holding d.mu \(Device.mu\) violates the lock order`
	defer a.ctl.Unlock()
}

// And under its own mu, the top against the third rank.
func (a *Allocation) allocMuThenCtl() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ctl.Lock() // want `violates the lock order`
	defer a.ctl.Unlock()
}

func (a *Allocation) storeAndShard(s *streamStore, i int) {
	sh := a.shard(i)
	sh.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	sh.Unlock()
	s.mu.Lock()
	sh.Lock() // want `acquiring sh \(entry-shard\) while holding s.mu \(streamStore.mu\) violates the lock order`
	sh.Unlock()
	s.mu.Unlock()
}

// Another type's ctl and mu are nobody's business: unranked, clean.
type handle struct {
	ctl sync.Mutex
	mu  sync.Mutex
}

func (h *handle) unranked(a *Allocation) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ctl.Lock()
	defer h.ctl.Unlock()
}

// Re-acquiring a held lock self-deadlocks.
func (d *Device) reacquire() {
	d.mu.Lock()
	d.mu.Lock() // want `re-acquiring deadlocks`
	d.mu.Unlock()
}

// A read lock must be released with RUnlock.
func (d *Device) mismatched() {
	d.mu.RLock()
	d.mu.Unlock() // want `use RUnlock`
}

// Releasing on every return path without defer: clean.
func (d *Device) everyPath(cond bool) int {
	d.mu.Lock()
	if cond {
		d.mu.Unlock()
		return 1
	}
	d.mu.Unlock()
	return 0
}

// One early return forgets the unlock.
func (d *Device) leakyReturn(cond bool) int {
	d.mu.Lock()
	if cond {
		return 1 // want `not released on this return path`
	}
	d.mu.Unlock()
	return 0
}

// A lock taken in a loop iteration must be released before the next one.
func (a *Allocation) loopLocked(n int) {
	for i := 0; i < n; i++ {
		a.ctl.Lock() // want `locked in a loop body is not released`
	}
}

// Falling off the end of the function still holding the lock.
func (d *Device) fallThrough() {
	d.mu.Lock()
} // want `not released on this fall-through path`

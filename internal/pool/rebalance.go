package pool

import (
	"fmt"
	"sync"
)

// The rebalancer: Rebalance watches per-shard pressure skew across calls
// and live-migrates an allocation off a saturated shard. The pool starts no
// goroutine for it and keeps no clock: a caller that wants a watcher calls
// Rebalance on its own schedule (a ticker, a scheduler's virtual clock, a
// test's loop), so every scan happens at a point the caller chose.

// rebalanceSkew is the pressure gap between the hottest and coldest shard
// that triggers a migration. Pressure is device occupancy fraction
// (0..1) plus the shard's share of the fleet's recent link-busy growth
// (0..1), so 0.5 means "half a device of imbalance, or a strongly lopsided
// link, or some of both".
const rebalanceSkew = 0.5

// rebalanceEWMA smooths each shard's busy share across scans: a single
// scan window is short enough that whichever shard happened to serve the
// last burst claims the whole fleet's busy growth, so the instantaneous
// share is meaningless on a balanced fleet. Smoothed over ~1/alpha windows
// it converges to 1/N under uniform load and to ~1 only for a shard whose
// link is persistently dominant.
const rebalanceEWMA = 0.2

// rebalanceStreak is how many consecutive scans must elect the same
// hottest shard before Rebalance migrates anything off it — hysteresis
// against one-window noise (migrating a live allocation is far too
// expensive to do on a fluke).
const rebalanceStreak = 3

// rebalancer holds the scan state Rebalance keeps between calls, under mu,
// so concurrent calls serialize. The scan itself (rebalanceScan) is
// allocation-free — a serving process may call it every few microseconds,
// pinned by BenchmarkRebalanceScan.
type rebalancer struct {
	mu        sync.Mutex
	score     []float64 // per-shard pressure scratch
	busy      []float64 // last link busy-cycle snapshot, per shard
	share     []float64 // EWMA-smoothed busy share, per shard
	candidate int       // hottest shard of the current streak (-1 = none)
	streak    int       // consecutive scans electing candidate
}

func newRebalancer(shards int) *rebalancer {
	return &rebalancer{
		score:     make([]float64, shards),
		busy:      make([]float64, shards),
		share:     make([]float64, shards),
		candidate: -1,
	}
}

// rebalanceScan recomputes per-shard pressure and returns the (src, dst)
// pair of a migration worth making, if the skew between the hottest and
// coldest healthy shard exceeds the threshold. Pressure is device
// occupancy fraction plus the shard's normalized share of link busy-cycle
// growth since the previous scan — a shard can be hot by footprint or by
// interconnect saturation. Allocation-free by construction: it reads the
// capacity meters and link occupancy directly rather than building a
// Stats snapshot. Caller holds rebal.mu.
//
//buddy:hotpath
func (p *Pool) rebalanceScan() (src, dst int, ok bool) {
	rb := p.rebal
	var sumDelta float64
	for i, d := range p.devices {
		r, w := d.LinkOccupancy()
		busy := r + w
		delta := busy - rb.busy[i]
		rb.busy[i] = busy
		rb.score[i] = delta
		sumDelta += delta
	}
	for i, d := range p.devices {
		// Share of the fleet's busy growth this window (not max-normalized:
		// under uniform load every shard sits near 1/N), smoothed across
		// windows so one bursty interval cannot elect a hot shard. An idle
		// window decays every share toward zero.
		var inst float64
		if sumDelta > 0 {
			inst = rb.score[i] / sumDelta
		}
		rb.share[i] += float64(rebalanceEWMA * (inst - rb.share[i]))
		var s float64
		if capacity := d.DeviceCapacity(); capacity > 0 {
			s = float64(d.DeviceUsed()) / float64(capacity)
		}
		rb.score[i] = s + rb.share[i]
	}
	src, dst = -1, -1
	for i := range p.devices {
		if p.scheds[i].life.Load()&stateMask != shardHealthy {
			continue
		}
		if src < 0 || rb.score[i] > rb.score[src] {
			src = i
		}
		if dst < 0 || rb.score[i] < rb.score[dst] {
			dst = i
		}
	}
	if src < 0 || src == dst || rb.score[src]-rb.score[dst] < rebalanceSkew {
		return 0, 0, false
	}
	return src, dst, true
}

// Rebalance runs one scan of per-shard pressure (device occupancy plus the
// shard's smoothed share of link busy-cycle growth since the previous
// call). Once the same hottest shard has been elected on rebalanceStreak
// (3) consecutive calls with a skew of at least rebalanceSkew (0.5) over
// the coldest healthy shard, it live-migrates that shard's largest
// allocation to the coldest one and reports moved (not if another call
// moved, retargeted or freed it since). The migration's error is returned,
// not retried: a fresh streak is needed before the next move, so the
// watcher converges rather than thrashes. Concurrent calls
// serialize; after Close it fails with ErrClosed.
func (p *Pool) Rebalance() (moved bool, err error) {
	if p.closing() {
		return false, fmt.Errorf("pool: Rebalance: %w", ErrClosed)
	}
	rb := p.rebal
	rb.mu.Lock()
	defer rb.mu.Unlock()
	src, dst, ok := p.rebalanceScan()
	if !ok {
		rb.candidate, rb.streak = -1, 0
		return false, nil
	}
	if src != rb.candidate {
		rb.candidate, rb.streak = src, 1
		return false, nil
	}
	rb.streak++
	if rb.streak < rebalanceStreak {
		return false, nil
	}
	// Migrate, then demand a fresh streak before the next move.
	rb.candidate, rb.streak = -1, 0
	var pick *Handle
	for _, h := range p.Handles() {
		if h.Shard() == src && (pick == nil || h.Size() > pick.Size()) {
			pick = h
		}
	}
	if pick == nil {
		return false, nil
	}
	at := site{src, pick.Target()}
	_, moved, err = p.apply(move{pick, at, site{dst, at.target}})
	if err != nil {
		return false, fmt.Errorf("pool: Rebalance: migrate %q shard %d->%d: %w", pick.a.Name, src, dst, err)
	}
	return moved, nil
}

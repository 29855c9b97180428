package pool

import "time"

// The maintenance supervisor: one goroutine per pool (started only when
// Config enables AutoRecover or rebalancing) that reacts to shard-failure
// notifications and, on a ticker, watches per-shard pressure skew and
// live-migrates allocations off saturated shards. The goroutine runs under
// a restart supervisor: a panic anywhere in a maintenance action — a user
// OnRecover callback included — is recovered and the loop re-enters, so
// one bad tick can never silently kill the pool's self-healing.

// defaultRebalanceSkew is the pressure gap between the hottest and coldest
// shard that triggers a migration. Pressure is device occupancy fraction
// (0..1) plus the shard's share of the fleet's recent link-busy growth
// (0..1), so 0.5 means "half a device of imbalance, or a strongly lopsided
// link, or some of both".
const defaultRebalanceSkew = 0.5

// rebalanceEWMA smooths each shard's busy share across scans: a single
// scan window is short enough that whichever shard happened to serve the
// last burst claims the whole fleet's busy growth, so the instantaneous
// share is meaningless on a balanced fleet. Smoothed over ~1/alpha windows
// it converges to 1/N under uniform load and to ~1 only for a shard whose
// link is persistently dominant.
const rebalanceEWMA = 0.2

// rebalanceStreak is how many consecutive scans must elect the same
// hottest shard before the watcher migrates anything off it — hysteresis
// against one-window noise (migrating a live allocation is far too
// expensive to do on a fluke).
const rebalanceStreak = 3

// rebalancer holds the watcher's preallocated scan state. The scan itself
// (rebalanceScan) is allocation-free — it runs forever on a ticker inside
// serving processes, pinned by BenchmarkRebalanceScan.
type rebalancer struct {
	skew      float64
	score     []float64 // per-shard pressure scratch
	busy      []float64 // last link busy-cycle snapshot, per shard
	share     []float64 // EWMA-smoothed busy share, per shard
	candidate int       // hottest shard of the current streak (-1 = none)
	streak    int       // consecutive scans electing candidate
}

func newRebalancer(shards int, skew float64) *rebalancer {
	return &rebalancer{
		skew:      skew,
		score:     make([]float64, shards),
		busy:      make([]float64, shards),
		share:     make([]float64, shards),
		candidate: -1,
	}
}

// maintain is the supervisor loop; it exits only when the pool closes.
func (p *Pool) maintain() {
	defer p.maintWG.Done()
	for !p.superviseOnce() {
		// A maintenance action panicked; superviseOnce recovered it and we
		// restart the loop with fresh ticker state (supervisor idiom).
	}
}

// superviseOnce runs the supervisor until the pool closes (returns true)
// or a maintenance action panics (recovered; returns false so maintain
// restarts it).
func (p *Pool) superviseOnce() (done bool) {
	defer func() {
		if r := recover(); r != nil {
			done = false
		}
	}()
	var tickC <-chan time.Time
	if p.rebalEvery > 0 {
		tick := time.NewTicker(p.rebalEvery)
		defer tick.Stop()
		tickC = tick.C
	}
	for {
		select {
		case <-p.stop:
			return true
		case shard := <-p.failures:
			if p.autoRecover {
				rs, err := p.Recover(shard)
				if err == nil && p.onRecover != nil {
					p.onRecover(rs)
				}
			}
		case <-tickC:
			p.rebalanceOnce()
		}
	}
}

// rebalanceScan recomputes per-shard pressure and returns the (src, dst)
// pair of a migration worth making, if the skew between the hottest and
// coldest healthy shard exceeds the threshold. Pressure is device
// occupancy fraction plus the shard's normalized share of link busy-cycle
// growth since the previous scan — a shard can be hot by footprint or by
// interconnect saturation. Allocation-free by construction: it reads the
// capacity meters and link occupancy directly rather than building a
// Stats snapshot.
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
		rb.share[i] += rebalanceEWMA * (inst - rb.share[i])
		primary, _ := d.Tiers()
		var s float64
		if capacity := primary.Capacity(); capacity > 0 {
			s = float64(d.DeviceUsed()) / float64(capacity)
		}
		rb.score[i] = s + rb.share[i]
	}
	src, dst = -1, -1
	for i := range p.devices {
		if p.state[i].Load() != shardHealthy {
			continue
		}
		if src < 0 || rb.score[i] > rb.score[src] {
			src = i
		}
		if dst < 0 || rb.score[i] < rb.score[dst] {
			dst = i
		}
	}
	if src < 0 || src == dst || rb.score[src]-rb.score[dst] < rb.skew {
		return 0, 0, false
	}
	return src, dst, true
}

// rebalanceOnce runs one watcher tick: scan, and once the same hottest
// shard has been elected rebalanceStreak scans in a row, live-migrate its
// largest allocation to the coldest shard. Failures (racing drain,
// destination filled up since the scan) are left for the next tick rather
// than retried — the watcher converges, it does not thrash.
func (p *Pool) rebalanceOnce() {
	rb := p.rebal
	src, dst, ok := p.rebalanceScan()
	if !ok {
		rb.candidate, rb.streak = -1, 0
		return
	}
	if src != rb.candidate {
		rb.candidate, rb.streak = src, 1
		return
	}
	rb.streak++
	if rb.streak < rebalanceStreak {
		return
	}
	// Migrate, then demand a fresh streak before the next move.
	rb.candidate, rb.streak = -1, 0
	var pick *Handle
	for _, h := range p.handlesOn(src) {
		if pick == nil || h.size > pick.size {
			pick = h
		}
	}
	if pick == nil {
		return
	}
	_ = p.MigrateHandle(pick, dst)
}

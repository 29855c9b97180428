package pool

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"buddy/internal/core"
)

// Shard lifecycle: every shard is healthy, draining or failed, and Close
// takes it, whatever its state, to closed, which it never leaves.
//
//	healthy  --Drain-->  draining  --Reopen-->  healthy
//	healthy/draining  --Kill-->  failed  --Recover-->  healthy
//	healthy/draining/failed  --Close-->  closed
//
// Draining and failed shards accept no new placements (Malloc skips them,
// MigrateHandle refuses them as destinations). A draining shard keeps
// serving its residents until Drain's evacuation moves them off; a failed
// shard fails every data-path operation with core.ErrDeviceFailed until
// Recover rebuilds its device tier from the buddy carve-out. A closed shard
// refuses every call with ErrClosed and keeps its state for Stats.
//
// A shard's lifecycle is one word, sched.life: the closed bit, the state,
// and the count of calls in flight on the shard (sched.enter).
const (
	closedBit     = 1 << 63
	stateShift    = 61
	stateMask     = 3 << stateShift
	countMask     = 1<<stateShift - 1
	shardHealthy  = 0 << stateShift
	shardDraining = 1 << stateShift
	shardFailed   = 2 << stateShift
)

// ErrShardDraining is returned (wrapped) when an operation targets a shard
// that is draining: a second Drain, a placement-refusing Malloc, or a
// migration into it.
var ErrShardDraining = errors.New("pool: shard draining")

// ErrShardFailed is returned (wrapped) when an operation targets a shard
// whose device tier has been killed and not yet recovered.
var ErrShardFailed = errors.New("pool: shard failed")

// refusal is what a call allowed from the states in from finds in word w:
// nil, ErrClosed whatever the state once the shard has closed, or the error
// for the state it is in.
func refusal(w uint64, from ...uint64) error {
	switch st := w & stateMask; {
	case w&closedBit != 0:
		return ErrClosed
	case slices.Contains(from, st):
		return nil
	case st == shardDraining:
		return ErrShardDraining
	case st == shardFailed:
		return ErrShardFailed
	}
	return errors.New("pool: shard has not failed")
}

// transition moves the shard from one of the states in from to state to in
// one CAS on the whole word, retried only when the in-flight count moved, so
// the count and the closed bit pass through. It is a call in flight on the
// shard, so Close waits for it and for step, which (if not nil) runs once
// the state is checked and before the CAS. op names the call in errors.
func (p *Pool) transition(op string, shard int, to uint64, step func() error, from ...uint64) error {
	if shard < 0 || shard >= len(p.devices) {
		return fmt.Errorf("pool: %s on shard %d of %d", op, shard, len(p.devices))
	}
	s := p.scheds[shard]
	w := s.enter()
	defer s.exit()
	for {
		err := refusal(w, from...)
		if err == nil && step != nil {
			err, step = step(), nil
		}
		if err != nil {
			return fmt.Errorf("pool: %s shard %d: %w", op, shard, err)
		}
		if s.life.CompareAndSwap(w, w&^stateMask|to) {
			return nil
		}
		w = s.life.Load()
	}
}

// Drain evacuates every allocation off the shard for maintenance: the
// shard immediately stops accepting placements, then each resident
// allocation is live-migrated to the healthy shard with the most free
// device bytes (falling through the rest in headroom order). Handles keep
// working throughout — their routes follow the moves. The shard stays in
// the draining state after Drain returns, even on error, until Reopen. A
// draining, failed or closed shard refuses with its state's error.
func (p *Pool) Drain(shard int) error {
	if err := p.transition("Drain", shard, shardDraining, nil, shardHealthy); err != nil {
		return err
	}
	// Evacuate until a sweep finds the shard empty: a migration that was
	// already past its destination reservation when the drain began can
	// still land here, so one pass is not proof of emptiness.
	for {
		left, moved := 0, 0
		var errs []error
		for _, h := range p.Handles() {
			if h.Shard() != shard {
				continue
			}
			left++
			switch err := p.evacuate(h, shard); {
			case err == nil:
				moved++
			case len(errs) < 8:
				errs = append(errs, err)
			}
		}
		switch {
		case left == 0:
			return nil
		case moved == 0:
			return fmt.Errorf("pool: Drain shard %d: %d allocations not evacuated: %w",
				shard, left, errors.Join(errs...))
		}
	}
}

// Reopen returns a drained shard to service. Reopening a healthy shard is
// a no-op; a failed shard must go through Recover instead.
func (p *Pool) Reopen(shard int) error {
	return p.transition("Reopen", shard, shardHealthy, nil, shardDraining, shardHealthy)
}

// evacuate moves one handle off the given shard to the first destination
// of evacuationOrder with room. A skip (the handle moved, was retargeted or
// freed since) counts as done: the next sweep sees where it went.
func (p *Pool) evacuate(h *Handle, from int) error {
	at := site{from, h.Target()}
	order := evacuationOrder(p.loads(), from)
	if len(order) == 0 {
		return fmt.Errorf("pool: evacuate %q off shard %d: no healthy destination", h.a.Name, from)
	}
	var errs []error
	for _, to := range order {
		_, _, err := p.apply(move{h, at, site{to, at.target}})
		if err == nil {
			return nil
		}
		errs = append(errs, fmt.Errorf("pool: migrate %q shard %d->%d: %w", h.a.Name, from, to, err))
		if !errors.Is(err, core.ErrOutOfMemory) {
			break
		}
	}
	return errors.Join(errs...)
}

// evacuationOrder ranks the destinations for an allocation leaving shard
// from: every other shard that accepts placements, the most free device
// bytes first, ties in shard order.
func evacuationOrder(loads []ShardLoad, from int) []int {
	var order []int
	for i, l := range loads {
		if i != from && l.available() {
			order = append(order, i)
		}
	}
	free := func(i int) int64 { return loads[i].DeviceCapacity - loads[i].DeviceUsed }
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(free(b), free(a)) })
	return order
}

// FailureInjector kills shards of the pool it is attached to — the fault
// hook behind the heal experiment and the failure tests. Construct it with
// NewFailureInjector, hand it to the pool via Config.Injector (or
// buddy.WithFailureInjector), then Kill shards mid-serve; Pool.Recover
// brings a killed shard back.
type FailureInjector struct{ p atomic.Pointer[Pool] }

// NewFailureInjector returns an unattached injector; the pool it is passed
// to attaches itself at construction.
func NewFailureInjector() *FailureInjector { return &FailureInjector{} }

// Kill marks the shard's device tier failed, mid-serve: in-flight
// operations that already passed the device's failure check complete, and
// every subsequent data-path operation on the shard fails with an error
// wrapping core.ErrDeviceFailed until a caller rebuilds it with
// Pool.Recover; Kill only marks the shard. Killing an already-failed shard
// fails with ErrShardFailed, and any shard of a closed pool with ErrClosed.
func (fi *FailureInjector) Kill(shard int) error {
	p := fi.p.Load()
	if p == nil {
		return errors.New("pool: failure injector not attached to a pool")
	}
	return p.failShard(shard)
}

func (p *Pool) failShard(shard int) error {
	if err := p.transition("Kill", shard, shardFailed, nil, shardHealthy, shardDraining); err != nil {
		return err
	}
	p.devices[shard].Fail()
	return nil
}

// RecoveryStats reports one shard recovery.
type RecoveryStats struct {
	// Shard is the recovered shard.
	Shard int
	// Entries is the number of live entries rebuilt into the device tier.
	Entries int
	// RebuiltBytes is the compressed footprint streamed back over the
	// buddy link during the rebuild.
	RebuiltBytes int64
	// Elapsed is the wall-clock duration of the rebuild.
	Elapsed time.Duration
}

// Recover rebuilds a failed shard's device tier from the buddy carve-out
// (see core.Device.Recover for the traffic model) and returns it to
// service. Recovering a shard that has not failed is an error. Close waits
// for a rebuild in flight; one it overtakes leaves the shard failed.
func (p *Pool) Recover(shard int) (RecoveryStats, error) {
	st, start := RecoveryStats{Shard: shard}, time.Now()
	err := p.transition("Recover", shard, shardHealthy, func() (err error) {
		st.Entries, st.RebuiltBytes, err = p.devices[shard].Recover()
		return err
	}, shardFailed)
	if err != nil {
		return RecoveryStats{}, err
	}
	st.Elapsed = time.Since(start)
	return st, nil
}

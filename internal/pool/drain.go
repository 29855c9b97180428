package pool

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"buddy/internal/core"
)

// Shard lifecycle: every shard is healthy, draining, or failed.
//
//	healthy  --Drain-->  draining  --Reopen-->  healthy
//	healthy/draining  --Kill-->  failed  --Recover-->  healthy
//
// Draining and failed shards accept no new placements (Malloc skips them,
// MigrateHandle refuses them as destinations). A draining shard keeps
// serving its residents until Drain's evacuation moves them off; a failed
// shard fails every data-path operation with core.ErrDeviceFailed until
// Recover rebuilds its device tier from the buddy carve-out.
const (
	shardHealthy int32 = iota
	shardDraining
	shardFailed
)

// ErrShardDraining is returned (wrapped) when an operation targets a shard
// that is draining: a second Drain, a placement-refusing Malloc, or a
// migration into it.
var ErrShardDraining = errors.New("pool: shard draining")

// ErrShardFailed is returned (wrapped) when an operation targets a shard
// whose device tier has been killed and not yet recovered.
var ErrShardFailed = errors.New("pool: shard failed")

func (p *Pool) checkShard(op string, shard int) error {
	if shard < 0 || shard >= len(p.devices) {
		return fmt.Errorf("pool: %s on shard %d of %d", op, shard, len(p.devices))
	}
	return nil
}

// Drain evacuates every allocation off the shard for maintenance: the
// shard immediately stops accepting placements, then each resident
// allocation is live-migrated to the healthy shard with the most free
// device bytes (falling through the rest in headroom order). Handles keep
// working throughout — their routes follow the moves. The shard stays in
// the draining state after Drain returns, even on error, until Reopen;
// draining an already-draining shard fails with ErrShardDraining, a failed
// shard with ErrShardFailed, and a closed pool with ErrClosed (Close
// retires the maintenance plane along with the queues).
func (p *Pool) Drain(shard int) error {
	if err := p.checkShard("Drain", shard); err != nil {
		return err
	}
	if p.closed.Load() {
		return fmt.Errorf("pool: Drain shard %d: %w", shard, ErrClosed)
	}
	if !p.state[shard].CompareAndSwap(shardHealthy, shardDraining) {
		if p.state[shard].Load() == shardFailed {
			return fmt.Errorf("pool: Drain shard %d: %w", shard, ErrShardFailed)
		}
		return fmt.Errorf("pool: Drain shard %d: %w", shard, ErrShardDraining)
	}
	// Evacuate until a sweep finds the shard empty: a migration that was
	// already past its destination reservation when the drain began can
	// still land here, so one pass is not proof of emptiness.
	for {
		hs := p.handlesOn(shard)
		if len(hs) == 0 {
			return nil
		}
		moved := 0
		var errs []error
		for _, h := range hs {
			switch err := p.evacuate(h, shard); {
			case err == nil:
				moved++
			case len(errs) < 8:
				errs = append(errs, err)
			}
		}
		if moved == 0 {
			return fmt.Errorf("pool: Drain shard %d: %d allocations not evacuated: %w",
				shard, len(hs), errors.Join(errs...))
		}
	}
}

// Reopen returns a drained shard to service. Reopening a healthy shard is
// a no-op; a failed shard must go through Recover instead.
func (p *Pool) Reopen(shard int) error {
	if err := p.checkShard("Reopen", shard); err != nil {
		return err
	}
	if p.state[shard].Load() == shardFailed {
		return fmt.Errorf("pool: Reopen shard %d: %w", shard, ErrShardFailed)
	}
	p.state[shard].CompareAndSwap(shardDraining, shardHealthy)
	return nil
}

// evacuate moves one handle off the given shard, trying healthy
// destinations in descending free-device-bytes order and skipping full
// ones. A handle that already moved (racing evacuation) counts as done.
func (p *Pool) evacuate(h *Handle, from int) error {
	if h.Shard() != from {
		return nil
	}
	cands := make([]ShardLoad, 0, len(p.devices))
	for i := range p.devices {
		if l := p.load(i); i != from && l.available() {
			cands = append(cands, l)
		}
	}
	if len(cands) == 0 {
		return fmt.Errorf("pool: evacuate %q off shard %d: no healthy destination", h.a.Name, from)
	}
	free := func(l ShardLoad) int64 { return l.DeviceCapacity - l.DeviceUsed }
	sort.Slice(cands, func(a, b int) bool { return free(cands[a]) > free(cands[b]) })
	var errs []error
	for _, c := range cands {
		err := p.MigrateHandle(h, c.Shard)
		if err == nil {
			return nil
		}
		errs = append(errs, err)
		if !errors.Is(err, core.ErrOutOfMemory) {
			break
		}
	}
	return errors.Join(errs...)
}

// FailureInjector kills shards of the pool it is attached to — the fault
// hook behind the heal experiment and the failure tests. Construct it with
// NewFailureInjector, hand it to the pool via Config.Injector (or
// buddy.WithFailureInjector), then Kill shards mid-serve.
type FailureInjector struct {
	mu sync.Mutex
	p  *Pool
}

// NewFailureInjector returns an unattached injector; the pool it is passed
// to attaches itself at construction.
func NewFailureInjector() *FailureInjector { return &FailureInjector{} }

func (fi *FailureInjector) attach(p *Pool) {
	fi.mu.Lock()
	fi.p = p
	fi.mu.Unlock()
}

// Kill marks the shard's device tier failed, mid-serve: in-flight
// operations that already passed the device's failure check complete, and
// every subsequent data-path operation on the shard fails with an error
// wrapping core.ErrDeviceFailed until recovery. Killing an already-failed
// shard fails with ErrShardFailed. If the pool runs with AutoRecover, the
// supervisor rebuilds the shard in the background.
func (fi *FailureInjector) Kill(shard int) error {
	fi.mu.Lock()
	p := fi.p
	fi.mu.Unlock()
	if p == nil {
		return errors.New("pool: failure injector not attached to a pool")
	}
	return p.failShard(shard)
}

func (p *Pool) failShard(shard int) error {
	if err := p.checkShard("Kill", shard); err != nil {
		return err
	}
	for {
		st := p.state[shard].Load()
		if st == shardFailed {
			return fmt.Errorf("pool: Kill shard %d: %w", shard, ErrShardFailed)
		}
		if p.state[shard].CompareAndSwap(st, shardFailed) {
			break
		}
	}
	p.devices[shard].Fail()
	p.notifyFailure(shard)
	return nil
}

// notifyFailure wakes the supervisor, if one is running. The channel holds
// one slot per shard and a shard cannot fail twice without recovering, so
// the send never drops.
func (p *Pool) notifyFailure(shard int) {
	if p.failures == nil {
		return
	}
	select {
	case p.failures <- shard:
	default:
	}
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
// service. Recovering a shard that has not failed is an error.
func (p *Pool) Recover(shard int) (RecoveryStats, error) {
	if err := p.checkShard("Recover", shard); err != nil {
		return RecoveryStats{}, err
	}
	if p.state[shard].Load() != shardFailed {
		return RecoveryStats{}, fmt.Errorf("pool: Recover shard %d: shard has not failed", shard)
	}
	start := time.Now()
	entries, rebuilt, err := p.devices[shard].Recover()
	if err != nil {
		return RecoveryStats{}, fmt.Errorf("pool: Recover shard %d: %w", shard, err)
	}
	p.state[shard].Store(shardHealthy)
	return RecoveryStats{
		Shard:        shard,
		Entries:      entries,
		RebuiltBytes: rebuilt,
		Elapsed:      time.Since(start),
	}, nil
}

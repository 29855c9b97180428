package pool

import (
	"errors"
	"fmt"

	"buddy/internal/core"
)

// site is where a handle lives: its shard and its target ratio.
type site struct {
	shard  int
	target core.TargetRatio
}

func (h *Handle) site() site { return site{h.Shard(), h.Target()} }

// move is a planned change of a handle's site, from the one its planner saw.
type move struct {
	h        *Handle
	from, to site
}

// apply makes m under the handle's ctl, as a call in flight on the
// destination (Close waits for it). After Close it refuses. A handle no
// longer at m.from — moved, retargeted or freed since — is a skip: not
// applied, no error. A shard change refuses an unhealthy destination. Once
// the one core call commits, the quota is Swap'd to the new target's (so
// the books hold whatever a direct core Retarget left) and later submits
// queue on the new shard, while ones queued on the old shard run there.
func (p *Pool) apply(m move) (moved int64, applied bool, err error) {
	h := m.h
	h.ctl.Lock()
	defer h.ctl.Unlock()
	dst := p.scheds[m.to.shard]
	w := dst.enter()
	defer dst.exit()
	if w&closedBit != 0 {
		return 0, false, ErrClosed
	}
	if h.site() != m.from {
		return 0, false, nil
	}
	if m.to.shard != m.from.shard {
		if err := refusal(w, shardHealthy); err != nil {
			return 0, false, err
		}
	}
	if moved, err = h.a.MoveTo(p.devices[m.to.shard], m.to.target); err != nil {
		if errors.Is(err, core.ErrFreed) {
			err = nil
		}
		return 0, false, err
	}
	q := quotaFor(h.a.Size(), m.to.target)
	h.tn.stored.Add(q - h.quota.Swap(q))
	h.shard.Store(int32(m.to.shard))
	return moved, true, nil
}

// MigrateHandle live-migrates h's allocation to dstShard at its current
// target while other goroutines read and write it; it blocks until the move
// commits (or is handed back), and migrating to the current shard is a
// no-op. A move another control call overtook is planned again. Foreign
// handles, draining and failed destinations and a closed pool are refused;
// a full destination fails with core.ErrOutOfMemory before anything moves,
// a closed handle with core.ErrFreed. Migrating *off* a failed shard works:
// the streams survive in the carve-out mirror.
func (p *Pool) MigrateHandle(h *Handle, dstShard int) error {
	if h == nil || h.pool != p {
		return errors.New("pool: MigrateHandle on a handle from another pool")
	}
	if dstShard < 0 || dstShard >= len(p.devices) {
		return fmt.Errorf("pool: MigrateHandle to shard %d of %d", dstShard, len(p.devices))
	}
	for {
		from := h.site()
		_, applied, err := p.apply(move{h, from, site{dstShard, from.target}})
		if err == nil && !applied && h.a.Freed() {
			err = core.ErrFreed
		}
		if err != nil {
			return fmt.Errorf("pool: migrate %q shard %d->%d: %w", h.a.Name, from.shard, dstShard, err)
		}
		if applied {
			return nil
		}
	}
}

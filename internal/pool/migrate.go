package pool

import (
	"errors"
	"fmt"
)

// Cross-shard live migration: MigrateHandle moves a whole allocation from
// one shard's device to another while the pool keeps serving it. The move
// itself is core's — Allocation.MoveTo, the same relayout a Retarget is:
// the destination layout is reserved up front (a clean ErrOutOfMemory before
// anything moves), entries change devices one at a time under the entry
// lock every reader and writer takes, so each is served by exactly one
// device at any instant and no update is lost, and a destination that dies
// mid-move gets what it took handed back. A codec-matched move hands the
// framed streams over untouched, zero decode round-trips; both devices
// account it in Traffic.MigrationBytes, equal on source and destination
// whether the move commits or is handed back. What the pool adds is the
// shard state machine around it and the handle's shard, flipped once the
// move has committed.

// MigrateHandle live-migrates h's allocation to dstShard. It blocks until
// the move commits (or is handed back) and is safe to call while other
// goroutines read and write the handle; migrating to the handle's current
// shard is a no-op. Handles from another pool, draining and failed
// destinations, and a closed pool are refused; a full destination fails with
// core.ErrOutOfMemory before anything moves. Migrating *off* a failed shard
// works — the framed streams survive in the carve-out mirror — which is
// what drain-style evacuation of a dead tier relies on.
func (p *Pool) MigrateHandle(h *Handle, dstShard int) error {
	if h == nil || h.pool != p {
		return errors.New("pool: MigrateHandle on a handle from another pool")
	}
	if dstShard < 0 || dstShard >= len(p.devices) {
		return fmt.Errorf("pool: MigrateHandle to shard %d of %d", dstShard, len(p.devices))
	}
	h.ctl.Lock()
	defer h.ctl.Unlock()
	// The move is a call in flight on its destination: Close waits for it.
	dst := p.scheds[dstShard]
	w := dst.enter()
	defer dst.exit()
	srcShard := h.Shard()
	if srcShard == dstShard && w&closedBit == 0 {
		return nil
	}
	if err := refusal(w, shardHealthy); err != nil {
		return fmt.Errorf("pool: migrate %q to shard %d: %w", h.a.Name, dstShard, err)
	}
	if err := h.a.MoveTo(p.devices[dstShard]); err != nil {
		return fmt.Errorf("pool: migrate %q shard %d->%d: %w", h.a.Name, srcShard, dstShard, err)
	}
	// Cutover: later submits queue on, and charge the clock of, the new
	// shard. Operations already queued on the old one still run there; their
	// I/O follows the allocation, as all I/O does.
	h.shard.Store(int32(dstShard))
	return nil
}

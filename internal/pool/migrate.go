package pool

import (
	"errors"
	"fmt"

	"buddy/internal/core"
)

// Cross-shard live migration: MigrateHandle moves a whole allocation's
// framed compressed entries from one shard's device to another while the
// pool keeps serving it. Because entries live as framed streams, a
// codec-matched move is a pure stream handoff over the modeled interconnect
// — core's TransferEntries, zero decode round-trips — and both devices
// account the move in Traffic.MigrationBytes (equal on source and
// destination, whether the move commits or rolls back). Devices with
// different codecs fall back to a decode/re-encode copy per chunk.
//
// Concurrency: the destination layout is reserved up front (clean
// ErrOutOfMemory rollback before anything moves), then a migration epoch is
// installed in the handle's route. The mover advances an entry watermark,
// a whole chunk at a time, only while holding the handle's route lock
// exclusively; every concurrent ReadAt/WriteAt/Submit holds it shared and
// splits at the watermark, so each entry is served by exactly one device at
// any instant and no update is ever lost. An error mid-move (destination
// killed, say) migrates the moved prefix back and leaves the handle where
// it started.

// migrateChunkEntries is the mover's lock window: entries transferred per
// exclusive acquisition of the handle's route lock. Small enough that
// concurrent I/O only ever waits for a bounded chunk, large enough to
// amortize the lock churn.
const migrateChunkEntries = 64

// MigrateHandle live-migrates h's allocation to dstShard. It blocks until
// the move commits (or rolls back) and is safe to call while other
// goroutines read and write the handle; migrating to the handle's current
// shard is a no-op. Draining and failed destinations are refused; a full
// destination fails with core.ErrOutOfMemory before anything moves.
// Migrating *off* a failed shard works — the framed streams survive in the
// carve-out mirror — which is what drain-style evacuation of a dead tier
// relies on.
func (h *Handle) migrateTo(dstShard int) error {
	p := h.pool
	h.ctl.Lock()
	defer h.ctl.Unlock()

	h.mu.RLock()
	src := h.rt.a
	srcShard := h.rt.shard
	h.mu.RUnlock()
	if srcShard == dstShard {
		return nil
	}
	switch p.state[dstShard].Load() {
	case shardDraining:
		return fmt.Errorf("pool: migrate %q to shard %d: %w", h.name, dstShard, ErrShardDraining)
	case shardFailed:
		return fmt.Errorf("pool: migrate %q to shard %d: %w", h.name, dstShard, ErrShardFailed)
	}

	srcDev, dstDev := p.devices[srcShard], p.devices[dstShard]
	// Reserve the destination layout up front: an out-of-memory destination
	// fails here, before any entry moves, so rollback is a plain Free.
	dst, err := dstDev.Malloc(h.name, h.size, src.Target())
	if err != nil {
		return fmt.Errorf("pool: migrate %q shard %d->%d: reserve destination: %w",
			h.name, srcShard, dstShard, err)
	}

	// Install the migration epoch; from here every I/O splits at the
	// watermark.
	h.mu.Lock()
	h.rt.mig = &handleMigration{dstShard: dstShard, dst: dst}
	h.mu.Unlock()

	sameCodec := srcDev.SameCodecAs(dstDev)
	if err := h.migrateEntries(src, dst, sameCodec); err != nil {
		rbErr := h.rollbackMigration(src, dst, sameCodec)
		if closeErr := dst.Close(); closeErr != nil && rbErr == nil {
			rbErr = closeErr
		}
		return errors.Join(err, rbErr)
	}

	// Cutover: the handle now routes everything to the destination, and the
	// source layout is released. Concurrent I/O between the last chunk and
	// this commit already went to the destination — the watermark covered
	// every entry.
	h.mu.Lock()
	h.rt = handleRoute{shard: dstShard, a: dst}
	h.mu.Unlock()
	return src.Close()
}

// MigrateHandle live-migrates h's allocation to dstShard; see Handle's
// migrateTo for the full contract. Handles from another pool are refused.
func (p *Pool) MigrateHandle(h *Handle, dstShard int) error {
	if h == nil || h.pool != p {
		return errors.New("pool: MigrateHandle on a handle from another pool")
	}
	if dstShard < 0 || dstShard >= len(p.devices) {
		return fmt.Errorf("pool: MigrateHandle to shard %d of %d", dstShard, len(p.devices))
	}
	return h.migrateTo(dstShard)
}

// moveChunk transfers entries [lo, hi) between allocations and returns how
// many leading entries moved: a framed-stream handoff (core's
// TransferEntries, no decode, all or nothing per chunk) when buf is nil,
// decode/re-encode through buf — one entry's bytes per entry of the chunk —
// when the codecs differ. A transcode that fails part-way counts as
// nothing moved: the watermark stays put, so the chunk keeps being served
// from where it was.
func moveChunk(from, to *core.Allocation, lo, hi int, buf []byte) (int, error) {
	if buf == nil {
		return from.TransferEntries(to, lo, hi)
	}
	buf = buf[:(hi-lo)*core.EntryBytes]
	if err := from.ReadEntries(lo, buf); err != nil {
		return 0, err
	}
	if err := to.WriteEntries(lo, buf); err != nil {
		return 0, err
	}
	return hi - lo, nil
}

// transcodeBuf returns moveChunk's buffer: nil for a codec-matched move.
func transcodeBuf(sameCodec bool) []byte {
	if sameCodec {
		return nil
	}
	return make([]byte, migrateChunkEntries*core.EntryBytes)
}

// migrateEntries runs the mover: one chunk of migrateChunkEntries per
// exclusive acquisition of the route lock, the watermark advanced by what
// the chunk moved.
func (h *Handle) migrateEntries(src, dst *core.Allocation, sameCodec bool) error {
	n := src.EntryCount
	buf := transcodeBuf(sameCodec)
	for base := 0; base < n; base += migrateChunkEntries {
		end := min(base+migrateChunkEntries, n)
		h.mu.Lock()
		moved, err := moveChunk(src, dst, base, end, buf)
		h.rt.mig.moved = base + moved
		h.mu.Unlock()
		if err != nil {
			return fmt.Errorf("pool: migrate %q entries [%d,%d): %w", h.name, base+moved, end, err)
		}
	}
	return nil
}

// rollbackMigration undoes a partial move: entries [0, moved) are copied
// back from the destination — which holds their freshest contents, since
// post-watermark writes landed there — a chunk at a time, and the epoch is
// cleared, restoring the pre-migration route. Best effort: a chunk that
// cannot be copied back (e.g. a mismatched-codec rollback off a killed
// destination) is reported and the source keeps its pre-move copy of those
// entries.
func (h *Handle) rollbackMigration(src, dst *core.Allocation, sameCodec bool) error {
	buf := transcodeBuf(sameCodec)
	var errs []error
	for {
		h.mu.Lock()
		m := h.rt.mig
		if m.moved == 0 {
			h.rt.mig = nil
			h.mu.Unlock()
			return errors.Join(errs...)
		}
		base := max(0, m.moved-migrateChunkEntries)
		if _, err := moveChunk(dst, src, base, m.moved, buf); err != nil && len(errs) < 8 {
			errs = append(errs, fmt.Errorf("pool: rollback %q entries [%d,%d): %w", h.name, base, m.moved, err))
		}
		m.moved = base
		h.mu.Unlock()
	}
}

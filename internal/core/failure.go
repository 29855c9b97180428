package core

import (
	"errors"
	"fmt"
)

// Device-tier failure and rebuild-from-buddy recovery — the core half of the
// pool's self-healing machinery. The failure model kills the *device* tier:
// Fail marks the primary slab dead, and every data-path operation (entry
// reads and writes, batch spans, Malloc) fails with ErrDeviceFailed until
// Recover rebuilds it. The buddy carve-out and the interconnect survive —
// they are separate memory on the far side of the link — so Recover
// re-streams every live entry's compressed bytes from the carve-out copy
// back into the device slab: one buddy-tier read of the stored stream plus
// one device-tier write of the in-budget sectors per entry.
//
// Modeling note: the paper's design writes an entry's overflow sectors to
// the carve-out on every store, and this model additionally treats the
// carve-out as holding a recoverable copy of the in-budget sectors (a
// write-through mirror), so a device-tier failure loses no data — the cost
// of recovery is the link traffic of streaming the whole compressed
// footprint back. That is what the rebuild accounts: the full stored bytes
// cross the link, the device-resident sectors are re-stored.

// ErrDeviceFailed is returned (wrapped) by every operation on a device
// whose primary tier has been killed with Fail and not yet rebuilt with
// Recover.
var ErrDeviceFailed = errors.New("core: device failed")

func (d *Device) errFailed() error {
	return fmt.Errorf("core: device tier down, Recover to rebuild: %w", ErrDeviceFailed)
}

// Fail kills the device's primary tier: every subsequent Malloc, entry
// operation and batch span fails with an error wrapping ErrDeviceFailed
// until Recover is called. In-flight operations that already passed the
// check complete normally (their entries were stored before the failure).
// Allocations, reservations and the carve-out tier stay intact — only the
// data path is down.
func (d *Device) Fail() { d.failed.Store(true) }

// Recover rebuilds a failed device tier from the buddy carve-out: every
// written entry of every allocation living on the device is streamed back
// over the link (buddy-tier read of the stored bytes) and re-stored in the
// device slab (device-tier write of the in-budget sectors), in parallel on
// the span pool. It returns the entries rebuilt and the compressed bytes
// that crossed the link, then reopens the data path. Recovering a device
// that has not failed, or that is being recovered already, is an error.
func (d *Device) Recover() (entries int, rebuilt int64, err error) {
	if !d.failed.Load() || !d.rebuilding.CompareAndSwap(false, true) {
		return 0, 0, fmt.Errorf("core: Recover on a device that has not failed")
	}
	defer d.rebuilding.Store(false)
	for _, a := range d.Allocations() {
		n, b := a.rebuildOn(d)
		entries += n
		rebuilt += b
	}
	d.failed.Store(false)
	return entries, rebuilt, nil
}

// rebuildOn is a's share of d's Recover. Holding ctl keeps Close and
// relayouts off a while it is rebuilt, and waits out a MoveTo that was in
// flight when the tier died: whichever way that ended, a is rebuilt here
// only if it lives here now. The data path is still down (failed clears
// last), so no entry changes underneath the spans: a relocRebuild pass
// re-streams each from the carve-out copy into the rebuilt device tier.
func (a *Allocation) rebuildOn(d *Device) (entries int, rebuilt int64) {
	a.ctl.Lock()
	defer a.ctl.Unlock()
	if a.Freed() || a.Device() != d {
		return 0, 0
	}
	// The pass's only error is ErrFreed, and Close waits on ctl.
	_, entries, rebuilt, _ = a.spanPass(relocRebuild, 0, a.EntryCount, nil)
	return entries, rebuilt
}

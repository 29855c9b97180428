// Package core implements Buddy Compression itself (§3): fixed-sector-count
// compressed allocations split between device memory and an NVLink-attached
// buddy carve-out, per-entry 4-bit metadata with a sliced metadata cache,
// GBBR-offset buddy addressing, and the profiling pass that chooses
// per-allocation target compression ratios under a Buddy Threshold with the
// mostly-zero (16x) special case.
package core

import "fmt"

// TargetRatio is an allocation's annotated target compression ratio (§3.2):
// how many 32 B sectors of each 128 B memory-entry live in device memory.
// The allowed ratios keep sector interleaving simple: 1x, 1.33x, 2x and 4x
// (4, 3, 2, 1 device sectors), plus the 16x mostly-zero mode that keeps only
// 8 B per entry (§3.4).
type TargetRatio uint8

// Target ratios in increasing aggressiveness.
const (
	Target1x TargetRatio = iota
	Target4by3x
	Target2x
	Target4x
	Target16x
)

// AllRatios lists the target ratios from least to most aggressive.
var AllRatios = []TargetRatio{Target1x, Target4by3x, Target2x, Target4x, Target16x}

// DeviceSectors returns how many 32 B sectors per entry stay in device
// memory (0 for the 16x zero-page mode, which keeps 8 B).
func (t TargetRatio) DeviceSectors() int {
	switch t {
	case Target1x:
		return 4
	case Target4by3x:
		return 3
	case Target2x:
		return 2
	case Target4x:
		return 1
	default:
		return 0
	}
}

// DeviceBytes returns the per-entry device memory reservation.
func (t TargetRatio) DeviceBytes() int {
	if t == Target16x {
		return 8
	}
	return t.DeviceSectors() * 32
}

// BuddySlotBytes returns the per-entry buddy carve-out reservation: the
// sectors that spill when an entry does not compress to target. The 16x mode
// must be able to source a whole uncompressed entry from buddy.
func (t TargetRatio) BuddySlotBytes() int {
	if t == Target16x {
		return 128
	}
	return 128 - t.DeviceBytes()
}

// Value returns the nominal compression ratio.
func (t TargetRatio) Value() float64 {
	switch t {
	case Target1x:
		return 1
	case Target4by3x:
		return 4.0 / 3.0
	case Target2x:
		return 2
	case Target4x:
		return 4
	default:
		return 16
	}
}

// Fits reports whether an entry compressed to the given sector count
// (0..4, 0 = zero-page class) sources entirely from device memory.
func (t TargetRatio) Fits(sectors int) bool {
	if t == Target16x {
		return sectors == 0
	}
	return sectors <= t.DeviceSectors()
}

// OverflowSectors returns how many sectors of an entry with the given
// compressed sector count must be sourced from buddy memory.
func (t TargetRatio) OverflowSectors(sectors int) int {
	if t.Fits(sectors) {
		return 0
	}
	if t == Target16x {
		// The 8 B device word cannot hold a sector; the whole compressed
		// entry comes from the buddy slot.
		return sectors
	}
	return sectors - t.DeviceSectors()
}

// String implements fmt.Stringer.
func (t TargetRatio) String() string {
	switch t {
	case Target1x:
		return "1x"
	case Target4by3x:
		return "1.33x"
	case Target2x:
		return "2x"
	case Target4x:
		return "4x"
	case Target16x:
		return "16x"
	default:
		return fmt.Sprintf("TargetRatio(%d)", uint8(t))
	}
}

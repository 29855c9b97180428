package core

import "buddy/internal/dram"

// The modeled-time cost model: the one place bytes become core cycles.
// Everything that reports modeled time — a pool shard's virtual clock, a
// shard's service cycles, link occupancy, an experiment's GB/s — prices the
// bytes the walker charged (relocTally.flush, the one place anything is
// charged) with Cycles, so a modeled number is a statement about ledgers, never
// an estimate beside them. gpusim is a different model (queues and latencies
// per request) and takes its rates from dram and nvlink itself.

// Cost is what an operation's passes charged the ledgers: a delta of
// Traffic.DeviceReadBytes+DeviceWriteBytes (metadata fills included) and of
// BuddyReadBytes and BuddyWriteBytes, summed over the devices it touched.
type Cost struct {
	DeviceBytes         uint64
	LinkRead, LinkWrite uint64
}

func (c *Cost) add(o Cost) {
	c.DeviceBytes += o.DeviceBytes
	c.LinkRead += o.LinkRead
	c.LinkWrite += o.LinkWrite
}

// coreClockHz and hbmBytesPerCycle are Tab. 2's memory system: the core clock
// cycles are counted in, and the aggregate HBM2 rate device bytes move at.
var coreClockHz, hbmBytesPerCycle = func() (float64, float64) {
	c := dram.DefaultConfig()
	return c.CoreClockGHz * 1e9, c.BandwidthGBs / c.CoreClockGHz
}()

// Cycles prices c on d: its device bytes at the HBM2 rate plus the busier
// direction of d's link — full duplex, and the GPU never waits on it for a
// write-back, so a direction's time is its bytes over its rate. A device whose
// overflow tier is not a buddy carve-out has no modeled link (its rate is
// infinite): the host tier's cost is its pager's faults.
func (d *Device) Cycles(c Cost) float64 {
	return float64(c.DeviceBytes)/hbmBytesPerCycle + float64(max(c.LinkRead, c.LinkWrite))/d.linkBytesPerCycle
}

// ThroughputGBs is payload bytes over cycles of modeled time at the Tab. 2
// core clock, in GB/s; 0 when no time passed.
func ThroughputGBs(payload int64, cycles float64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(payload) / (cycles / coreClockHz) / 1e9
}

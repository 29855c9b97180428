// Package dram models the GPU's HBM2 device memory as a set of
// bandwidth-limited channels (Tab. 2: 32 channels at 875 MHz, 900 GB/s
// aggregate). Each channel is a FIFO service queue: requests occupy the
// channel for bytes/bandwidth cycles and complete after an additional fixed
// access latency. Timestamps are in GPU core cycles.
package dram

// Config describes an HBM2 stack. DefaultConfig is the one the simulator
// models; the record also prices modeled time in internal/core.
type Config struct {
	// Channels is the number of independent DRAM channels.
	Channels int
	// BandwidthGBs is the aggregate bandwidth across channels in GB/s.
	BandwidthGBs float64
	// CoreClockGHz converts wall time into core cycles.
	CoreClockGHz float64
	// LatencyCycles is the fixed access latency in core cycles (row
	// activation + CAS + interconnect), excluding queueing.
	LatencyCycles float64
}

// DefaultConfig returns Tab. 2's memory system: 32 HBM2 channels, 900 GB/s,
// against a 1.3 GHz core clock.
func DefaultConfig() Config {
	return Config{Channels: 32, BandwidthGBs: 900, CoreClockGHz: 1.3, LatencyCycles: 350}
}

// HBM2 is the channel-queue model. It is not safe for concurrent use; the
// simulator is single-threaded by design (deterministic).
type HBM2 struct {
	cfg           Config
	bytesPerCycle float64 // per channel
	busyUntil     []float64
}

// New constructs the channel model of DefaultConfig's HBM2 stack.
func New() *HBM2 {
	cfg := DefaultConfig()
	return &HBM2{
		cfg:           cfg,
		bytesPerCycle: cfg.BandwidthGBs / cfg.CoreClockGHz / float64(cfg.Channels),
		busyUntil:     make([]float64, cfg.Channels),
	}
}

// Channel maps a byte address onto a channel; consecutive 256 B blocks
// interleave across channels, the usual GPU address hash.
func (h *HBM2) Channel(addr uint64) int {
	return int((addr >> 8) % uint64(len(h.busyUntil)))
}

// Request enqueues a transfer of the given bytes on addr's channel at time
// now and returns the completion time. Queueing delay emerges from channel
// occupancy.
func (h *HBM2) Request(now float64, addr uint64, bytes int) float64 {
	ch := h.Channel(addr)
	start := now
	if h.busyUntil[ch] > start {
		start = h.busyUntil[ch]
	}
	xfer := float64(bytes) / h.bytesPerCycle
	h.busyUntil[ch] = start + xfer
	return start + xfer + h.cfg.LatencyCycles
}

// Drain enqueues bandwidth consumption without a latency-critical consumer
// (write-backs): it occupies the channel but the caller does not wait.
func (h *HBM2) Drain(now float64, addr uint64, bytes int) {
	ch := h.Channel(addr)
	start := now
	if h.busyUntil[ch] > start {
		start = h.busyUntil[ch]
	}
	xfer := float64(bytes) / h.bytesPerCycle
	h.busyUntil[ch] = start + xfer
}

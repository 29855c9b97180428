// Package nvlink models the GPU's high-bandwidth interconnect to the buddy
// memory (NVLink2 in the paper: six bricks, 150 GB/s per direction,
// full-duplex; §2.3). Each direction is an independent bandwidth queue, so
// reads from buddy memory and write-backs to it do not contend — the
// full-duplex property Fig. 11's sweeps rely on.
package nvlink

// Direction selects a link direction.
type Direction int

// Link directions: reads flow from buddy memory to the GPU, writes the
// other way.
const (
	Read Direction = iota
	Write
)

// Config describes the interconnect.
type Config struct {
	// BandwidthGBs is the per-direction (full-duplex) bandwidth. The paper
	// sweeps 50-200 GB/s; NVLink2 is 150.
	BandwidthGBs float64
	// CoreClockGHz converts to core cycles.
	CoreClockGHz float64
	// LatencyCycles is the one-way access latency in core cycles; remote
	// memory over NVLink sits in the ~500 ns range.
	LatencyCycles float64
}

// DefaultConfig returns the NVLink2 point: 150 GB/s full-duplex.
func DefaultConfig() Config {
	return Config{BandwidthGBs: 150, CoreClockGHz: 1.3, LatencyCycles: 700}
}

// Link is the two-direction queue model.
type Link struct {
	cfg           Config
	bytesPerCycle float64
	busyUntil     [2]float64
}

// New constructs a link. The rate fields default individually to the
// NVLink2 point when zero, so a partially specified config (e.g. only the
// bandwidth of a Fig. 11 sweep) still yields a finite-rate link. A zero
// LatencyCycles is honored: zero latency is a meaningful model point.
func New(cfg Config) *Link {
	def := DefaultConfig()
	if cfg.BandwidthGBs <= 0 {
		cfg.BandwidthGBs = def.BandwidthGBs
	}
	if cfg.CoreClockGHz <= 0 {
		cfg.CoreClockGHz = def.CoreClockGHz
	}
	return &Link{cfg: cfg, bytesPerCycle: cfg.BandwidthGBs / cfg.CoreClockGHz}
}

// BytesPerCycle returns the per-direction rate, New's defaults applied.
func (l *Link) BytesPerCycle() float64 { return l.bytesPerCycle }

// Request enqueues a transfer and returns its completion time.
func (l *Link) Request(now float64, dir Direction, bytes int) float64 {
	start := now
	if l.busyUntil[dir] > start {
		start = l.busyUntil[dir]
	}
	xfer := float64(bytes) / l.bytesPerCycle
	l.busyUntil[dir] = start + xfer
	return start + xfer + l.cfg.LatencyCycles
}

// Drain consumes bandwidth without a waiting consumer (asynchronous
// write-backs to buddy memory).
func (l *Link) Drain(now float64, dir Direction, bytes int) {
	start := now
	if l.busyUntil[dir] > start {
		start = l.busyUntil[dir]
	}
	xfer := float64(bytes) / l.bytesPerCycle
	l.busyUntil[dir] = start + xfer
}

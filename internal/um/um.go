// Package um models Unified Memory oversubscription, the paper's software
// baseline (§4.3, Fig. 12). The paper measures real Power9+V100 hardware;
// we simulate the first-order mechanics instead: demand paging with an LRU
// page pool in device memory, driver-handled fault batches with a fixed
// service cost, page migration over the interconnect, and the alternative
// "pinned" mode where every access crosses the link (the dotted lines of
// Fig. 12). The headline behaviours the model must reproduce: runtime grows
// super-linearly with forced oversubscription (up to ~64x at 40%), and the
// migration heuristics often do worse than simply pinning all data in host
// memory for irregular workloads.
package um

import (
	"buddy/internal/trace"
)

// The Fig. 12 testbed: a Power9 host and a V100 on three NVLink2 bricks.
const (
	// PageBytes is the migration granularity (UM migrates at 64 KB-2 MB
	// chunks; 64 KB is the common small-page size on Pascal/Volta).
	PageBytes = 64 << 10
	// faultBatchCycles is the driver cost of servicing a fault batch:
	// fault delivery, host interrupt, page-table update (~30 us at
	// 1.3 GHz). Driver-based handling is "remote and non-distributed"
	// (§3.3) and very expensive.
	faultBatchCycles = 40000
	// linkBytesPerCycle is the interconnect rate: 3 NVLink2 bricks =
	// 75 GB/s full-duplex against a 1.3 GHz core clock.
	linkBytesPerCycle = 75 / 1.3
	// migrationCycles is one page's transfer over the link.
	migrationCycles = PageBytes / linkBytesPerCycle
	// accesses is the number of simulated warp accesses per run.
	accesses = 300000
	// warps is the number of concurrent access streams.
	warps = 64
)

// Result reports one oversubscription point.
type Result struct {
	// Oversubscription is the forced fraction of the footprint that does
	// not fit device memory.
	Oversubscription float64
	// RelativeRuntime is runtime normalized to the fully resident run.
	RelativeRuntime float64
	// Faults is the number of page-fault migrations.
	Faults uint64
	// MigratedBytes is the total migration traffic.
	MigratedBytes uint64
}

// simple CLOCK-style approximation of LRU: good enough for fault counting
// and far faster than a linked list at these sizes.
type clockPool struct {
	cap      int
	resident map[uint64]bool
	order    []uint64
	hand     int
}

func newClockPool(capacity int) *clockPool {
	if capacity < 1 {
		capacity = 1
	}
	return &clockPool{cap: capacity, resident: make(map[uint64]bool, capacity)}
}

// touch returns true if page was resident; otherwise it evicts (FIFO/CLOCK)
// and inserts the page, returning false.
func (p *clockPool) touch(page uint64) bool {
	if p.resident[page] {
		return true
	}
	if len(p.order) >= p.cap {
		victim := p.order[p.hand]
		delete(p.resident, victim)
		p.order[p.hand] = page
		p.hand = (p.hand + 1) % p.cap
	} else {
		p.order = append(p.order, page)
	}
	p.resident[page] = true
	return false
}

// baselineCycles is the modeled runtime of the fully resident run: device
// bandwidth is not the bottleneck in this comparison, so the baseline is
// simply proportional to the access count with a nominal per-access cost.
const baselineCostPerAccess = 4.0

// RunOversubscription simulates spec under forced oversubscription
// (0.0-0.5) and returns the relative runtime (Fig. 12 solid lines).
func RunOversubscription(spec trace.Spec, footprint uint64, oversub float64) Result {
	pages := int(footprint / PageBytes)
	if pages < 4 {
		pages = 4
	}
	residentCap := int(float64(pages) * (1 - oversub))
	if residentCap < 1 {
		residentCap = 1
	}
	pool := newClockPool(residentCap)
	streams := newStreams(spec, footprint)

	res := Result{Oversubscription: oversub}
	var cycles float64
	for i := 0; i < accesses; i++ {
		a := streams[i%warps].Next()
		page := a.Addr / PageBytes
		cycles += baselineCostPerAccess
		if oversub <= 0 {
			pool.touch(page)
			continue
		}
		if !pool.touch(page) {
			// Page fault: driver service plus migration of the page in
			// (and, when the pool is full, write-back of the victim,
			// which the full-duplex link overlaps with the fill).
			res.Faults++
			res.MigratedBytes += PageBytes
			cycles += faultBatchCycles + migrationCycles
		}
	}
	base := float64(accesses) * baselineCostPerAccess
	res.RelativeRuntime = cycles / base
	return res
}

// RunPinned models the compiler flag that pins all allocations in host
// memory (Fig. 12 dotted lines): no faults, but every access crosses the
// link and pays remote latency; throughput is limited by link bandwidth.
func RunPinned(spec trace.Spec, footprint uint64) Result {
	streams := newStreams(spec, footprint)
	var busy float64 // link occupancy
	var cycles float64
	for i := 0; i < accesses; i++ {
		a := streams[i%warps].Next()
		bytes := float64(trace.SectorCount(a.SectorMask) * 32)
		busy += bytes / linkBytesPerCycle
		cycles += baselineCostPerAccess
	}
	if busy > cycles {
		cycles = busy
	}
	// Remote latency exposure: a slowdown floor versus local memory that
	// latency hiding cannot fully absorb at UM's concurrency.
	const remotePenalty = 2.5
	base := float64(accesses) * baselineCostPerAccess
	rel := cycles * remotePenalty / base
	return Result{RelativeRuntime: rel}
}

// Sweep runs Fig. 12's x-axis for one benchmark: forced oversubscription
// levels with the UM migrating mode, plus the pinned-host mode.
func Sweep(spec trace.Spec, footprint uint64) (um []Result, pinned Result) {
	for _, o := range []float64{0, 0.05, 0.10, 0.20, 0.30, 0.40} {
		um = append(um, RunOversubscription(spec, footprint, o))
	}
	return um, RunPinned(spec, footprint)
}

// newStreams opens the testbed's concurrent access streams over footprint.
func newStreams(spec trace.Spec, footprint uint64) []*trace.Stream {
	streams := make([]*trace.Stream, warps)
	for w := range streams {
		streams[w] = trace.NewStream(spec, footprint, 99, w)
	}
	return streams
}

package gpusim

import (
	"time"

	"buddy/internal/cache"
	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/dram"
	"buddy/internal/nvlink"
	"buddy/internal/trace"
)

// warpState tracks one in-order warp's progress through its trace.
type warpState struct {
	id      int
	sm      int
	stream  *trace.Stream
	readyAt float64
	opsLeft int
}

// warpQueue is a 4-ary min-heap of warps keyed by readiness time, stored as
// parallel contiguous arrays. It replaces container/heap, whose interface
// indirection dominated the fast mode's profile; the event loop executes
// hundreds of millions of pops on full-size runs.
type warpQueue struct {
	keys  []float64
	items []*warpState
}

func (q *warpQueue) push(key float64, w *warpState) {
	q.keys = append(q.keys, key)
	q.items = append(q.items, w)
	q.siftUp(len(q.keys) - 1)
}

func (q *warpQueue) len() int { return len(q.keys) }

func (q *warpQueue) top() *warpState { return q.items[0] }

// updateTop rewrites the minimum's key and restores heap order.
func (q *warpQueue) updateTop(key float64) {
	q.keys[0] = key
	q.siftDown(0)
}

// popTop removes the minimum.
func (q *warpQueue) popTop() {
	n := len(q.keys) - 1
	q.keys[0], q.items[0] = q.keys[n], q.items[n]
	q.keys, q.items = q.keys[:n], q.items[:n]
	if n > 0 {
		q.siftDown(0)
	}
}

func (q *warpQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if q.keys[parent] <= q.keys[i] {
			return
		}
		q.keys[parent], q.keys[i] = q.keys[i], q.keys[parent]
		q.items[parent], q.items[i] = q.items[i], q.items[parent]
		i = parent
	}
}

func (q *warpQueue) siftDown(i int) {
	n := len(q.keys)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.keys[c] < q.keys[min] {
				min = c
			}
		}
		if q.keys[i] <= q.keys[min] {
			return
		}
		q.keys[i], q.keys[min] = q.keys[min], q.keys[i]
		q.items[i], q.items[min] = q.items[min], q.items[i]
		i = min
	}
}

// machine bundles the shared memory system.
type machine struct {
	cfg    Config
	mode   Mode
	dm     *DataModel
	l1     []*cache.Cache      // per SM
	l2     []*cache.Cache      // per slice
	meta   *core.MetadataCache // sliced like the L2 (Buddy mode)
	mem    *dram.HBM2
	link   *nvlink.Link
	smBusy []float64 // per-SM issue-slot occupancy (1 instruction/cycle)
	result Result
}

func newMachine(cfg Config, mode Mode, dm *DataModel) *machine {
	m := &machine{cfg: cfg, mode: mode, dm: dm}
	m.l1 = make([]*cache.Cache, SMs)
	for i := range m.l1 {
		m.l1[i] = cache.New(L1Bytes, L1Ways, 128)
	}
	m.l2 = make([]*cache.Cache, L2Slices)
	for i := range m.l2 {
		m.l2[i] = cache.New(L2Bytes/L2Slices, L2Ways, 128)
	}
	if mode == ModeBuddy {
		m.meta = core.NewMetadataCache(L2Slices*cfg.MetaCacheBytesPerSlice, L2Slices, MetaCacheWays)
	}
	m.mem = dram.New()
	m.link = nvlink.New(cfg.Link)
	m.smBusy = make([]float64, SMs)
	return m
}

// issue reserves the SM's issue slots for one memory operation and its
// accompanying compute instructions (1/MemRatio instructions at one per
// cycle), returning the time the memory access actually issues. This is the
// machine's compute-throughput constraint; without it every workload
// saturates DRAM bandwidth.
func (m *machine) issue(sm int, ready, instrPerOp float64) float64 {
	start := ready
	if m.smBusy[sm] > start {
		start = m.smBusy[sm]
	}
	m.smBusy[sm] = start + instrPerOp
	return start + instrPerOp
}

func (m *machine) l2Slice(addr uint64) int {
	return int((addr >> 7) % uint64(len(m.l2)))
}

// l2SliceAccess looks up a line in its slice. The slice-local address drops
// the slice-selection bits so slice caches index all their sets (slice id
// and set index would otherwise alias on the same low line bits).
func (m *machine) l2SliceAccess(line uint64) bool {
	slice := m.l2Slice(line)
	local := (line >> 7) / uint64(len(m.l2)) << 7
	return m.l2[slice].Access(local)
}

// metaAccess models the metadata-cache lookup for the entry at addr; it
// returns the completion time of the metadata fetch (issue time on a hit).
// core.MetadataCache interleaves metadata lines across the L2Slices slices
// by their own line address — the same hashing as regular physical
// interleaving (§3.2) — so one line's 64 entries always consult the same
// slice.
func (m *machine) metaAccess(now float64, addr uint64) float64 {
	entry := addr >> 7
	if m.meta.Access(int(entry)) {
		m.result.MetaHits++
		return now
	}
	m.result.MetaMisses++
	m.result.DRAMBytes += core.MetadataLineBytes
	return m.mem.Request(now, entry*core.MetadataBitsPerEntry/8, core.MetadataLineBytes)
}

// accessBytes splits access a to an entry compressed to sectors under target
// into device bytes and buddy-link bytes. An incompressible entry stays raw:
// it is fetched sector by sector with no decompression, the requested
// sectors past the target's device budget from its fixed buddy slot. A
// compressed entry moves whole and fills the full 128 B line (over-fetch for
// fine-grained accesses, fewer packets for streaming ones, §4.2), priced by
// core's §3.3 table: at least one device sector, overflow from buddy.
func accessBytes(a trace.Access, sectors int, target core.TargetRatio) (dev, spill int) {
	if sectors < compress.SectorsPerEntry {
		return target.Price(sectors)
	}
	req := trace.SectorCount(a.SectorMask)
	devSec := min(req, target.DeviceSectors())
	return devSec * compress.SectorBytes, (req - devSec) * compress.SectorBytes
}

// load returns the completion time of a warp load issued at time now.
func (m *machine) load(now float64, sm int, a trace.Access, host bool) float64 {
	reqBytes := trace.SectorCount(a.SectorMask) * 32
	if host {
		// Native host-memory access (FF_HPGMG): over the link in every
		// mode, including the ideal baseline.
		m.result.LinkReadBytes += uint64(reqBytes)
		return m.link.Request(now, nvlink.Read, reqBytes)
	}
	line := a.Addr &^ 127
	if m.l1[sm].Access(line) {
		m.result.L1Hits++
		return now + l1LatencyCycles
	}
	afterL2 := now + l2LatencyCycles
	if m.l2SliceAccess(line) {
		m.result.L2Hits++
		return afterL2
	}
	if m.mode == ModeIdeal {
		m.result.DRAMBytes += uint64(reqBytes)
		return m.mem.Request(afterL2, line, reqBytes)
	}

	sectors, target := m.dm.Lookup(line)
	metaDone := afterL2
	if m.mode == ModeBuddy {
		metaDone = m.metaAccess(afterL2, line)
	} else {
		// Bandwidth-only compression keeps every entry's full 128 B in
		// device memory: no metadata, no buddy accesses.
		target = core.Target1x
	}
	dev, spill := accessBytes(a, sectors, target)
	done := afterL2
	if dev > 0 {
		m.result.DRAMBytes += uint64(dev)
		done = m.mem.Request(afterL2, line, dev)
	}
	// Metadata resolves in parallel with device data (§3.4); the buddy
	// access issues only once metadata is known.
	done = max(done, metaDone)
	if spill > 0 {
		m.result.BuddyAccesses++
		m.result.LinkReadBytes += uint64(spill)
		done = max(done, m.link.Request(metaDone, nvlink.Read, spill))
	}
	if sectors < compress.SectorsPerEntry {
		done += m.cfg.DecompressLatencyCycles
	}
	return done
}

// store models a write: caches are updated for recency, and write-back
// bandwidth is drained asynchronously; the warp only pays a store-buffer
// latency.
func (m *machine) store(now float64, sm int, a trace.Access, host bool) float64 {
	reqBytes := trace.SectorCount(a.SectorMask) * 32
	if host {
		m.result.LinkWriteBytes += uint64(reqBytes)
		m.link.Drain(now, nvlink.Write, reqBytes)
		return now + storeLatencyCycles
	}
	line := a.Addr &^ 127
	m.l1[sm].Access(line)
	m.l2SliceAccess(line)

	switch m.mode {
	case ModeIdeal:
		m.result.DRAMBytes += uint64(reqBytes)
		m.mem.Drain(now, line, reqBytes)
	case ModeBWOnly:
		// The whole entry is written back, raw ones included.
		sectors, _ := m.dm.Lookup(line)
		dev, _ := core.Target1x.Price(sectors)
		m.result.DRAMBytes += uint64(dev)
		m.mem.Drain(now, line, dev)
	default:
		sectors, target := m.dm.Lookup(line)
		m.metaAccess(now, line) // metadata is read-modify-written on size change
		dev, spill := accessBytes(a, sectors, target)
		m.result.DRAMBytes += uint64(dev)
		m.mem.Drain(now, line, dev)
		if spill > 0 {
			m.result.BuddyAccesses++
			m.result.LinkWriteBytes += uint64(spill)
			m.link.Drain(now, nvlink.Write, spill)
		}
	}
	return now + storeLatencyCycles
}

// activeWarps applies the kernel's occupancy to the machine's warp slots.
func activeWarps(spec trace.Spec) int {
	n := WarpsPerSM
	if spec.Occupancy > 0 && spec.Occupancy < 1 {
		n = int(float64(n) * spec.Occupancy)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Run executes the fast event-driven simulation of spec under the given
// memory mode and returns timing and traffic statistics.
func Run(spec trace.Spec, dm *DataModel, mode Mode, cfg Config) Result {
	start := time.Now()
	m := newMachine(cfg, mode, dm)
	warpsPerSM := activeWarps(spec)
	var q warpQueue
	footprint := dm.footprint
	for sm := 0; sm < SMs; sm++ {
		for w := 0; w < warpsPerSM; w++ {
			id := sm*warpsPerSM + w
			q.push(0, &warpState{
				id:      id,
				sm:      sm,
				stream:  trace.NewStream(spec, footprint, 1234, id),
				opsLeft: cfg.OpsPerWarp,
			})
		}
	}

	instrPerOp := 1.0
	if spec.MemRatio > 0 {
		instrPerOp = 1 / spec.MemRatio
	}
	var lastCycle float64
	for q.len() > 0 {
		w := q.top()
		host := w.stream.IsHostAccess()
		a := w.stream.Next()
		// The warp is ready after its dependent compute latency; the SM's
		// single issue port then serializes this op's instructions.
		depReady := w.readyAt + float64(a.ComputeCycles)
		issue := m.issue(w.sm, depReady, instrPerOp)
		var done float64
		if a.Store {
			done = m.store(issue, w.sm, a, host)
		} else {
			done = m.load(issue, w.sm, a, host)
		}
		m.result.MemAccesses++
		m.result.Instructions += uint64(instrPerOp)
		if done > lastCycle {
			lastCycle = done
		}
		w.opsLeft--
		if w.opsLeft == 0 {
			q.popTop()
		} else {
			w.readyAt = done
			q.updateTop(done)
		}
	}
	m.result.Cycles = lastCycle
	m.result.WallClockSeconds = time.Since(start).Seconds()
	return m.result
}

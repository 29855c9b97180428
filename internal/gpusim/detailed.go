package gpusim

import (
	"time"

	"buddy/internal/dram"
	"buddy/internal/trace"
)

// RunDetailed executes the cycle-stepped "detailed" simulation: every core
// cycle, each SM scans its resident warps in greedy-then-oldest order and
// issues at most one instruction. It produces the same first-order timing
// as Run but pays a per-cycle scheduling loop, standing in for the
// GPGPU-Sim-class simulator of Fig. 10's speed comparison (the paper's
// proprietary simulator is two orders of magnitude faster than GPGPU-Sim;
// our fast mode holds the same relationship to this mode).
func RunDetailed(spec trace.Spec, dm *DataModel, mode Mode, cfg Config) Result {
	start := time.Now()
	m := newMachine(cfg, mode, dm)

	type dwarp struct {
		stream  *trace.Stream
		readyAt float64
		// pending compute cycles before the next access may issue
		compute float64
		next    *trace.Access
		host    bool
		opsLeft int
		lastUse float64
	}
	warpsPerSM := activeWarps(spec)
	sms := make([][]*dwarp, SMs)
	live := 0
	for sm := 0; sm < SMs; sm++ {
		sms[sm] = make([]*dwarp, warpsPerSM)
		for w := 0; w < warpsPerSM; w++ {
			id := sm*warpsPerSM + w
			sms[sm][w] = &dwarp{
				stream:  trace.NewStream(spec, dm.footprint, 1234, id),
				opsLeft: cfg.OpsPerWarp,
			}
			live++
		}
	}
	instrPerOp := 1.0
	if spec.MemRatio > 0 {
		instrPerOp = 1 / spec.MemRatio
	}

	var cycle float64
	var lastDone float64
	for live > 0 {
		for sm := 0; sm < SMs; sm++ {
			// Greedy-then-oldest: issue from the first ready warp; the
			// slice order is the age order and we do not rotate, so the
			// most recently issuing warp keeps priority until it stalls.
			var pick *dwarp
			for _, w := range sms[sm] {
				if w.opsLeft == 0 || w.readyAt > cycle {
					continue
				}
				if pick == nil || w.lastUse > pick.lastUse {
					pick = w
				}
			}
			if pick == nil {
				continue
			}
			if pick.next == nil {
				host := pick.stream.IsHostAccess()
				a := pick.stream.Next()
				pick.next = &a
				pick.host = host
				pick.compute = float64(a.ComputeCycles)
			}
			if pick.compute > 0 {
				pick.compute--
				pick.lastUse = cycle
				continue
			}
			a := *pick.next
			// Per-thread coalescing: expand the 32 lanes' addresses and
			// re-derive the transaction's sector mask, the work a
			// GPGPU-Sim-class simulator performs for every access (and the
			// reason the detailed mode is orders of magnitude slower).
			a.SectorMask = coalesce(a, m, sm)
			var done float64
			if a.Store {
				done = m.store(cycle, sm, a, pick.host)
			} else {
				done = m.load(cycle, sm, a, pick.host)
			}
			m.result.MemAccesses++
			m.result.Instructions += uint64(instrPerOp)
			if done > lastDone {
				lastDone = done
			}
			pick.next = nil
			pick.readyAt = done
			pick.lastUse = cycle
			pick.opsLeft--
			if pick.opsLeft == 0 {
				live--
			}
		}
		cycle++
		// Fast-forward across globally idle stretches (all warps stalled):
		// this keeps the detailed mode faithful but bounded.
		if cycle > 100_000_000 {
			break
		}
	}
	if lastDone > cycle {
		cycle = lastDone
	}
	m.result.Cycles = cycle
	m.result.WallClockSeconds = time.Since(start).Seconds()
	return m.result
}

// coalesce models the warp's memory coalescing unit at thread granularity:
// each of the 32 lanes computes an address; lanes touching the same 32 B
// sector merge. The per-lane layout follows the access's own mask so the
// merged transaction matches the trace's intent, but the simulator pays the
// full per-thread cost (address generation plus an L1 tag probe per lane).
func coalesce(a trace.Access, m *machine, sm int) uint8 {
	sectors := trace.SectorCount(a.SectorMask)
	var mask uint8
	for lane := 0; lane < 32; lane++ {
		var laneAddr uint64
		if sectors >= 4 {
			laneAddr = a.Addr + uint64(lane*4) // fully coalesced 4 B loads
		} else {
			// Narrow access: lanes cluster into the requested sectors.
			laneAddr = a.Addr + uint64(lane%(8*sectors)*4)
		}
		mask |= 1 << uint(laneAddr%128/32)
		line := laneAddr &^ 127
		m.l1[sm].Probe(line)
		m.l2[m.l2Slice(line)].Probe((line >> 7) / uint64(len(m.l2)) << 7)
	}
	// Keep the original mask's population (the trace is authoritative for
	// how many sectors the access needs).
	if trace.SectorCount(mask) != sectors {
		return a.SectorMask
	}
	return mask
}

// Analytic computes the first-order roofline estimate that stands in for
// silicon in the Fig. 10 correlation study: execution time is the maximum
// of the compute-issue floor, the DRAM bandwidth floor, and the
// latency-exposure floor of a latency-hiding machine.
func Analytic(spec trace.Spec, dm *DataModel, cfg Config) float64 {
	ops := float64(SMs * activeWarps(spec) * cfg.OpsPerWarp)
	instr := ops
	if spec.MemRatio > 0 {
		instr = ops / spec.MemRatio
	}
	// Compute floor: SMs issue one instruction per cycle.
	compute := instr / SMs

	// Memory floor: expected bytes per access over aggregate bandwidth.
	sectors := float64(spec.SectorsPerAccess)
	if sectors <= 0 {
		sectors = 4
	}
	missRate := 1 - float64(spec.Locality*0.8)
	bytes := ops * missRate * sectors * 32
	hbm := dram.DefaultConfig()
	bw := hbm.BandwidthGBs / hbm.CoreClockGHz
	mem := bytes / bw

	// Latency floor: per-warp serial time with average observed latency.
	perOp := spec.ComputeIntensity + float64(missRate*hbm.LatencyCycles) +
		float64((1-missRate)*l2LatencyCycles)
	lat := float64(cfg.OpsPerWarp) * perOp

	est := compute
	if mem > est {
		est = mem
	}
	if lat > est {
		est = lat
	}
	return est
}

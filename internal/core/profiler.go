package core

import (
	"sort"

	"buddy/internal/analysis"
	"buddy/internal/compress"
	"buddy/internal/memory"
)

// ProfileOptions configure the target-ratio selection pass (§3.4).
type ProfileOptions struct {
	// Threshold is the Buddy Threshold: the maximum fraction of an
	// allocation's entries allowed to overflow to buddy memory (§3.4;
	// FinalDesign uses 30%). 0 lets no entry overflow.
	Threshold float64
	// PerAllocation selects per-allocation targets; false reproduces the
	// naive whole-program conservative target (Fig. 7 "Naive").
	PerAllocation bool
	// ZeroPage enables the aggressive 16x mostly-zero target (§3.4) for
	// allocations at least zeroPageMinFrac zero in every snapshot. The
	// whole-program ratio is always capped at maxAggregate.
	ZeroPage bool
}

const (
	// zeroPageMinFrac is the minimum fraction of zero-page-class entries,
	// in every snapshot, for 16x eligibility ("allocations that are mostly
	// zero, and remain so for the entirety of the run").
	zeroPageMinFrac = 0.90
	// maxAggregate caps the whole-device compression ratio, limited by the
	// buddy carve-out (§3.4: "still under 4x").
	maxAggregate = 4.0
)

// FinalDesign returns the paper's final configuration: per-allocation
// targets, 30% Buddy Threshold, zero-page optimization, 4x carve-out cap
// (§3.5).
func FinalDesign() ProfileOptions {
	return ProfileOptions{
		Threshold:     0.30,
		PerAllocation: true,
		ZeroPage:      true,
	}
}

// Naive returns the naive whole-program conservative configuration of
// Fig. 7's first bar.
func Naive() ProfileOptions {
	o := FinalDesign()
	o.PerAllocation = false
	o.ZeroPage = false
	return o
}

// PerAllocationOnly returns per-allocation targets without the zero-page
// optimization (Fig. 7's middle bar).
func PerAllocationOnly() ProfileOptions {
	o := FinalDesign()
	o.ZeroPage = false
	return o
}

// AllocationProfile aggregates one allocation's compressibility over the
// profiling snapshots.
type AllocationProfile struct {
	// Name of the allocation.
	Name string
	// Entries is the allocation's entry count.
	Entries int
	// Hist[s] counts entry observations (entries x snapshots) that
	// compressed to s sectors; index 0 is the zero-page class.
	Hist [5]int
	// MinZeroFrac is the minimum, across snapshots, of the fraction of
	// zero-page-class entries — the 16x eligibility statistic.
	MinZeroFrac float64
	// Target is the chosen target ratio.
	Target TargetRatio
	// OverflowFrac is the expected fraction of entries that overflow to
	// buddy memory under Target (the static buddy-access estimate, §3.4).
	OverflowFrac float64
}

// ProfileResult is the outcome of the profiling pass.
type ProfileResult struct {
	// Allocations holds per-allocation profiles in allocation order.
	Allocations []*AllocationProfile
	// CompressionRatio is the whole-program device-reservation ratio under
	// the chosen targets (Fig. 7/9 line).
	CompressionRatio float64
	// BuddyAccessFraction is the entry-weighted expected fraction of
	// accesses served partly from buddy memory (Fig. 7/9 bars).
	BuddyAccessFraction float64
	// BestAchievable is the unconstrained sector-granular compression the
	// data admits (with 8 B zero-page entries), capped by the carve-out:
	// Fig. 9's black marker.
	BestAchievable float64
}

// Targets returns the name -> ratio map for annotating allocations.
func (r *ProfileResult) Targets() map[string]TargetRatio {
	m := make(map[string]TargetRatio, len(r.Allocations))
	for _, a := range r.Allocations {
		m[a.Name] = a.Target
	}
	return m
}

// Profile runs the paper's profiling pass over a run's snapshots: it
// indexes each snapshot once (one parallel encode pass per snapshot, via
// internal/analysis), histograms per-entry compressed sector counts per
// allocation, picks the most aggressive target whose overflow stays within
// the Buddy Threshold, applies the zero-page special case, and demotes
// targets until the aggregate ratio respects the carve-out cap (§3.4, §3.5).
func Profile(snaps []*memory.Snapshot, c compress.Codec, opt ProfileOptions) *ProfileResult {
	return ProfileIndexes(analysis.BuildRun(snaps, c), opt)
}

// ProfileIndexes is Profile over pre-built snapshot indexes — the entry
// point for sweeps that reuse one index per snapshot x codec across many
// profiling configurations (Fig. 7's three design points, Fig. 9's
// threshold sweep) without re-encoding anything. An allocation is known by
// its name across snapshots: each snapshot's instance is one observation of
// the same profile.
func ProfileIndexes(idx []*analysis.Index, opt ProfileOptions) *ProfileResult {
	byName := make(map[string]*AllocationProfile)
	var profiles []*AllocationProfile
	snaps := make([]perClass, len(idx))
	for i, x := range idx {
		for _, a := range x.Allocs {
			p := byName[a.Name]
			if p == nil {
				p = &AllocationProfile{Name: a.Name, MinZeroFrac: 1}
				byName[a.Name] = p
				profiles = append(profiles, p)
			}
			p.observe(a.SectorHistogram())
		}
		snaps[i] = x.SectorHistogram()
	}
	return chooseTargets(profiles, snaps, opt)
}

// chooseTargets runs target selection over profiles whose observations are
// in, given the program-wide sector histogram of each snapshot they came
// from (the naive target and the best-achievable marker are whole-program
// statistics).
func chooseTargets(profiles []*AllocationProfile, snaps []perClass, opt ProfileOptions) *ProfileResult {
	if opt.PerAllocation {
		for _, p := range profiles {
			p.Target = chooseTarget(p, opt)
		}
	} else {
		// Naive (Fig. 7 first bar): a single, conservative whole-program
		// target derived from the program's overall compressibility — the
		// largest allowed ratio not exceeding the worst-snapshot average
		// sector-granular compression. Averages hide variance, so this
		// choice both compresses less than per-allocation targets and
		// overflows far more entries to buddy memory.
		t := naiveTarget(snaps)
		for _, p := range profiles {
			p.Target = t
		}
	}
	enforceCarveoutCap(profiles)
	for _, p := range profiles {
		p.OverflowFrac = overflowFrac(p, p.Target)
	}
	res := &ProfileResult{Allocations: profiles, BestAchievable: bestAchievable(snaps)}
	res.CompressionRatio, res.BuddyAccessFraction = programRatios(profiles)
	return res
}

// observe adds one snapshot's sector histogram of the allocation: h[s]
// entries compressed to s sectors.
func (p *AllocationProfile) observe(h perClass) {
	n := 0
	for s, c := range h {
		p.Hist[s] += c
		n += c
	}
	// Entries is the allocation's full size: take the largest instance so a
	// snapshot where it is empty (or still growing) doesn't zero its weight
	// in the aggregate ratios.
	p.Entries = max(p.Entries, n)
	// An empty instance carries no evidence about the data; it must not drag
	// MinZeroFrac to 0 and veto the 16x zero-page target.
	if n > 0 {
		p.MinZeroFrac = min(p.MinZeroFrac, float64(h[0])/float64(n))
	}
}

// overflowFrac is the fraction of profiled entries that would overflow to
// buddy memory under target t.
func overflowFrac(p *AllocationProfile, t TargetRatio) float64 {
	var total, over int
	for s, n := range p.Hist {
		total += n
		if !t.Fits(s) {
			over += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(over) / float64(total)
}

// chooseTarget picks the most aggressive ratio whose overflow stays within
// the Buddy Threshold; 16x additionally requires the allocation to be
// mostly-zero in every snapshot.
func chooseTarget(p *AllocationProfile, opt ProfileOptions) TargetRatio {
	if opt.ZeroPage && p.MinZeroFrac >= zeroPageMinFrac &&
		overflowFrac(p, Target16x) <= opt.Threshold {
		return Target16x
	}
	for _, t := range []TargetRatio{Target4x, Target2x, Target4by3x} {
		if overflowFrac(p, t) <= opt.Threshold {
			return t
		}
	}
	return Target1x
}

// naiveTarget computes the whole-program conservative ratio: the minimum
// over snapshots of the sector-quantized compression ratio (entries below
// one sector still cost a sector without the zero-page mode), rounded down
// to an allowed target.
func naiveTarget(snaps []perClass) TargetRatio {
	prog := 4.0
	for _, h := range snaps {
		var orig, comp float64
		for s, n := range h {
			sec := s
			if sec == 0 {
				sec = 1
			}
			orig += 128 * float64(n)
			comp += float64(sec*32) * float64(n)
		}
		if comp > 0 && orig/comp < prog {
			prog = orig / comp
		}
	}
	target := Target1x
	for _, t := range []TargetRatio{Target4by3x, Target2x, Target4x} {
		if t.Value() <= prog {
			target = t
		}
	}
	return target
}

// enforceCarveoutCap demotes the most aggressive targets until the aggregate
// device compression ratio is within maxAggregate (§3.4: the profiler keeps
// the overall ratio under 4x, limited by the carve-out region).
func enforceCarveoutCap(profiles []*AllocationProfile) {
	for {
		if ratio, _ := programRatios(profiles); ratio <= maxAggregate {
			return
		}
		// Demote the largest-footprint allocation at the highest ratio.
		cand := make([]*AllocationProfile, 0, len(profiles))
		for _, p := range profiles {
			if p.Target != Target1x {
				cand = append(cand, p)
			}
		}
		if len(cand) == 0 {
			return
		}
		sort.Slice(cand, func(i, j int) bool {
			if cand[i].Target != cand[j].Target {
				return cand[i].Target > cand[j].Target
			}
			return cand[i].Entries > cand[j].Entries
		})
		cand[0].Target--
	}
}

// programRatios sums profiles in order, each under its Target, into the
// whole-program device compression ratio and the entry-weighted expected
// buddy-access fraction; each is 0 when its denominator is.
func programRatios(profiles []*AllocationProfile) (ratio, buddyFrac float64) {
	var orig, dev, over, entries float64
	for _, p := range profiles {
		n := float64(p.Entries)
		orig += n * 128
		dev += n * float64(p.Target.DeviceBytes())
		over += overflowFrac(p, p.Target) * n
		entries += n
	}
	if dev > 0 {
		ratio = orig / dev
	}
	if entries > 0 {
		buddyFrac = over / entries
	}
	return ratio, buddyFrac
}

// bestAchievable computes the sector-granular compression the data itself
// admits (zero-page entries at 8 B), averaged over snapshots and capped at
// the 4x carve-out limit — the "best achievable compression ratio assuming
// no constraints are placed on the buddy-memory accesses" of Fig. 9.
func bestAchievable(snaps []perClass) float64 {
	if len(snaps) == 0 {
		return 1
	}
	var orig, comp float64
	for _, h := range snaps {
		for s, n := range h {
			orig += 128 * float64(n)
			if s == 0 {
				comp += 8 * float64(n)
			} else {
				comp += float64(s*32) * float64(n)
			}
		}
	}
	if comp == 0 {
		return maxAggregate
	}
	return min(orig/comp, maxAggregate)
}

// MeasureIndex reports, for an indexed snapshot under given targets, the
// achieved device ratio and the entry-weighted overflow fraction — used for
// the over-time studies (Fig. 8) where targets stay fixed while data changes.
func MeasureIndex(x *analysis.Index, targets map[string]TargetRatio) (ratio, buddyFrac float64) {
	var orig, dev, over, entries float64
	for _, a := range x.Allocs {
		t := targets[a.Name] // a missing name is the zero TargetRatio, 1x
		for s, n := range a.SectorHistogram() {
			if !t.Fits(s) {
				over += float64(n)
			}
		}
		n := float64(a.Entries())
		entries += n
		orig += n * 128
		dev += n * float64(t.DeviceBytes())
	}
	if dev > 0 {
		ratio = orig / dev
	}
	if entries > 0 {
		buddyFrac = over / entries
	}
	return ratio, buddyFrac
}

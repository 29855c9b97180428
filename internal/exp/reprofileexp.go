package exp

import (
	"fmt"

	"buddy/internal/analysis"
	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/workloads"
)

// ---------------------------------------------------------------------------
// Reprofile: live target-ratio migration on a drifting workload
// ---------------------------------------------------------------------------

// ReprofileBenchmark is the workload the reprofile experiment drives:
// 355.seismic's wavefields start ~92% zero and progressively fill in, so
// the snapshot-0 targets go stale faster than any other Tab. 1 benchmark.
const ReprofileBenchmark = "355.seismic"

// ReprofileStep is one checkpoint of the drifting run.
type ReprofileStep struct {
	// Snapshot indexes the checkpoint (1..9; snapshot 0 set the targets).
	Snapshot int
	// StaleBuddyFrac is the buddy-access fraction a full read pass measures
	// on the live device before the checkpoint acts, i.e. under the targets
	// still in force.
	StaleBuddyFrac float64
	// Applied reports whether the checkpoint's ReprofilePlan was judged
	// worthwhile and executed with ApplyReprofile.
	Applied bool
	// PlannedBytes and MigratedBytes are the plan's migration-cost estimate
	// and the bytes the live migration actually re-packed (0 when not
	// applied).
	PlannedBytes, MigratedBytes int64
	// BuddyFracAfter is the same read-pass measurement after the checkpoint
	// (equal to StaleBuddyFrac when nothing was applied).
	BuddyFracAfter float64
	// Ratio is the device compression ratio after the checkpoint.
	Ratio float64
}

// ReprofileResult aggregates the experiment.
type ReprofileResult struct {
	Benchmark string
	// Horizon is the amortization horizon (accesses) gating each plan.
	Horizon int64
	Steps   []ReprofileStep
}

// Reprofile runs the §3.4 periodic-target-update extension end to end on a
// live Device: profile snapshot 0, load it, then at every later snapshot
// drift the contents in place, measure the buddy-access fraction under the
// stale targets, plan a re-profile from the device's own metadata, and —
// when the plan amortizes within the device's horizon — apply it with
// ApplyReprofile while the device stays live. The before/after fractions
// and migration cost per checkpoint are the experiment's figure.
func Reprofile(scale int) (*ReprofileResult, error) {
	b, err := workloads.ByName(ReprofileBenchmark)
	if err != nil {
		return nil, err
	}
	bpc := compress.NewBPC()
	snap0 := workloads.GenerateSnapshot(b, 0, scale)
	prof := core.ProfileIndexes([]*analysis.Index{snapshotIndex(b, 0, scale, bpc)}, core.FinalDesign())
	targets := prof.Targets()

	// 2x headroom over the raw footprint: a migration holds the old and
	// new layout reserved at once.
	d := core.NewDevice(core.Config{Codec: bpc, DeviceBytes: 2 * int64(snap0.TotalBytes())})
	allocs := make(map[string]*core.Allocation, len(snap0.Allocations))
	for _, ma := range snap0.Allocations {
		a, err := d.Malloc(ma.Name, int64(len(ma.Data)), targets[ma.Name])
		if err != nil {
			return nil, fmt.Errorf("exp: reprofile load %s: %w", ma.Name, err)
		}
		if _, err := a.WriteAt(ma.Data, 0); err != nil {
			return nil, err
		}
		allocs[ma.Name] = a
	}

	res := &ReprofileResult{Benchmark: b.Name, Horizon: core.ReprofileHorizon}
	for t := 1; t < workloads.Snapshots; t++ {
		s := workloads.GenerateSnapshot(b, t, scale)
		for _, ma := range s.Allocations {
			a := allocs[ma.Name]
			if a == nil {
				continue
			}
			if _, err := a.WriteAt(ma.Data, 0); err != nil {
				return nil, err
			}
		}
		step := ReprofileStep{Snapshot: t}
		if step.StaleBuddyFrac, err = readPassBuddyFrac(d); err != nil {
			return nil, err
		}
		plan := core.PlanReprofile(d.Allocations(), core.FinalDesign())
		if len(plan.Decisions) > 0 && plan.Worthwhile(core.ReprofileHorizon) {
			st, err := d.ApplyReprofile(plan)
			if err != nil {
				return nil, err
			}
			step.Applied = st.Applied > 0
			step.PlannedBytes = plan.TotalMigrationBytes
			step.MigratedBytes = st.MigratedBytes
		}
		if step.BuddyFracAfter, err = readPassBuddyFrac(d); err != nil {
			return nil, err
		}
		step.Ratio = d.CompressionRatio()
		res.Steps = append(res.Steps, step)
	}
	return res, nil
}

// readPassBuddyFrac reads every live allocation end to end and returns the
// buddy-access fraction of that pass — the measured counterpart of the
// profiler's static overflow estimate.
func readPassBuddyFrac(d *core.Device) (float64, error) {
	d.ResetTraffic()
	for _, a := range d.Allocations() {
		buf := make([]byte, a.Size())
		if _, err := a.ReadAt(buf, 0); err != nil {
			return 0, err
		}
	}
	return d.Traffic().BuddyAccessFraction(), nil
}

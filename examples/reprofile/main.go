// Live target-ratio migration (§3.4 extension): a long-running process
// loads a drifting workload, watches its profiled targets go stale, and at
// each checkpoint plans a re-profile, gates it on the amortization horizon,
// and applies it to the running device with ApplyReprofile — then frees
// everything, returning every reserved byte. This is the
// allocate/serve/re-tune/free loop a production serving system runs, which
// the paper's allocate-once model leaves to "future work ... combined with
// checkpointing".
package main

import (
	"fmt"
	"log"

	"buddy"
)

func main() {
	bench, err := buddy.WorkloadByName("355.seismic")
	if err != nil {
		log.Fatal(err)
	}
	const scale = 4096
	snaps := buddy.GenerateRun(bench, scale)

	// Profile the first snapshot and load it under the chosen targets.
	prof := buddy.Profile(snaps[:1], buddy.NewBPC(), buddy.FinalDesign())
	targets := prof.Targets()
	dev := buddy.New(buddy.WithDeviceBytes(2 * int64(snaps[0].TotalBytes())))
	allocs, err := buddy.LoadSnapshot(dev, snaps[0], targets)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s at %.2fx with %d allocations\n",
		bench.Name, dev.CompressionRatio(), len(allocs))

	// The serving loop: the wavefields fill in over time, so the mostly-zero
	// targets chosen at startup overflow more and more accesses to buddy
	// memory. Each checkpoint measures, plans, and migrates only when the
	// plan amortizes within the horizon.
	for t := 1; t < len(snaps); t++ {
		for _, a := range allocs {
			if src := snaps[t].Find(a.Name); src != nil {
				if _, err := a.WriteAt(src.Data, 0); err != nil {
					log.Fatal(err)
				}
			}
		}
		// Re-plan from the device itself: each allocation's metadata is its
		// profile and its target the one in force, even when an earlier plan
		// was only partially applied.
		plan := buddy.PlanReprofile(dev.Allocations(), buddy.FinalDesign())
		if len(plan.Decisions) == 0 || !plan.Worthwhile(buddy.ReprofileHorizon) {
			fmt.Printf("checkpoint %d: targets still good (predicted buddy %.1f%%)\n",
				t, plan.BuddyFracBefore*100)
			continue
		}
		st, err := dev.ApplyReprofile(plan)
		if err != nil {
			log.Fatal(err)
		}
		for _, dec := range plan.Decisions {
			fmt.Printf("checkpoint %d: %-12s %s -> %s\n", t, dec.Alloc.Name, dec.Old, dec.New)
		}
		fmt.Printf("checkpoint %d: migrated %d KiB live, buddy accesses %.1f%% -> %.1f%%, ratio %.2fx\n",
			t, st.MigratedBytes>>10, plan.BuddyFracBefore*100, plan.BuddyFracAfter*100,
			dev.CompressionRatio())
	}
	fmt.Printf("total migration traffic: %d KiB\n", dev.Traffic().MigrationBytes>>10)

	// Lifecycle end: every allocation closes, every reserved byte returns.
	for _, a := range allocs {
		if err := a.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("after free-all: device %d B, buddy %d B reserved\n",
		dev.DeviceUsed(), dev.BuddyUsed())
}

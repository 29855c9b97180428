package exp

import (
	"strings"
	"testing"

	"buddy/internal/gpusim"
	"buddy/internal/workloads"
)

// perfTestConfig keeps the Tab. 2 machine with shortened traces.
func perfTestConfig() gpusim.Config { return ScaledSimConfig(0.2) }

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full performance sweep")
	}
	skipFidelitySweepUnderRace(t)
	res := Fig11(16384, perfTestConfig())
	byName := map[string]Fig11Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
		t.Logf("%-14s bwonly=%.3f buddy@50=%.3f @150=%.3f share=%.3f",
			r.Name, r.BWOnly, r.Buddy[0], r.Buddy[2], r.BuddyAccessShare)
	}
	t.Logf("gmean bwonly=%.3f buddy=%v hpc150=%.3f dl150=%.3f",
		res.GMeanBWOnly, res.GMeanBuddy, res.GMeanHPC150, res.GMeanDL150)

	// Bandwidth-only compression: overall speedup around the paper's +5.5%.
	if res.GMeanBWOnly < 1.0 || res.GMeanBWOnly > 1.16 {
		t.Errorf("bw-only gmean %.3f outside band around paper's 1.055", res.GMeanBWOnly)
	}
	// Most of the bw-only speedup comes from DL (§4.2).
	var dlBW, hpcBW float64
	var nd, nh int
	for _, r := range res.Rows {
		if r.Suite == workloads.DL {
			dlBW += r.BWOnly
			nd++
		} else {
			hpcBW += r.BWOnly
			nh++
		}
	}
	if dlBW/float64(nd) <= hpcBW/float64(nh) {
		t.Errorf("DL should gain more from bw compression (DL %.3f vs HPC %.3f)",
			dlBW/float64(nd), hpcBW/float64(nh))
	}
	// 354.cg and 360.ilbdc slow down under bw-only compression (random
	// single-sector accesses over-fetch, §4.2); FF_Lulesh gains nothing
	// (decompression latency on its critical path).
	for _, name := range []string{"354.cg", "360.ilbdc"} {
		if bw := byName[name].BWOnly; bw >= 1.0 {
			t.Errorf("%s: bw-only should slow down, got %.3f", name, bw)
		}
	}
	if bw := byName["FF_Lulesh"].BWOnly; bw > 1.02 {
		t.Errorf("FF_Lulesh: bw-only should not speed up (latency-bound), got %.3f", bw)
	}

	// Buddy at the NVLink2 point: close to the ideal GPU (§4.2: HPC within
	// 1%, DL within 2.2%).
	if res.GMeanHPC150 < 0.94 || res.GMeanHPC150 > 1.06 {
		t.Errorf("buddy@150 HPC gmean %.3f outside band around paper's 0.99", res.GMeanHPC150)
	}
	if res.GMeanDL150 < 0.90 || res.GMeanDL150 > 1.08 {
		t.Errorf("buddy@150 DL gmean %.3f outside band around paper's 0.978", res.GMeanDL150)
	}
	// Link-bandwidth sensitivity: 50 GB/s clearly worse than 150/200
	// overall; FF_HPGMG (native host traffic) craters at 50 GB/s.
	if res.GMeanBuddy[0] >= res.GMeanBuddy[2]-0.01 {
		t.Errorf("50 GB/s (%.3f) should underperform 150 GB/s (%.3f)",
			res.GMeanBuddy[0], res.GMeanBuddy[2])
	}
	if res.GMeanBuddy[0] >= res.GMeanBuddy[3] {
		t.Errorf("50 GB/s (%.3f) should underperform 200 GB/s (%.3f)",
			res.GMeanBuddy[0], res.GMeanBuddy[3])
	}
	if hp := byName["FF_HPGMG"].Buddy[0]; hp > 0.85 {
		t.Errorf("FF_HPGMG at 50 GB/s should crater (native host copies), got %.3f", hp)
	}
	// 351.palm and 355.seismic: metadata-miss slowdowns under Buddy (§4.2).
	for _, name := range []string{"351.palm", "355.seismic"} {
		if b := byName[name].Buddy[2]; b >= 1.0 {
			t.Errorf("%s: buddy@150 should dip below ideal (metadata misses), got %.3f", name, b)
		}
	}
	// DL buddy-access shares track the Fig. 7 statistics (a few percent up
	// to ~15%), far above HPC's.
	for _, r := range res.Rows {
		if r.Suite == workloads.DL {
			if r.BuddyAccessShare < 0.02 || r.BuddyAccessShare > 0.25 {
				t.Errorf("%s: buddy access share %.3f outside DL band", r.Name, r.BuddyAccessShare)
			}
		} else if r.Name != "FF_HPGMG" && r.BuddyAccessShare > 0.02 {
			t.Errorf("%s: HPC buddy share should be rare, got %.3f", r.Name, r.BuddyAccessShare)
		}
	}
}

func TestFig10Validation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator validation sweep")
	}
	skipFidelitySweepUnderRace(t)
	cfg := ScaledSimConfig(0.2)
	res := Fig10(16384, cfg)
	t.Logf("correlation(log cycles)=%.3f  fast=%.4fs detailed=%.4fs speedup=%.0fx agreement=%.2f",
		res.CorrelationLog, res.FastWallSeconds, res.DetailedWallSeconds,
		res.SpeedupVsDetailed, res.DetailedAgreement)
	// Paper: r = 0.989 against silicon (our analytic stand-in).
	if res.CorrelationLog < 0.90 {
		t.Errorf("fast-vs-reference correlation %.3f, want >= 0.90", res.CorrelationLog)
	}
	// Paper: two orders of magnitude faster than GPGPU-Sim. Our detailed
	// stand-in models far less than GPGPU-Sim (see EXPERIMENTS.md), so the
	// measured gap is smaller; require a clear multiple on the short run.
	if res.SpeedupVsDetailed < 5 {
		t.Errorf("fast mode only %.1fx faster than detailed, want >= 5x", res.SpeedupVsDetailed)
	}
	// Both modes model the same machine: cycle counts must agree broadly.
	if res.DetailedAgreement < 0.4 || res.DetailedAgreement > 2.5 {
		t.Errorf("fast/detailed cycle agreement %.2f outside [0.4, 2.5]", res.DetailedAgreement)
	}
	if len(res.Points) != 48 {
		t.Errorf("want 16 benchmarks x 3 sizes = 48 points, got %d", len(res.Points))
	}
}

func TestTab2Rendering(t *testing.T) {
	out := Tab2()
	for _, want := range []string{"HBM2", "NVLink", "metadata cache", "L2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Tab. 2 output missing %q:\n%s", want, out)
		}
	}
}

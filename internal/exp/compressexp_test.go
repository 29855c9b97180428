package exp

import (
	"bytes"
	"strings"
	"testing"

	"buddy/internal/analysis"
	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/race"
	"buddy/internal/workloads"
)

// testScale trades sample count for speed in unit tests.
const testScale = 8192

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 16 {
		t.Fatalf("Tab. 1 has 16 benchmarks, got %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Spot-check footprints against the paper.
	if got := byName["VGG16"].Footprint; got < 11<<30 || got > 12<<30 {
		t.Errorf("VGG16 footprint = %d, want ~11.08 GB", got)
	}
	if got := byName["370.bt"].Footprint; got > 2<<20 {
		t.Errorf("370.bt footprint = %d, want ~1.21 MB", got)
	}
}

func TestFig7Shape(t *testing.T) {
	skipFidelitySweepUnderRace(t)
	res := Fig7(testScale)
	// Paper's headline: naive 1.57x/8% HPC, 1.18x/32% DL;
	// final 1.9x/0.08% HPC, 1.5x/4% DL. Assert ordering and bands.
	t.Logf("naive    HPC %.2fx/%.1f%%  DL %.2fx/%.1f%%",
		res.NaiveHPC.Ratio, res.NaiveHPC.BuddyFrac*100, res.NaiveDL.Ratio, res.NaiveDL.BuddyFrac*100)
	t.Logf("perAlloc HPC %.2fx/%.1f%%  DL %.2fx/%.1f%%",
		res.PerAllocHPC.Ratio, res.PerAllocHPC.BuddyFrac*100, res.PerAllocDL.Ratio, res.PerAllocDL.BuddyFrac*100)
	t.Logf("final    HPC %.2fx/%.1f%%  DL %.2fx/%.1f%%",
		res.FinalHPC.Ratio, res.FinalHPC.BuddyFrac*100, res.FinalDL.Ratio, res.FinalDL.BuddyFrac*100)

	// Monotone improvement of compression across design points.
	if !(res.NaiveHPC.Ratio <= res.PerAllocHPC.Ratio && res.PerAllocHPC.Ratio <= res.FinalHPC.Ratio) {
		t.Error("HPC ratios should improve naive -> per-alloc -> final")
	}
	if !(res.NaiveDL.Ratio <= res.PerAllocDL.Ratio && res.PerAllocDL.Ratio <= res.FinalDL.Ratio) {
		t.Error("DL ratios should improve naive -> per-alloc -> final")
	}
	// Final bands around the paper's 1.9x HPC / 1.5x DL.
	if res.FinalHPC.Ratio < 1.6 || res.FinalHPC.Ratio > 2.4 {
		t.Errorf("final HPC ratio %.2f outside band around paper's 1.9x", res.FinalHPC.Ratio)
	}
	if res.FinalDL.Ratio < 1.3 || res.FinalDL.Ratio > 1.8 {
		t.Errorf("final DL ratio %.2f outside band around paper's 1.5x", res.FinalDL.Ratio)
	}
	// Buddy accesses: DL well above HPC; final HPC tiny.
	if res.FinalHPC.BuddyFrac > 0.01 {
		t.Errorf("final HPC buddy fraction %.4f, want < 1%%", res.FinalHPC.BuddyFrac)
	}
	if res.FinalDL.BuddyFrac < 0.01 || res.FinalDL.BuddyFrac > 0.15 {
		t.Errorf("final DL buddy fraction %.3f outside band around paper's 4%%", res.FinalDL.BuddyFrac)
	}
	// Per-allocation targets rescue 354.cg and 370.bt from 1x (§3.4).
	for _, row := range res.Rows {
		if row.Name == "354.cg" || row.Name == "370.bt" {
			if row.Naive.Ratio > 1.01 {
				t.Errorf("%s: naive should fail to compress (got %.2fx)", row.Name, row.Naive.Ratio)
			}
			if row.PerAlloc.Ratio < 1.05 {
				t.Errorf("%s: per-allocation should compress ~1.1-1.3x (got %.2fx)", row.Name, row.PerAlloc.Ratio)
			}
		}
		// Zero-page optimization must never reduce compression.
		if row.Final.Ratio+1e-9 < row.PerAlloc.Ratio {
			t.Errorf("%s: zero-page made things worse (%.2f -> %.2f)", row.Name, row.PerAlloc.Ratio, row.Final.Ratio)
		}
	}
}

func TestSparseSweepShape(t *testing.T) {
	res := SparseSweep(testScale)
	if len(res.ZeroFracs) != 3 || res.ZeroFracs[0] != 0.5 || res.ZeroFracs[2] != 0.9 {
		t.Fatalf("zero fractions = %v, want cDMA's 0.5/0.7/0.9", res.ZeroFracs)
	}
	byCodec := map[string][]float64{}
	for _, r := range res.Rows {
		byCodec[r.Codec] = r.Ratios
		if len(r.Ratios) != len(res.ZeroFracs) {
			t.Fatalf("%s: %d ratios for %d zero fractions", r.Codec, len(r.Ratios), len(res.ZeroFracs))
		}
		// More zeros can only help: every codec's ratio must be monotone
		// nondecreasing in the zero fraction, and a compression ratio is
		// never below 1 (the raw class is the ceiling).
		for i, v := range r.Ratios {
			if v < 1 {
				t.Errorf("%s at %.0f%% zeros: ratio %.2f < 1", r.Codec, res.ZeroFracs[i]*100, v)
			}
			if i > 0 && v < r.Ratios[i-1]-0.01 {
				t.Errorf("%s: ratio fell from %.2f to %.2f as zeros rose", r.Codec, r.Ratios[i-1], v)
			}
		}
	}
	// BPC exploits the zero runs: at 50% zeros the element-level scatter
	// defeats it (every entry still holds ~32 nonzero halfwords, ratio ~1)
	// while at 90% many entries go fully or nearly zero — the sweep must
	// show that cliff, which is exactly what the codecs' sparsity fast
	// paths key on.
	bpc := byCodec["bpc"]
	if bpc == nil {
		t.Fatal("bpc missing from the sweep")
	}
	if bpc[2] < 1.3*bpc[0] || bpc[2] < 1.3 {
		t.Errorf("bpc ratios %v: 90%%-zero point should clearly beat 50%%", bpc)
	}
}

func TestFig9Shape(t *testing.T) {
	skipFidelitySweepUnderRace(t)
	rows := Fig9(testScale)
	for _, row := range rows {
		// Ratio non-decreasing and buddy fraction non-decreasing in the
		// threshold; every point's ratio at most best-achievable-ish.
		for i := 1; i < len(row.Points); i++ {
			if row.Points[i].Ratio+1e-9 < row.Points[i-1].Ratio {
				t.Errorf("%s: ratio decreased with threshold (%.2f -> %.2f)",
					row.Name, row.Points[i-1].Ratio, row.Points[i].Ratio)
			}
			if row.Points[i].BuddyFrac+1e-9 < row.Points[i-1].BuddyFrac {
				t.Errorf("%s: buddy fraction decreased with threshold", row.Name)
			}
		}
		if row.Best <= 0 || row.Best > 4 {
			t.Errorf("%s: best achievable %.2f outside (0,4]", row.Name, row.Best)
		}
	}
	// FF_HPGMG's stripes defeat a 30-40% threshold: achieved ratio must sit
	// far below best achievable (§3.4: needs >80% threshold).
	for _, row := range rows {
		if row.Name != "FF_HPGMG" {
			continue
		}
		last := row.Points[len(row.Points)-1].Ratio
		if last > 0.75*row.Best {
			t.Errorf("FF_HPGMG at 40%% threshold achieves %.2f of best %.2f; paper says it needs >80%%",
				last, row.Best)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rows := Fig8(testScale)
	if len(rows) != 2 {
		t.Fatalf("Fig. 8 covers SqueezeNet and ResNet50, got %d rows", len(rows))
	}
	for _, row := range rows {
		var minR, maxR, minF, maxF = 1e9, 0.0, 1e9, 0.0
		for _, p := range row.Points {
			minR, maxR = min(minR, p.Ratio), max(maxR, p.Ratio)
			minF, maxF = min(minF, p.BuddyFrac), max(maxF, p.BuddyFrac)
		}
		// The compression ratio is constant by construction (fixed targets).
		if maxR-minR > 1e-9 {
			t.Errorf("%s: device ratio should be constant, spread %.4f", row.Name, maxR-minR)
		}
		// Paper: buddy accesses "do not change a lot over time".
		if minF <= 0 {
			t.Errorf("%s: expected nonzero buddy accesses", row.Name)
		}
		if maxF > 2.5*minF {
			t.Errorf("%s: buddy fraction unstable over iteration: %.3f..%.3f", row.Name, minF, maxF)
		}
		// Band check on the constant ratios (paper: 1.49 and 1.64).
		if row.Points[0].Ratio < 1.3 || row.Points[0].Ratio > 1.9 {
			t.Errorf("%s: ratio %.2f outside the paper's 1.49-1.64 neighbourhood", row.Name, row.Points[0].Ratio)
		}
	}
}

func TestFig5bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("address-stream sweep")
	}
	rows := Fig5b([]int{8, 64, 256})
	byName := map[string]Fig5bRow{}
	for _, r := range rows {
		byName[r.Name] = r
		for i := 1; i < len(r.HitRates); i++ {
			if r.HitRates[i]+0.02 < r.HitRates[i-1] {
				t.Errorf("%s: hit rate decreased with larger cache (%.3f -> %.3f)",
					r.Name, r.HitRates[i-1], r.HitRates[i])
			}
		}
	}
	// Streaming benchmarks approach the 63/64 prefetch ceiling even small;
	// 351.palm and 355.seismic stay visibly below it (Fig. 5b outliers).
	if hr := byName["356.sp"].HitRates[0]; hr < 0.90 {
		t.Errorf("356.sp (streaming) hit rate %.3f, want > 0.90 at 8 KB", hr)
	}
	for _, name := range []string{"351.palm", "355.seismic"} {
		small := byName[name].HitRates[0]
		if small > 0.85 {
			t.Errorf("%s hit rate %.3f at 8 KB; paper shows it suffering", name, small)
		}
	}
}

func TestFig6Homogeneity(t *testing.T) {
	maps := Fig6(testScale)
	if len(maps) != 16 {
		t.Fatalf("want 16 heat-maps, got %d", len(maps))
	}
	idx := map[string]float64{}
	for _, m := range maps {
		idx[m.Name] = m.HomogeneityIndex()
		if len(m.Rows) == 0 {
			t.Errorf("%s: empty heat-map", m.Name)
		}
	}
	// Paper: "most HPC benchmarks have large homogeneous regions ... the
	// distribution is more random in DL workloads".
	var hpcSum, dlSum float64
	var nh, nd int
	for _, b := range workloads.Table1() {
		if b.Suite == workloads.HPC {
			hpcSum += idx[b.Name]
			nh++
		} else {
			dlSum += idx[b.Name]
			nd++
		}
	}
	if hpcSum/float64(nh) <= dlSum/float64(nd) {
		t.Errorf("HPC homogeneity (%.3f) should exceed DL (%.3f)",
			hpcSum/float64(nh), dlSum/float64(nd))
	}
	// ASCII/PGM renderers must produce non-trivial output.
	art := maps[0].ASCII(40)
	if !strings.Contains(art, maps[0].Name) || len(strings.Split(art, "\n")) < 10 {
		t.Error("ASCII heat-map rendering looks broken")
	}
	if !strings.HasPrefix(maps[0].PGM(), "P2\n") {
		t.Error("PGM header missing")
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]string{"a", "long-header"}, [][]string{{"xyzzy", "1"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

// skipFidelitySweepUnderRace skips heavy single-threaded fidelity sweeps
// when the race detector is on: they add minutes of wall-clock but no
// concurrency coverage (the concurrent paths are stress-tested in core).
func skipFidelitySweepUnderRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("single-threaded fidelity sweep; skipped under -race")
	}
}

// TestLiveBuddyFractionEqualsProfile holds the server to the reproduction:
// one snapshot (the fourth) of five benchmarks, loaded into a live device at
// the targets the profiler picks and read back once in full, moves exactly the
// fraction of accesses through buddy memory that the profiling pass predicted
// and that MeasureIndex measures on the index — Fig. 7's bars and the device's
// Traffic are one number, whatever the data path does to an entry on the way.
func TestLiveBuddyFractionEqualsProfile(t *testing.T) {
	for _, c := range []struct {
		name string
		frac float64
	}{
		{"VGG16", 0.06627010354703679}, {"351.palm", 0}, {"ResNet50", 0.10197439791711868},
		{"355.seismic", 0.004311831666091756}, {"352.ep", 0.008521214273033907},
	} {
		b, err := workloads.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		snap := workloads.GenerateSnapshot(b, 3, 4096)
		x := analysis.Build(snap, compress.NewBPC())
		prof := core.ProfileIndexes([]*analysis.Index{x}, core.FinalDesign())
		targets := prof.Targets()
		d := core.NewDevice(core.Config{DeviceBytes: 2 * int64(snap.TotalBytes())})
		var loaded []*core.Allocation
		for _, ma := range snap.Allocations {
			a, err := d.Malloc(ma.Name, int64(len(ma.Data)), targets[ma.Name])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.WriteAt(ma.Data, 0); err != nil {
				t.Fatal(err)
			}
			loaded = append(loaded, a)
		}
		d.ResetTraffic()
		for k, a := range loaded {
			got := make([]byte, len(snap.Allocations[k].Data))
			if _, err := a.ReadAt(got, 0); err != nil || !bytes.Equal(got, snap.Allocations[k].Data) {
				t.Fatalf("%s/%s: read back err=%v", c.name, a.Name, err)
			}
		}
		live := d.Traffic().BuddyAccessFraction()
		if _, measured := core.MeasureIndex(x, targets); live != measured || live != prof.BuddyAccessFraction || live != c.frac {
			t.Errorf("%s: live buddy-access fraction %v, MeasureIndex %v, profile %v, pinned %v: want all four equal",
				c.name, live, measured, prof.BuddyAccessFraction, c.frac)
		}
		d.Close()
	}
}

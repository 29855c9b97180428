package workloads

import (
	"bytes"
	"testing"

	"buddy/internal/analysis"
	"buddy/internal/compress"
	"buddy/internal/memory"
	"buddy/internal/stats"
)

// testScale keeps unit tests fast; benches use DefaultScale.
const testScale = 8192

// fig3Ratio computes the paper's Fig. 3 metric for one benchmark: the mean
// optimistic BPC compression ratio over its ten snapshots.
func fig3Ratio(tb testing.TB, b Benchmark) float64 {
	tb.Helper()
	bpc := compress.NewBPC()
	var ratios []float64
	for t := 0; t < Snapshots; t++ {
		s := GenerateSnapshot(b, t, testScale)
		if err := s.Validate(); err != nil {
			tb.Fatalf("%s snapshot %d: %v", b.Name, t, err)
		}
		ratios = append(ratios, analysis.CompressionRatio(s, bpc, compress.OptimisticSizes))
	}
	return stats.Mean(ratios)
}

// TestFig3Calibration checks the synthetic workloads reproduce the paper's
// Fig. 3 aggregate compressibility: GMEAN 2.51 for HPC and 1.85 for DL
// (tolerance band, shape-level agreement).
func TestFig3Calibration(t *testing.T) {
	var hpc, dl []float64
	for _, b := range Table1() {
		r := fig3Ratio(t, b)
		t.Logf("%-14s %-4s ratio=%.2f", b.Name, b.Suite, r)
		if b.Suite == HPC {
			hpc = append(hpc, r)
		} else {
			dl = append(dl, r)
		}
	}
	gh, gd := stats.GMean(hpc), stats.GMean(dl)
	t.Logf("GMEAN_HPC=%.2f (paper 2.51)  GMEAN_DL=%.2f (paper 1.85)", gh, gd)
	if gh < 2.0 || gh > 3.1 {
		t.Errorf("HPC gmean %.2f outside tolerance of paper's 2.51", gh)
	}
	if gd < 1.5 || gd > 2.2 {
		t.Errorf("DL gmean %.2f outside tolerance of paper's 1.85", gd)
	}
	if gh <= gd {
		t.Errorf("HPC (%.2f) should compress better than DL (%.2f)", gh, gd)
	}
}

// TestSeismicAsymptote verifies 355.seismic's signature behaviour: it starts
// mostly zero (very high ratio) and asymptotes toward ~2x (§3.1).
func TestSeismicAsymptote(t *testing.T) {
	b, err := ByName("355.seismic")
	if err != nil {
		t.Fatal(err)
	}
	bpc := compress.NewBPC()
	first := analysis.CompressionRatio(GenerateSnapshot(b, 0, testScale), bpc, compress.OptimisticSizes)
	last := analysis.CompressionRatio(GenerateSnapshot(b, Snapshots-1, testScale), bpc, compress.OptimisticSizes)
	if first < 2*last {
		t.Errorf("seismic should start far more compressible: first=%.2f last=%.2f", first, last)
	}
	if last < 1.5 || last > 3.0 {
		t.Errorf("seismic final ratio %.2f should be near 2x", last)
	}
}

// TestIncompressibleBenchmarks: 354.cg and 370.bt are nearly incompressible
// (§3.4: compressed only 1.1x and 1.3x with per-allocation targets).
func TestIncompressibleBenchmarks(t *testing.T) {
	for name, hi := range map[string]float64{"354.cg": 1.45, "370.bt": 1.6} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if r := fig3Ratio(t, b); r > hi {
			t.Errorf("%s ratio %.2f should be <= %.2f (nearly incompressible)", name, r, hi)
		}
	}
}

// TestStaticRegionsStable pins the two contracts the run-level sharing
// rests on, for all sixteen benchmarks and every region: a region that is
// not Dynamic holds identical bytes in the first and the last snapshot (so
// synthesizing it once is sound) while a Dynamic one differs; and
// GenerateRun's snapshot t is bytewise GenerateSnapshot(b, t), with the
// static regions one shared allocation and the Dynamic ones distinct.
func TestStaticRegionsStable(t *testing.T) {
	for _, b := range Table1() {
		run := GenerateRun(b, testScale)
		if len(run) != Snapshots {
			t.Fatalf("%s: GenerateRun returned %d snapshots", b.Name, len(run))
		}
		var first, last *memory.Snapshot
		for ti := range run {
			s := GenerateSnapshot(b, ti, testScale)
			if ti == 0 {
				first = s
			}
			last = s
			if run[ti].Index != ti || len(run[ti].Allocations) != len(b.Regions) {
				t.Fatalf("%s: run[%d] has index %d and %d allocations", b.Name, ti, run[ti].Index, len(run[ti].Allocations))
			}
			for j, r := range b.Regions {
				got, want := run[ti].Allocations[j], s.Allocations[j]
				if got.Name != want.Name || !bytes.Equal(got.Data, want.Data) {
					t.Errorf("%s/%s: GenerateRun[%d] differs from GenerateSnapshot(%d)", b.Name, r.Name, ti, ti)
				}
				if shared := got == run[0].Allocations[j]; ti > 0 && shared == r.Dynamic {
					t.Errorf("%s/%s: Dynamic = %v but run[%d] shares run[0]'s allocation = %v", b.Name, r.Name, r.Dynamic, ti, shared)
				}
			}
		}
		for j, r := range b.Regions {
			if same := bytes.Equal(first.Allocations[j].Data, last.Allocations[j].Data); same == r.Dynamic {
				t.Errorf("%s/%s: Dynamic = %v but snapshots 0 and %d byte-equal = %v", b.Name, r.Name, r.Dynamic, Snapshots-1, same)
			}
		}
	}
}

// TestDeterminism: the same (benchmark, snapshot, scale) must synthesize
// identical bytes on every call.
func TestDeterminism(t *testing.T) {
	b, err := ByName("351.palm")
	if err != nil {
		t.Fatal(err)
	}
	s1 := GenerateSnapshot(b, 3, testScale)
	s2 := GenerateSnapshot(b, 3, testScale)
	for i := range s1.Allocations {
		if string(s1.Allocations[i].Data) != string(s2.Allocations[i].Data) {
			t.Fatalf("allocation %s not deterministic", s1.Allocations[i].Name)
		}
	}
}

// TestTable1Inventory checks the suite composition and footprints of Tab. 1.
func TestTable1Inventory(t *testing.T) {
	bs := Table1()
	if len(bs) != 16 {
		t.Fatalf("want 16 benchmarks, got %d", len(bs))
	}
	var nHPC, nDL int
	for _, b := range bs {
		if b.Footprint <= 0 {
			t.Errorf("%s: non-positive footprint", b.Name)
		}
		var fsum float64
		for _, r := range b.Regions {
			fsum += r.Frac
		}
		if fsum < 0.99 || fsum > 1.01 {
			t.Errorf("%s: region fractions sum to %.3f", b.Name, fsum)
		}
		if b.Suite == HPC {
			nHPC++
		} else {
			nDL++
		}
	}
	if nHPC != 10 || nDL != 6 {
		t.Errorf("want 10 HPC + 6 DL, got %d + %d", nHPC, nDL)
	}
	if _, err := ByName("no-such"); err == nil {
		t.Error("ByName should fail for unknown benchmark")
	}
}

// TestHPGMGStriped: FF_HPGMG must show the striped pattern — roughly half
// its struct region incompressible, half highly compressible, so its
// unconstrained ("best achievable") ratio far exceeds what a 30% Buddy
// Threshold can capture (§3.4).
func TestHPGMGStriped(t *testing.T) {
	b, err := ByName("FF_HPGMG")
	if err != nil {
		t.Fatal(err)
	}
	s := GenerateSnapshot(b, 5, testScale)
	a := s.Find("level_structs")
	if a == nil {
		t.Fatal("missing level_structs")
	}
	h := analysis.Build(&memory.Snapshot{Allocations: []*memory.Allocation{a}}, compress.NewBPC()).Allocs[0].SectorHistogram()
	n := a.Entries()
	incompressible := float64(h[4]) / float64(n)
	compressible := float64(h[0]+h[1]) / float64(n)
	if incompressible < 0.3 || incompressible > 0.7 {
		t.Errorf("striped region incompressible frac = %.2f, want ~0.5", incompressible)
	}
	if compressible < 0.3 || compressible > 0.7 {
		t.Errorf("striped region compressible frac = %.2f, want ~0.5", compressible)
	}
}

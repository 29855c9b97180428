// Benchmarks: one per table and figure of the paper's evaluation. Each
// bench regenerates its experiment end to end and reports the headline
// metric through testing.B custom metrics, so `go test -bench .` doubles as
// the reproduction harness. They run at reduced fidelity to keep the suite
// minutes-scale; cmd/buddysim runs the same code at reference fidelity.
package buddy

import (
	"io"
	"testing"

	"buddy/internal/compress"
	"buddy/internal/dltrain"
	"buddy/internal/exp"
	"buddy/internal/gen"
	"buddy/internal/gpusim"
	"buddy/internal/um"
	"buddy/internal/workloads"
)

const benchScale = 8192

// BenchmarkTable1 regenerates the benchmark inventory.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := exp.Table1(); len(rows) != 16 {
			b.Fatal("inventory broken")
		}
	}
}

// BenchmarkTable2 renders the simulator configuration.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if exp.Tab2() == "" {
			b.Fatal("empty Tab. 2")
		}
	}
}

// BenchmarkFig3 measures the optimistic compression study; reports the two
// gmeans the paper headlines (2.51 HPC / 1.85 DL).
func BenchmarkFig3(b *testing.B) {
	var res *exp.Fig3Result
	for i := 0; i < b.N; i++ {
		res = exp.Fig3(benchScale)
	}
	b.ReportMetric(res.GMeanHPC, "gmeanHPC")
	b.ReportMetric(res.GMeanDL, "gmeanDL")
}

// BenchmarkFig5b sweeps the metadata cache sizes.
func BenchmarkFig5b(b *testing.B) {
	var rows []exp.Fig5bRow
	for i := 0; i < b.N; i++ {
		rows = exp.Fig5b([]int{8, 64, 256})
	}
	b.ReportMetric(rows[0].HitRates[1], "palmHit64KB")
}

// BenchmarkFig6 builds all sixteen heat-maps.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if maps := exp.Fig6(benchScale); len(maps) != 16 {
			b.Fatal("missing heat-maps")
		}
	}
}

// BenchmarkFig7 runs the three design points; reports final-design gmeans
// (paper: 1.9x HPC / 1.5x DL).
func BenchmarkFig7(b *testing.B) {
	var res *exp.Fig7Result
	for i := 0; i < b.N; i++ {
		res = exp.Fig7(benchScale)
	}
	b.ReportMetric(res.FinalHPC.Ratio, "finalHPCx")
	b.ReportMetric(res.FinalDL.Ratio, "finalDLx")
	b.ReportMetric(res.FinalDL.BuddyFrac*100, "finalDLbuddy%")
}

// BenchmarkFig8 runs the over-time study.
func BenchmarkFig8(b *testing.B) {
	var rows []exp.Fig8Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig8(benchScale)
	}
	b.ReportMetric(rows[0].Points[0].Ratio, "squeezeNetX")
}

// BenchmarkFig9 sweeps the Buddy Threshold.
func BenchmarkFig9(b *testing.B) {
	var rows []exp.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig9(benchScale)
	}
	b.ReportMetric(rows[0].Points[2].Ratio, "palmAt30%x")
}

// BenchmarkFig10 validates the simulator (correlation + speed).
func BenchmarkFig10(b *testing.B) {
	cfg := exp.ScaledSimConfig(0.2)
	var res *exp.Fig10Result
	for i := 0; i < b.N; i++ {
		res = exp.Fig10(benchScale, cfg)
	}
	b.ReportMetric(res.CorrelationLog, "corr")
	b.ReportMetric(res.SpeedupVsDetailed, "fastVsDetailedX")
}

// BenchmarkFig11 runs the full performance sweep; reports the paper's
// headline relative-performance points.
func BenchmarkFig11(b *testing.B) {
	cfg := exp.ScaledSimConfig(0.2)
	var res *exp.Fig11Result
	for i := 0; i < b.N; i++ {
		res = exp.Fig11(benchScale*2, cfg)
	}
	b.ReportMetric(res.GMeanBWOnly, "bwOnlyX")
	b.ReportMetric(res.GMeanHPC150, "buddyHPC150X")
	b.ReportMetric(res.GMeanDL150, "buddyDL150X")
}

// BenchmarkFig12 runs the UM oversubscription sweep.
func BenchmarkFig12(b *testing.B) {
	var rows []exp.Fig12Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig12()
	}
	last := rows[0].Points[len(rows[0].Points)-1]
	b.ReportMetric(last.RelativeRuntime, "ilbdc40%X")
}

// BenchmarkFig13a sweeps footprints.
func BenchmarkFig13a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := exp.Fig13a(); len(rows) != 6 {
			b.Fatal("missing networks")
		}
	}
}

// BenchmarkFig13b sweeps throughput projections.
func BenchmarkFig13b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := exp.Fig13b(); len(rows) != 6 {
			b.Fatal("missing networks")
		}
	}
}

// BenchmarkFig13c computes the batch-scaling speedups (paper: mean ~1.14).
func BenchmarkFig13c(b *testing.B) {
	var res *exp.Fig13cResult
	for i := 0; i < b.N; i++ {
		res = exp.Fig13c()
	}
	b.ReportMetric(res.Mean, "meanSpeedupX")
}

// BenchmarkFig13d trains the convergence study (the heaviest bench).
func BenchmarkFig13d(b *testing.B) {
	cfg := exp.DefaultFig13dConfig()
	cfg.Epochs = 10
	cfg.Batches = []int{16, 64}
	for i := 0; i < b.N; i++ {
		if rows := exp.Fig13d(cfg); len(rows) != 2 {
			b.Fatal("missing curves")
		}
	}
}

// --- Component micro-benchmarks (ablations) --------------------------------

// BenchmarkCompressors compares the per-entry speed of every algorithm on a
// GPU-typical FP64 field (the §2.4 comparison, speed axis).
func BenchmarkCompressors(b *testing.B) {
	entry := make([]byte, compress.EntryBytes)
	gen.Noisy64{NoiseBits: 8, HiStep: 1}.Fill(entry, gen.NewRNG(1, 1))
	for _, c := range compress.Registry() {
		b.Run(c.Name(), func(b *testing.B) {
			sz := compress.NewSizer(c)
			b.SetBytes(compress.EntryBytes)
			for i := 0; i < b.N; i++ {
				sz.Bits(entry)
			}
		})
	}
}

// BenchmarkDeviceWrite measures the end-to-end compressed write path.
func BenchmarkDeviceWrite(b *testing.B) {
	dev := New(WithDeviceBytes(64 << 20))
	alloc, err := dev.Malloc("bench", 32<<20, Target2x)
	if err != nil {
		b.Fatal(err)
	}
	entry := make([]byte, EntryBytes)
	gen.Noisy64{NoiseBits: 8, HiStep: 1}.Fill(entry, gen.NewRNG(2, 1))
	b.SetBytes(EntryBytes)
	for i := 0; i < b.N; i++ {
		if err := alloc.WriteEntries(i%alloc.EntryCount, entry); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorFast measures the fast timing simulator's throughput in
// simulated memory operations per second.
func BenchmarkSimulatorFast(b *testing.B) {
	bench, err := workloads.ByName("356.sp")
	if err != nil {
		b.Fatal(err)
	}
	dm := gpusim.UncompressedModel(uint64(bench.Footprint / 16))
	cfg := gpusim.DefaultConfig()
	cfg.OpsPerWarp = 32
	var ops uint64
	for i := 0; i < b.N; i++ {
		r := gpusim.Run(bench.Trace, dm, gpusim.ModeIdeal, cfg)
		ops = r.MemAccesses
	}
	b.ReportMetric(float64(ops), "memops/run")
}

// BenchmarkUMOversubscription measures the paging model.
func BenchmarkUMOversubscription(b *testing.B) {
	bench, err := workloads.ByName("360.ilbdc")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		um.RunOversubscription(bench.Trace, uint64(bench.Footprint/64), 0.2)
	}
}

// BenchmarkDLModel measures the analytical case-study model.
func BenchmarkDLModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range dltrain.Networks() {
			dltrain.MaxBatch(n, dltrain.DeviceMemoryBytes)
		}
	}
}

// BenchmarkExperimentRunner exercises the text renderers end to end.
func BenchmarkExperimentRunner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.Run(io.Discard, "tab1", exp.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

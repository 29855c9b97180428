package analysis_test

import (
	"testing"

	"buddy/internal/analysis"
	"buddy/internal/compress"
	"buddy/internal/workloads"
)

// BenchmarkAnalysisBuildRun measures what a profiling run pays to index its
// ten snapshots, on one all-static HPC benchmark and one DL benchmark whose
// activations and gradients churn, at scale 8192 as GenerateRun hands them
// over (static regions pointer-shared). It lives in the external test
// package because workloads imports analysis.
func BenchmarkAnalysisBuildRun(b *testing.B) {
	for _, name := range []string{"356.sp", "ResNet50"} {
		b.Run(name, func(b *testing.B) {
			bm, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			snaps := workloads.GenerateRun(bm, 8192)
			entries := 0
			for _, s := range snaps {
				entries += s.TotalEntries()
			}
			bpc := compress.NewBPC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				analysis.BuildRun(snaps, bpc)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
		})
	}
}

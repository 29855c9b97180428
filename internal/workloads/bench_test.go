package workloads

import "testing"

// BenchmarkGenerateRun measures synthesizing a benchmark's ten snapshots at
// scale 8192: one all-static HPC benchmark (every region generated once and
// shared) and one DL benchmark whose Dynamic regions are regenerated per
// snapshot.
func BenchmarkGenerateRun(b *testing.B) {
	for _, name := range []string{"356.sp", "ResNet50"} {
		b.Run(name, func(b *testing.B) {
			bm, err := ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			entries := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				entries = 0
				for _, s := range GenerateRun(bm, 8192) {
					entries += s.TotalEntries()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
		})
	}
}

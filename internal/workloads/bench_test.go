package workloads

import (
	"testing"

	"buddy/internal/memory"
)

// BenchmarkGenerateRun measures synthesizing a benchmark's ten snapshots at
// scale 8192: one all-static HPC benchmark (every region generated once and
// shared) and one DL benchmark whose Dynamic regions are regenerated per
// snapshot. The GenerateSnapshot case is one VGG16 dump at the serving
// fleet's scale 512; under -cpu 1,2 it shows the region fan-out's scaling.
func BenchmarkGenerateRun(b *testing.B) {
	for _, name := range []string{"356.sp", "ResNet50"} {
		benchSynthesis(b, name, name, func(bm Benchmark) []*memory.Snapshot { return GenerateRun(bm, 8192) })
	}
	benchSynthesis(b, "GenerateSnapshot/VGG16", "VGG16", func(bm Benchmark) []*memory.Snapshot {
		return []*memory.Snapshot{GenerateSnapshot(bm, 0, 512)}
	})
}

// benchSynthesis runs synth on benchmark name as sub-benchmark label and
// reports ns per synthesized entry.
func benchSynthesis(b *testing.B, label, name string, synth func(Benchmark) []*memory.Snapshot) {
	b.Run(label, func(b *testing.B) {
		bm, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		entries := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			entries = 0
			for _, s := range synth(bm) {
				entries += s.TotalBytes() / memory.EntryBytes
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
	})
}

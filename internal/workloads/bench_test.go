package workloads

import (
	"runtime"
	"testing"

	"buddy/internal/memory"
)

// BenchmarkGenerateRun measures synthesizing a benchmark's ten snapshots at
// scale 8192: one all-static HPC benchmark (every region generated once and
// shared) and one DL benchmark whose Dynamic regions are regenerated per
// snapshot. The GenerateSnapshot×10 case asks for the same ten ResNet50
// dumps one call at a time, holding each, as the profile harness does: the
// fill table shares the static regions the first dump drew. The
// GenerateSnapshot case is one VGG16 dump at the serving fleet's scale
// 512; under -cpu 1,2 it shows the region fan-out's scaling.
func BenchmarkGenerateRun(b *testing.B) {
	for _, name := range []string{"356.sp", "ResNet50"} {
		benchSynthesis(b, name, name, func(bm Benchmark) []*memory.Snapshot { return GenerateRun(bm, 8192) })
	}
	benchSynthesis(b, "GenerateSnapshot×10/ResNet50", "ResNet50", func(bm Benchmark) []*memory.Snapshot {
		snaps := make([]*memory.Snapshot, Snapshots)
		for t := range snaps {
			snaps[t] = GenerateSnapshot(bm, t, 8192)
		}
		return snaps
	})
	benchSynthesis(b, "GenerateSnapshot/VGG16", "VGG16", func(bm Benchmark) []*memory.Snapshot {
		return []*memory.Snapshot{GenerateSnapshot(bm, 0, 512)}
	})
}

// benchSynthesis runs synth on benchmark name as sub-benchmark label and
// reports ns per synthesized entry. Every iteration is a cold synthesis:
// the collector runs, untimed, before it, so no iteration shares the fills
// of the one before.
func benchSynthesis(b *testing.B, label, name string, synth func(Benchmark) []*memory.Snapshot) {
	b.Run(label, func(b *testing.B) {
		bm, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		entries := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
			entries = 0
			for _, s := range synth(bm) {
				entries += s.TotalBytes() / memory.EntryBytes
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
	})
}

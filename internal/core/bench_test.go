package core

import (
	"runtime"
	"testing"

	"buddy/internal/gen"
)

// Data-path benchmarks for the acceptance criteria of the single-pass
// refactor: BenchmarkWriteEntry must show the double-encode gone (≥2x
// entries/s over the pre-refactor baseline) at 0 B/op steady state, and the
// bulk benchmarks ride the parallel batch primitives — run with
// `-cpu 1,2,4,...` to see the GOMAXPROCS scaling of WriteAt/ReadAt/Memcpy.

const benchBulkBytes = 8 << 20

func benchAlloc(b *testing.B, size int64) *Allocation {
	b.Helper()
	d := NewDevice(Config{DeviceBytes: 16 * size})
	a, err := d.Malloc("bench", size, Target2x)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func benchData(n int) []byte {
	data := make([]byte, n)
	gen.Noisy64{NoiseBits: 8, HiStep: 1}.Fill(data, gen.NewRNG(2, 1))
	return data
}

// benchEntryShapes is the shape matrix of the entry-path benchmarks,
// mirroring internal/compress: the all-zero short-circuit, sparse fp16
// activations, dense random (raw fallback), a delta-friendly pattern and
// the noisy FP64 field the original single-shape benchmark used.
func benchEntryShapes() []struct {
	name string
	g    gen.Generator
} {
	return []struct {
		name string
		g    gen.Generator
	}{
		{"zeros", gen.Zeros{}},
		{"sparse90", gen.SparseFP16{ZeroFrac: 0.9}},
		{"sparse70", gen.SparseFP16{ZeroFrac: 0.7}},
		{"dense", gen.Random{}},
		{"pattern", gen.Ramp{Start: -100, Step: 3}},
		{"noisy64", gen.Noisy64{NoiseBits: 8, HiStep: 1}},
	}
}

func reportNsPerEntry(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/entry")
}

// benchEntrySize keeps the per-shape warmup (first touch of every entry's
// stream-store slot) cheap while still cycling through thousands of
// distinct entries.
const benchEntrySize = 1 << 20

// BenchmarkWriteEntry measures the steady-state compressed write path per
// entry shape: one encode per entry, pooled scratch, no allocations. The
// per-shape ns/entry is what BENCH_baseline.json pins.
func BenchmarkWriteEntry(b *testing.B) {
	for _, s := range benchEntryShapes() {
		b.Run(s.name, func(b *testing.B) {
			a := benchAlloc(b, benchEntrySize)
			entry := make([]byte, EntryBytes)
			s.g.Fill(entry, gen.NewRNG(2, 1))
			// First touch takes each entry's slot in the stream store;
			// steady state starts once every entry has been written.
			for i := 0; i < a.EntryCount; i++ {
				if err := a.WriteEntry(i, entry); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(EntryBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.WriteEntry(i%a.EntryCount, entry); err != nil {
					b.Fatal(err)
				}
			}
			reportNsPerEntry(b)
		})
	}
}

// BenchmarkReadEntry measures the steady-state decompressed read path per
// entry shape.
func BenchmarkReadEntry(b *testing.B) {
	for _, s := range benchEntryShapes() {
		b.Run(s.name, func(b *testing.B) {
			a := benchAlloc(b, benchEntrySize)
			entry := make([]byte, EntryBytes)
			s.g.Fill(entry, gen.NewRNG(2, 1))
			for i := 0; i < a.EntryCount; i++ {
				if err := a.WriteEntry(i, entry); err != nil {
					b.Fatal(err)
				}
			}
			dst := make([]byte, EntryBytes)
			b.SetBytes(EntryBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.ReadEntry(i%a.EntryCount, dst); err != nil {
					b.Fatal(err)
				}
			}
			reportNsPerEntry(b)
		})
	}
}

// BenchmarkWriteAtBulk pushes an 8 MB aligned span through WriteAt: the
// aligned interior fans out across the worker pool.
func BenchmarkWriteAtBulk(b *testing.B) {
	a := benchAlloc(b, benchBulkBytes)
	data := benchData(benchBulkBytes)
	b.SetBytes(benchBulkBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.WriteAt(data, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadAtBulk reads the same span back, decoding straight into the
// caller's buffer in parallel.
func BenchmarkReadAtBulk(b *testing.B) {
	a := benchAlloc(b, benchBulkBytes)
	data := benchData(benchBulkBytes)
	if _, err := a.WriteAt(data, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchBulkBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.ReadAt(data, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemcpyBulk copies 8 MB allocation-to-allocation through both
// compression pipelines with pooled staging.
func BenchmarkMemcpyBulk(b *testing.B) {
	d := NewDevice(Config{DeviceBytes: 256 << 20})
	src, err := d.Malloc("src", benchBulkBytes, Target2x)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := d.Malloc("dst", benchBulkBytes, Target2x)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := src.WriteAt(benchData(benchBulkBytes), 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchBulkBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Memcpy(dst, src, benchBulkBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFirstWrite measures the first touch: a fresh allocation written
// once, end to end, so every entry that needs one takes its slot from the
// stream store's allocator — the cost a load pays and the steady-state
// benchmarks warm away. Beside ns/entry it reports what the store then holds
// per entry: index, chunks, table and free lists. The device is built one span
// worker wide, so the write runs inline: which slot meets a chunk's end, and
// with it which free lists the tails start, depends on how span workers
// interleave, which would make the allocs/op pin a property of the machine's
// width.
func BenchmarkFirstWrite(b *testing.B) { benchFirstWrite(b, 1) }

// BenchmarkFirstWrite2 is the same load fanned out over two span workers, the
// store's allocator lock contended: ns/entry only, for the reason above.
func BenchmarkFirstWrite2(b *testing.B) { benchFirstWrite(b, 2) }

func benchFirstWrite(b *testing.B, workers int) {
	const entries = 16 << 10
	for _, s := range benchEntryShapes() {
		switch s.name {
		case "zeros", "pattern", "dense":
		default:
			continue
		}
		b.Run(s.name, func(b *testing.B) {
			procs := runtime.GOMAXPROCS(workers)
			d := NewDevice(Config{DeviceBytes: 64 << 20})
			runtime.GOMAXPROCS(procs)
			defer d.Close()
			data := make([]byte, entries*EntryBytes)
			s.g.Fill(data, gen.NewRNG(2, 1))
			var owned int
			b.SetBytes(int64(len(data)))
			if workers == 1 {
				b.ReportAllocs()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a, err := d.Malloc("fresh", int64(len(data)), Target2x)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := a.WriteEntries(0, data); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				owned = a.store.ownedBytes()
				if err := a.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/entry")
			b.ReportMetric(float64(owned)/entries, "store-B/entry")
		})
	}
}

// BenchmarkReadEntries reads a written span of all-zero entries back in one
// call: what a sparse tensor's read costs per entry once nothing is decoded.
func BenchmarkReadEntries(b *testing.B) {
	b.Run("zeros", func(b *testing.B) {
		a := benchAlloc(b, benchEntrySize)
		data := make([]byte, benchEntrySize)
		if err := a.WriteEntries(0, data); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(benchEntrySize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.ReadEntries(0, data); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(a.EntryCount), "ns/entry")
	})
}

package compress

import (
	"testing"

	"buddy/internal/gen"
)

// Codec micro-benchmarks over a matrix of entry shapes rather than a single
// data point: all-zero entries (the one-probe short-circuit), 90%/70%-sparse
// fp16 activations (the zero-run pre-pass the cDMA sparsity numbers
// motivate), dense random (worst case, raw fallback), a patterned ramp
// (best case for delta codecs) and the noisy FP64 field the original
// single-shape benchmark used. Steady state must report 0 B/op — the
// pooled-scratch contract the core data path relies on — and every run
// reports ns/entry, the quantity BENCH_baseline.json pins for `make
// bench-gate`.

type benchShape struct {
	name string
	g    gen.Generator
}

func benchShapes() []benchShape {
	return []benchShape{
		{"zeros", gen.Zeros{}},
		{"sparse90", gen.SparseFP16{ZeroFrac: 0.9}},
		{"sparse70", gen.SparseFP16{ZeroFrac: 0.7}},
		{"dense", gen.Random{}},
		{"pattern", gen.Ramp{Start: -100, Step: 3}},
		{"noisy64", gen.Noisy64{NoiseBits: 8, HiStep: 1}},
	}
}

func shapeEntry(b *testing.B, s benchShape) []byte {
	b.Helper()
	entry := make([]byte, EntryBytes)
	s.g.Fill(entry, gen.NewRNG(1, 1))
	return entry
}

func reportNsPerEntry(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/entry")
}

// BenchmarkAppendCompressed measures one full encode (stream + exact bits)
// per entry with a reused scratch buffer, per codec per shape.
func BenchmarkAppendCompressed(b *testing.B) {
	for _, c := range Registry() {
		for _, s := range benchShapes() {
			b.Run(c.Name()+"/"+s.name, func(b *testing.B) {
				entry := shapeEntry(b, s)
				scratch := make([]byte, 0, MaxStreamBytes)
				b.SetBytes(EntryBytes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					stream, _ := c.AppendCompressed(scratch[:0], entry)
					scratch = stream[:0]
				}
				reportNsPerEntry(b)
			})
		}
	}
}

// BenchmarkSizerBits measures the sizing pass the analysis pipeline runs:
// Sizer.Bits per codec per shape — the size-only kernel where the codec has
// one (bpc), the encode-and-discard fallback elsewhere. The bpc rows are
// pinned in BENCH_baseline.json at 0 allocs/op.
func BenchmarkSizerBits(b *testing.B) {
	for _, c := range Registry() {
		for _, s := range benchShapes() {
			b.Run(c.Name()+"/"+s.name, func(b *testing.B) {
				entry := shapeEntry(b, s)
				sz := NewSizer(c)
				b.SetBytes(EntryBytes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sizerSink = sz.Bits(entry)
				}
				reportNsPerEntry(b)
			})
		}
	}
}

var sizerSink int

// variedEntries is the entry count of the varied-stream benchmarks.
const variedEntries = 16384

// BenchmarkVariedStream measures the BPC codec over 16384 distinct
// 90%-sparse entries instead of one repeated entry: every iteration decodes
// a different code sequence, so the branch-predictor warmth that makes
// single-entry numbers flattering is gone. This is the shape the async
// serving path actually sees — it is the benchmark that motivated the
// word-level parse loop and the dense/sparse decode split — and the gate
// pins it alongside the single-entry matrix.
func BenchmarkVariedStream(b *testing.B) {
	data := make([]byte, variedEntries*EntryBytes)
	(gen.SparseFP16{ZeroFrac: 0.9}).Fill(data, gen.NewRNG(7, 1))
	benchVaried(b, data)
}

// BenchmarkVariedMix is BenchmarkVariedStream over the fleet's region
// generators instead of one sparse shape: 16384 distinct entries that cycle
// through dense low-σ and quantized DL weights, half-sparse fp16
// activations, noisy HPC fields and incompressible data. The dense weights
// are mostly raw plane pairs, the shape serve-stream's encode time goes to.
func BenchmarkVariedMix(b *testing.B) {
	benchVaried(b, variedMixData())
}

// variedMixGens are BenchmarkVariedMix's region generators.
func variedMixGens() []gen.Generator {
	return []gen.Generator{
		gen.Weights32{Sigma: 0.004, QuantBits: 8},
		gen.Weights32{Sigma: 0.02, QuantBits: 12},
		gen.SparseFP16{ZeroFrac: 0.5},
		gen.Noisy32{NoiseBits: 4, SmoothStep: 1},
		gen.Noisy64{NoiseBits: 10, HiStep: 1},
		gen.Random{},
	}
}

// variedMixData is BenchmarkVariedMix's 16384 entries, cycling through
// variedMixGens.
func variedMixData() []byte {
	gens := variedMixGens()
	data := make([]byte, variedEntries*EntryBytes)
	r := gen.NewRNG(7, 2)
	for i := 0; i < variedEntries; i++ {
		gens[i%len(gens)].Fill(data[i*EntryBytes:(i+1)*EntryBytes], r)
	}
	return data
}

// benchVaried runs the encode and decode sub-benchmarks of the BPC codec
// over the distinct entries in data, one entry per iteration in turn.
func benchVaried(b *testing.B, data []byte) {
	n := len(data) / EntryBytes
	streams := make([][]byte, n)
	c := NewBPC()
	for i := 0; i < n; i++ {
		s, _ := c.AppendCompressed(nil, data[i*EntryBytes:(i+1)*EntryBytes])
		streams[i] = s
	}
	b.Run("encode", func(b *testing.B) { benchEncode(b, data) })
	b.Run("decode", func(b *testing.B) {
		dst := make([]byte, EntryBytes)
		b.SetBytes(EntryBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.DecompressInto(dst, streams[i%n]); err != nil {
				b.Fatal(err)
			}
		}
		reportNsPerEntry(b)
	})
}

// benchEncode times the BPC codec's AppendCompressed over the distinct
// entries in data, one entry per iteration in turn, into a reused scratch
// buffer.
func benchEncode(b *testing.B, data []byte) {
	n := len(data) / EntryBytes
	c := NewBPC()
	scratch := make([]byte, 0, MaxStreamBytes)
	b.SetBytes(EntryBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := c.AppendCompressed(scratch[:0], data[(i%n)*EntryBytes:(i%n+1)*EntryBytes])
		scratch = s[:0]
	}
	reportNsPerEntry(b)
}

// BenchmarkDecompressInto measures one full decode into caller memory, per
// codec per shape.
func BenchmarkDecompressInto(b *testing.B) {
	dst := make([]byte, EntryBytes)
	for _, c := range Registry() {
		for _, s := range benchShapes() {
			b.Run(c.Name()+"/"+s.name, func(b *testing.B) {
				entry := shapeEntry(b, s)
				stream, _ := c.AppendCompressed(nil, entry)
				b.SetBytes(EntryBytes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.DecompressInto(dst, stream); err != nil {
						b.Fatal(err)
					}
				}
				reportNsPerEntry(b)
			})
		}
	}
}

// BenchmarkBPCFront measures BPC's encode pre-pass alone under each kernel
// set, over BenchmarkVariedMix's entries: the deltas, transition masks,
// aggregates, plane transpose and plane codes that bpcFront returns to the
// emitter.
func BenchmarkBPCFront(b *testing.B) {
	data := variedMixData()
	for _, k := range bpcKernels() {
		b.Run(k, func(b *testing.B) {
			if !selectKernel(b, k) {
				b.SkipNow()
			}
			var codes bpcCodes
			var sink uint64
			for i := 0; i < b.N; i++ {
				j := i % variedEntries
				p32, orE, andE, orD, total := bpcFront((*[EntryBytes]byte)(data[j*EntryBytes:]), &codes)
				sink += uint64(p32) + orE + andE + orD + uint64(total) + codes.pair[j%entryWordCount]
			}
			sizerSink = int(sink)
			reportNsPerEntry(b)
		})
	}
}

// BenchmarkBPCEncode is BenchmarkVariedMix's encode under each kernel set:
// the whole of AppendCompressed, so against BenchmarkBPCFront it attributes
// the encode between the pre-pass and the emitter, and its butterfly row is
// the encode wherever the AVX-512 kernels cannot run.
func BenchmarkBPCEncode(b *testing.B) {
	data := variedMixData()
	for _, k := range bpcKernels() {
		b.Run(k, func(b *testing.B) {
			if !selectKernel(b, k) {
				b.SkipNow()
			}
			benchEncode(b, data)
		})
	}
}

// BenchmarkBPCBack measures BPC's dense decode rebuild alone under each
// kernel set, over the DBX planes of BenchmarkVariedMix's entries: the
// suffix XOR, plane transpose and prefix sum that bpcBack writes an entry
// with.
func BenchmarkBPCBack(b *testing.B) {
	data := variedMixData()
	planes := make([][bpcPlanes]uint32, variedEntries)
	bases := make([]uint32, variedEntries)
	for j := range planes {
		var dbp [bpcPlanes + 1]uint32
		bases[j], dbp = refBPCPlanesOf(data[j*EntryBytes : (j+1)*EntryBytes])
		for p := range planes[j] {
			planes[j][p] = dbp[p] ^ dbp[p+1]
		}
	}
	for _, k := range bpcKernels() {
		b.Run(k, func(b *testing.B) {
			if !selectKernel(b, k) {
				b.SkipNow()
			}
			var dst [EntryBytes]byte
			for i := 0; i < b.N; i++ {
				j := i % variedEntries
				bpcBack(&planes[j], bases[j], &dst)
			}
			reportNsPerEntry(b)
		})
	}
}

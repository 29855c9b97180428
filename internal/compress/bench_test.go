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

// BenchmarkVariedStream measures the BPC codec over 16384 distinct
// 90%-sparse entries instead of one repeated entry: every iteration decodes
// a different code sequence, so the branch-predictor warmth that makes
// single-entry numbers flattering is gone. This is the shape the async
// serving path actually sees — it is the benchmark that motivated the
// word-level parse loop and the dense/sparse decode split — and the gate
// pins it alongside the single-entry matrix.
func BenchmarkVariedStream(b *testing.B) {
	const n = 16384
	data := make([]byte, n*EntryBytes)
	(gen.SparseFP16{ZeroFrac: 0.9}).Fill(data, gen.NewRNG(7, 1))
	streams := make([][]byte, n)
	c := NewBPC()
	for i := 0; i < n; i++ {
		s, _ := c.AppendCompressed(nil, data[i*EntryBytes:(i+1)*EntryBytes])
		streams[i] = s
	}
	b.Run("encode", func(b *testing.B) {
		scratch := make([]byte, 0, MaxStreamBytes)
		b.SetBytes(EntryBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, _ := c.AppendCompressed(scratch[:0], data[(i%n)*EntryBytes:(i%n+1)*EntryBytes])
			scratch = s[:0]
		}
		reportNsPerEntry(b)
	})
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

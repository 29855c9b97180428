package gen

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"buddy/internal/race"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42, 7), NewRNG(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("RNG diverged at draw %d", i)
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	a, b := NewRNG(42, 1), NewRNG(42, 3)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("streams should differ: %d collisions", same)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(1, 1)
	var buckets [16]int
	const n = 160000
	for i := 0; i < n; i++ {
		buckets[r.Intn(16)]++
	}
	for i, c := range buckets {
		if c < n/16*9/10 || c > n/16*11/10 {
			t.Errorf("bucket %d count %d deviates >10%% from uniform", i, c)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(2, 1)
	f := func(uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(3, 1)
	var sum, sumSq float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %.4f, want ~0", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Errorf("normal variance %.4f, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(4, 1)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p[:10])
		}
		seen[v] = true
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	gens := []Generator{
		Zeros{}, Ramp{Start: 5, Step: 3}, Noisy32{NoiseBits: 8},
		Noisy64{NoiseBits: 8, HiStep: 1}, Random{},
		Sparse32{Density: 0.4, Sigma: 1}, Weights32{Sigma: 0.1},
		SparseFP16{ZeroFrac: 0.7},
		Stripe{A: Zeros{}, B: Random{}, PeriodEntries: 4, AEntries: 2},
		Blend{A: Zeros{}, B: Random{}, PA: 0.5},
	}
	for _, g := range gens {
		a := make([]byte, 1024)
		b := make([]byte, 1024)
		g.Fill(a, NewRNG(9, 2))
		g.Fill(b, NewRNG(9, 2))
		if string(a) != string(b) {
			t.Errorf("%s: nondeterministic output", g.Name())
		}
	}
}

func TestZerosAndRandom(t *testing.T) {
	buf := make([]byte, 512)
	Random{}.Fill(buf, NewRNG(1, 1))
	Zeros{}.Fill(buf, NewRNG(1, 1))
	for _, v := range buf {
		if v != 0 {
			t.Fatal("Zeros left non-zero bytes")
		}
	}
	Random{}.Fill(buf, NewRNG(1, 1))
	nonzero := 0
	for _, v := range buf {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 400 {
		t.Errorf("Random output suspiciously sparse: %d non-zero of 512", nonzero)
	}
}

func TestSparseDensity(t *testing.T) {
	buf := make([]byte, 128*1000)
	Sparse32{Density: 0.3, Sigma: 1}.Fill(buf, NewRNG(6, 1))
	nonzeroWords := 0
	for i := 0; i+4 <= len(buf); i += 4 {
		if buf[i] != 0 || buf[i+1] != 0 || buf[i+2] != 0 || buf[i+3] != 0 {
			nonzeroWords++
		}
	}
	frac := float64(nonzeroWords) / float64(len(buf)/4)
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("density %.3f, want ~0.30", frac)
	}
}

func TestSparseFP16ZeroFraction(t *testing.T) {
	for _, zf := range []float64{0.5, 0.7, 0.9} {
		buf := make([]byte, 128*1000)
		SparseFP16{ZeroFrac: zf}.Fill(buf, NewRNG(11, 1))
		zeroHalves, finite := 0, true
		for i := 0; i+2 <= len(buf); i += 2 {
			h := uint16(buf[i]) | uint16(buf[i+1])<<8
			if h == 0 {
				zeroHalves++
			} else if h&0x7C00 == 0x7C00 {
				finite = false // inf/NaN exponent
			}
		}
		frac := float64(zeroHalves) / float64(len(buf)/2)
		if frac < zf-0.03 || frac > zf+0.03 {
			t.Errorf("ZeroFrac=%.1f: measured zero fraction %.3f", zf, frac)
		}
		if !finite {
			t.Errorf("ZeroFrac=%.1f: produced non-finite fp16 values", zf)
		}
	}
}

func TestStripePeriodicity(t *testing.T) {
	buf := make([]byte, 128*8)
	Stripe{A: Zeros{}, B: Random{}, PeriodEntries: 4, AEntries: 2}.Fill(buf, NewRNG(7, 1))
	isZero := func(e int) bool {
		for _, v := range buf[e*128 : (e+1)*128] {
			if v != 0 {
				return false
			}
		}
		return true
	}
	for e := 0; e < 8; e++ {
		wantZero := e%4 < 2
		if isZero(e) != wantZero {
			t.Errorf("entry %d: zero=%v, want %v", e, isZero(e), wantZero)
		}
	}
}

func TestWeightsQuantization(t *testing.T) {
	buf := make([]byte, 128*100)
	Weights32{Sigma: 0.1, QuantBits: 12}.Fill(buf, NewRNG(8, 1))
	for i := 0; i+4 <= len(buf); i += 4 {
		w := uint32(buf[i]) | uint32(buf[i+1])<<8 | uint32(buf[i+2])<<16 | uint32(buf[i+3])<<24
		if w&0xFFF != 0 {
			t.Fatalf("word %d has non-zero low quantized bits: %#x", i/4, w)
		}
	}
}

// refUint32 is PCG-XSH-RR's step as first written, with the rotate spelled
// out, so the oracles below do not lean on pcgOut.
func refUint32(r *RNG) uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

func refFloat64(r *RNG) float64 {
	hi := uint64(refUint32(r)) << 32
	return float64((hi|uint64(refUint32(r)))>>11) / (1 << 53)
}

// polarRef is NormFloat64's scalar Marsaglia polar draw with math.Log, on
// the reference PCG step: the oracle normals must match bit for bit. The
// oracles below hold on amd64; arm64 fuses polarRef's and math.Log's
// multiply-adds, and normals rounds every product (see log01).
func polarRef(r *RNG) float64 {
	for {
		u := 2*refFloat64(r) - 1
		v := 2*refFloat64(r) - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// checkNormals compares r.normals over n values, and NormFloat64 over the
// same n, with polarRef from the same (seed, seq): every float's bits and
// the state left behind.
func checkNormals(t *testing.T, seed, seq uint64, n int) {
	t.Helper()
	ref, blk, one := NewRNG(seed, seq), NewRNG(seed, seq), NewRNG(seed, seq)
	got := make([]float64, n)
	blk.normals(got)
	for i := range got {
		want := polarRef(ref)
		if g := one.NormFloat64(); math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("seed %d seq %d: NormFloat64 #%d = %x, polarRef %x", seed, seq, i, math.Float64bits(g), math.Float64bits(want))
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("seed %d seq %d n %d: normals[%d] = %x, polarRef %x", seed, seq, n, i, math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
	if blk.state != ref.state || one.state != ref.state {
		t.Fatalf("seed %d seq %d n %d: state normals %#x NormFloat64 %#x, polarRef %#x", seed, seq, n, blk.state, one.state, ref.state)
	}
}

func TestNormalsMatchPolar(t *testing.T) {
	pairs := [][2]uint64{{0, 0}, {1, 1}, {42, 7}, {0xDEADBEEF, 3}, {^uint64(0), ^uint64(0) >> 1}}
	for _, p := range pairs {
		for _, n := range []int{0, 1, 31, 32, 33, 255, 256, 257, 100000} {
			checkNormals(t, p[0], p[1], n)
		}
	}
}

// refWeights32 is Weights32.Fill as it was before normals: one polarRef
// draw per word.
type refWeights32 Weights32

func (refWeights32) Name() string { return "refweights32" }

func (g refWeights32) Fill(dst []byte, r *RNG) {
	sigma := g.Sigma
	if sigma == 0 {
		sigma = 0.05
	}
	var mask uint32 = ^uint32(0)
	if g.QuantBits > 0 && g.QuantBits < 23 {
		mask = ^((uint32(1) << g.QuantBits) - 1)
	}
	for i := 0; i+4 <= len(dst); i += 4 {
		w := math.Float32bits(float32(polarRef(r)*sigma)) & mask
		binary.LittleEndian.PutUint32(dst[i:], w)
	}
}

// TestWeightsBlendMatchesPolar drives the workloads' DL blend shape, one
// 128 B Weights32 fill per entry interleaved with Blend's own Float64
// draws, through normals and through polarRef: same bytes, same state.
func TestWeightsBlendMatchesPolar(t *testing.T) {
	got, want := make([]byte, 4096+12), make([]byte, 4096+12)
	gr, wr := NewRNG(5, 9), NewRNG(5, 9)
	Blend{A: Weights32{Sigma: 1, QuantBits: 16}, B: Weights32{Sigma: 1}, PA: 0.5}.Fill(got, gr)
	Blend{A: refWeights32{Sigma: 1, QuantBits: 16}, B: refWeights32{Sigma: 1}, PA: 0.5}.Fill(want, wr)
	if !bytes.Equal(got, want) {
		t.Fatal("Blend of Weights32 differs from the polarRef-driven fill")
	}
	if gr.state != wr.state {
		t.Fatalf("state after the fill %#x, polarRef-driven %#x", gr.state, wr.state)
	}
	big, bigRef := make([]byte, 1<<16+6), make([]byte, 1<<16+6)
	Weights32{Sigma: 0.02, QuantBits: 12}.Fill(big, NewRNG(6, 1))
	refWeights32{Sigma: 0.02, QuantBits: 12}.Fill(bigRef, NewRNG(6, 1))
	if !bytes.Equal(big, bigRef) {
		t.Fatal("64 KiB Weights32 fill differs from the polarRef-driven fill")
	}
}

// TestLog01 holds log01 to math.Log bit for bit over accepted polar s and
// the edges of its domain and of its √2/2 reduction (amd64; see log01).
func TestLog01(t *testing.T) {
	edges := []float64{
		0x1p-104, // the smallest non-zero s: u or v one 2⁻⁵² step from 0
		math.Nextafter(math.Sqrt2/2, 0), math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 1),
		math.Sqrt2 / 4, math.Nextafter(math.Sqrt2/4, 1), 0.5, math.Nextafter(0.5, 0),
		math.Nextafter(1, 0), 0x1p-1022,
	}
	for _, x := range edges {
		if g, w := log01(x), math.Log(x); math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("log01(%x) = %x, math.Log %x", math.Float64bits(x), math.Float64bits(g), math.Float64bits(w))
		}
	}
	n := 10_000_000
	if testing.Short() || race.Enabled {
		n = 200_000 // a single-threaded sweep: -race adds time, not coverage
	}
	r := NewRNG(77, 5)
	for i := 0; i < n; {
		u, v := 2*r.Float64()-1, 2*r.Float64()-1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		if g, w := log01(s), math.Log(s); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("log01(%x) = %x, math.Log %x", math.Float64bits(s), math.Float64bits(g), math.Float64bits(w))
		}
		i++
	}
}

func FuzzNormals(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint16(0))
	f.Add(uint64(42), uint64(7), uint16(257))
	f.Add(^uint64(0), uint64(1), uint16(1000))
	f.Fuzz(func(t *testing.T, seed, seq uint64, n uint16) {
		checkNormals(t, seed, seq, int(n))
	})
}

// BenchmarkWeights32Fill reports the cost of one normal through the DL
// tensor generator: a 1 MiB region in one call, and the Blend shape the
// workloads use, one 128 B entry per call.
func BenchmarkWeights32Fill(b *testing.B) {
	for _, c := range []struct {
		name  string
		bytes int
	}{{"region1MiB", 1 << 20}, {"entry128B", EntryBytes}} {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]byte, 1<<20)
			g, r := Weights32{Sigma: 1, QuantBits: 16}, NewRNG(1, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for off := 0; off < len(dst); off += c.bytes {
					g.Fill(dst[off:off+c.bytes], r)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)/4), "ns/normal")
		})
	}
}

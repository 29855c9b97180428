package gen

import (
	"encoding/binary"
	"math"
)

// EntryBytes is the compression granularity of the paper: one 128 B
// memory-entry. Generators that reason about spatial structure (Stripe)
// operate at this granularity.
const EntryBytes = 128

// A Generator fills byte slices with a particular class of synthetic data.
// Fill must be deterministic given the RNG state and must accept any dst
// length that is a multiple of 4 bytes.
type Generator interface {
	// Name identifies the generator class in reports and heat-map legends.
	Name() string
	// Fill writes len(dst) bytes of synthetic data.
	Fill(dst []byte, r *RNG)
}

// Zeros produces all-zero data: the "mostly-zero allocations" of §3.4 that
// the final design captures with the aggressive 16x target ratio.
type Zeros struct{}

// Name implements Generator.
func (Zeros) Name() string { return "zeros" }

// Fill implements Generator.
func (Zeros) Fill(dst []byte, _ *RNG) {
	for i := range dst {
		dst[i] = 0
	}
}

// Ramp produces an int32 arithmetic sequence with a fixed stride. Deltas are
// constant, so delta-bit-plane transforms (BPC) compress it almost to
// nothing; it models index arrays and regular integer grids.
type Ramp struct {
	Start int32
	Step  int32
}

// Name implements Generator.
func (Ramp) Name() string { return "ramp" }

// Fill implements Generator.
func (g Ramp) Fill(dst []byte, r *RNG) {
	v := g.Start
	if v == 0 && g.Step == 0 {
		// A degenerate ramp is just zeros; keep it meaningful by default.
		v, _ = int32(r.Uint32()), 0
	}
	step := g.Step
	if step == 0 {
		step = 1
	}
	for i := 0; i+4 <= len(dst); i += 4 {
		binary.LittleEndian.PutUint32(dst[i:], uint32(v))
		v += step
	}
}

// Noisy32 produces 32-bit words that follow a slowly varying base sequence
// with NoiseBits of per-word randomness. It is the workhorse generator: the
// number of noise bits directly controls how many delta bit-planes are
// non-trivial, and therefore the BPC compressed size. NoiseBits=0 is nearly
// as compressible as a ramp; NoiseBits>=28 is effectively random.
type Noisy32 struct {
	NoiseBits uint // 0..32
	// SmoothStep is the per-word increment of the underlying base sequence.
	SmoothStep int32
}

// Name implements Generator.
func (Noisy32) Name() string { return "noisy32" }

// Fill implements Generator.
func (g Noisy32) Fill(dst []byte, r *RNG) {
	base := r.Uint32()
	nb := g.NoiseBits
	if nb > 32 {
		nb = 32
	}
	var mask uint32
	if nb == 32 {
		mask = ^uint32(0)
	} else {
		mask = (uint32(1) << nb) - 1
	}
	for i := 0; i+4 <= len(dst); i += 4 {
		w := base + (r.Uint32() & mask)
		binary.LittleEndian.PutUint32(dst[i:], w)
		base += uint32(g.SmoothStep)
	}
}

// Noisy64 produces 64-bit doubles whose high words follow a smooth field and
// whose mantissa low bits carry NoiseBits of randomness: the typical
// structure of an HPC FP64 stencil grid (neighbouring values share sign,
// exponent and leading mantissa bits).
type Noisy64 struct {
	NoiseBits uint // randomness in the low 32-bit word, 0..32
	HiStep    int32
}

// Name implements Generator.
func (Noisy64) Name() string { return "noisy64" }

// Fill implements Generator.
func (g Noisy64) Fill(dst []byte, r *RNG) {
	hi := r.Uint32()
	nb := g.NoiseBits
	if nb > 32 {
		nb = 32
	}
	var mask uint32
	if nb == 32 {
		mask = ^uint32(0)
	} else {
		mask = (uint32(1) << nb) - 1
	}
	for i := 0; i+8 <= len(dst); i += 8 {
		lo := r.Uint32() & mask
		binary.LittleEndian.PutUint32(dst[i:], lo)
		binary.LittleEndian.PutUint32(dst[i+4:], hi)
		hi += uint32(g.HiStep)
	}
	// Trailing 4-byte remainder (dst not a multiple of 8): fill with hi.
	if rem := len(dst) % 8; rem >= 4 {
		binary.LittleEndian.PutUint32(dst[len(dst)-rem:], hi)
	}
}

// Random produces incompressible data (uniform random bytes); it models
// hashed/encrypted/pointer-rich pools such as 354.cg's sparse matrices.
type Random struct{}

// Name implements Generator.
func (Random) Name() string { return "random" }

// Fill implements Generator.
func (Random) Fill(dst []byte, r *RNG) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		binary.LittleEndian.PutUint32(dst[i:], r.Uint32())
	}
	for ; i < len(dst); i++ {
		dst[i] = byte(r.Uint32())
	}
}

// Sparse32 produces ReLU-style activation tensors: a fraction Density of
// float32 values are non-zero draws from N(0, Sigma^2); the rest are zero.
// DL activation maps after ReLU commonly have 40-70% zeros.
type Sparse32 struct {
	Density float64 // fraction of non-zero elements, 0..1
	Sigma   float64
}

// Name implements Generator.
func (Sparse32) Name() string { return "sparse32" }

// Fill implements Generator.
func (g Sparse32) Fill(dst []byte, r *RNG) {
	sigma := g.Sigma
	if sigma == 0 {
		sigma = 1
	}
	for i := 0; i+4 <= len(dst); i += 4 {
		var w uint32
		if r.Float64() < g.Density {
			w = math.Float32bits(float32(r.NormFloat64() * sigma))
		}
		binary.LittleEndian.PutUint32(dst[i:], w)
	}
}

// SparseFP16 produces half-precision activation tensors with a configurable
// zero fraction: the cDMA observation (Rhu et al.) that DL activation
// traffic is 50-90% zeros after ReLU, stored as fp16 in modern frameworks.
// Non-zero elements are |N(0, Sigma^2)| draws encoded as IEEE 754 binary16
// bit patterns, so sign and exponent bits cluster the way real activation
// maps do while the zero fraction directly controls entry sparsity.
type SparseFP16 struct {
	// ZeroFrac is the fraction of zero elements, 0..1 (typ. 0.5/0.7/0.9).
	ZeroFrac float64
	// Sigma scales the non-zero magnitudes (default 1).
	Sigma float64
}

// Name implements Generator.
func (SparseFP16) Name() string { return "sparsefp16" }

// Fill implements Generator.
func (g SparseFP16) Fill(dst []byte, r *RNG) {
	sigma := g.Sigma
	if sigma == 0 {
		sigma = 1
	}
	for i := 0; i+2 <= len(dst); i += 2 {
		var h uint16
		if r.Float64() >= g.ZeroFrac {
			h = float16bits(float32(math.Abs(r.NormFloat64()) * sigma))
		}
		binary.LittleEndian.PutUint16(dst[i:], h)
	}
	if len(dst)%2 == 1 {
		dst[len(dst)-1] = 0
	}
}

// float16bits converts a float32 to the IEEE 754 binary16 bit pattern.
// Normal results round to nearest, ties to even; subnormal results round
// half away from zero, not to even. Values below half the smallest
// subnormal (2⁻²⁵) flush to zero and overflow clamps to infinity. The
// subnormal rounding is kept as it is because SparseFP16's bytes feed the
// sparse experiment.
func float16bits(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xFF) - 127 + 15
	mant := b & 0x7FFFFF
	switch {
	case exp >= 0x1F:
		return sign | 0x7C00 // overflow -> inf
	case exp <= 0:
		if exp < -10 {
			return sign // underflow -> zero
		}
		// Subnormal: shift in the implicit leading bit.
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		return sign | uint16((mant+half)>>shift)
	default:
		// Round mantissa 23 -> 10 bits to nearest even.
		rounded := (mant + 0xFFF + (mant>>13)&1) >> 13
		return sign | uint16(int32(rounded)+exp<<10)
	}
}

// Weights32 produces dense float32 tensors of N(0, Sigma^2) values: DL
// weights and gradients. Sign and low mantissa bits are random but the
// exponent byte clusters tightly around log2(Sigma), which is what makes
// such tensors ~1.3-1.7x compressible under BPC.
type Weights32 struct {
	Sigma float64
	// QuantBits optionally zeroes the low QuantBits mantissa bits,
	// modelling frameworks that store reduced-precision master copies.
	QuantBits uint
}

// Name implements Generator.
func (Weights32) Name() string { return "weights32" }

// Fill implements Generator. It takes its normals from r.normals a block at
// a time, the same values NormFloat64 would return one by one.
//
//buddy:hotpath
func (g Weights32) Fill(dst []byte, r *RNG) {
	sigma := g.Sigma
	if sigma == 0 {
		sigma = 0.05
	}
	var mask uint32 = ^uint32(0)
	if g.QuantBits > 0 && g.QuantBits < 23 {
		mask = ^((uint32(1) << g.QuantBits) - 1)
	}
	var buf [normBlock]float64
	for dst = dst[:len(dst)&^3]; len(dst) > 0; {
		blk := buf[:min(len(dst)/4, normBlock)]
		r.normals(blk)
		for _, v := range blk {
			binary.LittleEndian.PutUint32(dst, math.Float32bits(float32(v*sigma))&mask)
			dst = dst[4:]
		}
	}
}

// Stripe interleaves two generators at memory-entry granularity with a fixed
// period: A fills the first AEntries of every PeriodEntries entries, B fills
// the rest. FF_HPGMG's arrays of heterogeneous structs produce exactly this
// kind of striped compressibility pattern (Fig. 6).
type Stripe struct {
	A, B          Generator
	PeriodEntries int
	AEntries      int
}

// Name implements Generator.
func (g Stripe) Name() string { return "stripe(" + g.A.Name() + "," + g.B.Name() + ")" }

// Fill implements Generator.
func (g Stripe) Fill(dst []byte, r *RNG) {
	period := g.PeriodEntries
	if period <= 0 {
		period = 2
	}
	aCount := g.AEntries
	if aCount <= 0 || aCount >= period {
		aCount = period / 2
	}
	for off, e := 0, 0; off < len(dst); off, e = off+EntryBytes, e+1 {
		end := off + EntryBytes
		if end > len(dst) {
			end = len(dst)
		}
		if e%period < aCount {
			g.A.Fill(dst[off:end], r)
		} else {
			g.B.Fill(dst[off:end], r)
		}
	}
}

// Blend fills each memory-entry from generator A with probability PA and
// from B otherwise, producing the spatially mixed ("salt-and-pepper")
// compressibility the paper observes in DL workloads (Fig. 6, AlexNet /
// ResNet50).
type Blend struct {
	A, B Generator
	PA   float64
}

// Name implements Generator.
func (g Blend) Name() string { return "blend(" + g.A.Name() + "," + g.B.Name() + ")" }

// Fill implements Generator.
func (g Blend) Fill(dst []byte, r *RNG) {
	for off := 0; off < len(dst); off += EntryBytes {
		end := off + EntryBytes
		if end > len(dst) {
			end = len(dst)
		}
		if r.Float64() < g.PA {
			g.A.Fill(dst[off:end], r)
		} else {
			g.B.Fill(dst[off:end], r)
		}
	}
}

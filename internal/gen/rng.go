// Package gen synthesizes the byte-level memory contents of the paper's
// workloads. The original study takes memory dumps of real GPU applications
// (Tab. 1); those dumps are not available, so we generate data whose
// 128-byte-granularity structure reproduces the compressibility behaviour the
// paper reports (Fig. 3, Fig. 6): smooth floating-point fields for HPC grids,
// struct-of-arrays stripes for FF_HPGMG, sparse ReLU activations and noisy
// gradients for DL tensors, mostly-zero slabs, and incompressible pools.
//
// All generators are deterministic given a 64-bit seed (PCG-XSH-RR 64/32),
// so every figure in the reproduction is bit-for-bit repeatable.
//
// The DL tensors are N(0, σ²) draws from Marsaglia's polar method. Their
// hot loop, Weights32.Fill, takes its normals a block at a time from
// RNG.normals, which returns the same values NormFloat64 would, bit for
// bit, from four jump-ahead PCG chains, a branch-free accept and log01, a
// branch-free copy of math.Log's operation sequence; gen_test.go holds it
// to NormFloat64's scalar polar draw with math.Log. That identity is proven
// on amd64 only: see log01.
package gen

import (
	"math"
	"math/bits"
)

// RNG is a PCG-XSH-RR 64/32 pseudo-random generator. It is deliberately
// implemented from scratch (stdlib-only constraint). Its integer and
// uniform draws are the same on every platform; its normal draws are
// not, since arm64 fuses multiply-adds that amd64 rounds apart (see log01).
type RNG struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// NewRNG returns a generator seeded with seed on stream seq.
func NewRNG(seed, seq uint64) *RNG {
	r := &RNG{inc: seq<<1 | 1}
	r.state = r.inc + seed
	r.Uint32()
	return r
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	return pcgOut(old)
}

// pcgOut is PCG's XSH-RR output permutation of the pre-step state: an
// xorshift of the high bits, then a rotate right by the top five.
func pcgOut(old uint64) uint32 {
	return bits.RotateLeft32(uint32(((old>>18)^old)>>27), -int(old>>59))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("gen: Intn with non-positive n")
	}
	// Lemire-style rejection-free bound is overkill here; modulo bias is
	// negligible for the n (< 2^20) used by the generators.
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// normBlock is the block normals works in: each block runs pass 1, then
// pass 2, with the block's s values in a stack array.
const normBlock = 256

// pcgMult4 and pcgInc4 make four PCG steps one: state·m⁴ + inc·(m³+m²+m+1)
// is the state four steps on (LCG jump-ahead; F. Brown, "Random Number
// Generation with Arbitrary Strides", 1994).
const (
	pcgMult4 = pcgMult * pcgMult * pcgMult * pcgMult % (1 << 64)
	pcgInc4  = (pcgMult*pcgMult*pcgMult + pcgMult*pcgMult + pcgMult + 1) % (1 << 64)
)

// normals fills dst with exactly the next len(dst) values NormFloat64 would
// return and leaves r where that loop would. It works a block at a time in
// two passes. Pass 1 runs the polar attempts on four PCG chains, chain j
// holding the state j steps past an attempt's first, each stepped by the
// four-step jump, so the four draws of an attempt are independent
// multiplies; it stores every attempt's u and s and advances the write
// index by the borrow of bits(s)−1 − bits(Nextafter(1, 0)), which is 1
// exactly when 0 < s < 1. Pass 2 maps the accepted pairs through log01 and
// Sqrt with no data-dependent branch. The values equal NormFloat64's bit for
// bit on amd64; on arm64 they do not (see log01).
//
//buddy:hotpath
func (r *RNG) normals(dst []float64) {
	a4, c4 := uint64(pcgMult4), r.inc*pcgInc4
	var sb [normBlock]float64
	for len(dst) > 0 {
		blk := dst[:min(len(dst), normBlock)]
		dst = dst[len(blk):]
		s0 := r.state
		s1 := s0*pcgMult + r.inc
		s2 := s1*pcgMult + r.inc
		s3 := s2*pcgMult + r.inc
		for k := 0; k < len(blk); {
			a := uint64(pcgOut(s0))<<32 | uint64(pcgOut(s1))
			b := uint64(pcgOut(s2))<<32 | uint64(pcgOut(s3))
			s0, s1, s2, s3 = s0*a4+c4, s1*a4+c4, s2*a4+c4, s3*a4+c4
			u := float64(int64(a>>11))*0x1p-52 - 1
			v := float64(int64(b>>11))*0x1p-52 - 1
			s := float64(u*u) + float64(v*v)
			blk[k], sb[k&(normBlock-1)] = u, s
			_, acc := bits.Sub64(math.Float64bits(s)-1, 0x3FEFFFFFFFFFFFFF, 0)
			k += int(acc)
		}
		r.state = s0
		for i, s := range sb[:len(blk)] {
			blk[i] *= math.Sqrt(-2 * log01(s) / s)
		}
	}
}

// log01 is math.Log for a normal x in (0, 1), bit for bit on amd64: the
// operation sequence of math.log and of the amd64 archLog, with the special
// cases gone and the √2/2 reduction made branch-free. x = f1·2^k with f1 in
// [½, 1); when f1 is below √2/2, f1 doubles and k drops by one, done here by
// moving the borrow into the exponent field. Every rounded product is an
// explicit float64 conversion so that no compiler may fuse it into a
// multiply-add, and so is each square of normals' s.
//
// The identity with math.Log, and so normals' with NormFloat64, holds on
// amd64 only, where neither archLog nor the compiler fuses. Go's arm64
// backend fuses a multiply followed by an add today: math.Log there is the
// pure-Go log, whose polynomial compiles to FMADDD, and NormFloat64's
// u*u + v*v to one FMADDD, while log01 and normals round every product. On
// arm64 the gen oracles would therefore fail and NormFloat64's bytes differ
// from normals'; no CI job runs there.
func log01(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01 /* 3fe62e42 fee00000 */
		ln2Lo = 1.90821492927058770002e-10 /* 3dea39ef 35793c76 */
		l1    = 6.666666666666735130e-01   /* 3FE55555 55555593 */
		l2    = 3.999999999940941908e-01   /* 3FD99999 9997FA04 */
		l3    = 2.857142874366239149e-01   /* 3FD24924 94229359 */
		l4    = 2.222219843214978396e-01   /* 3FCC71C5 1D8E78AF */
		l5    = 1.818357216161805012e-01   /* 3FC74664 96CB03DE */
		l6    = 1.531383769920937332e-01   /* 3FC39A09 D078C69F */
		l7    = 1.479819860511658591e-01   /* 3FC2F112 DF3E5244 */
		mant  = 1<<52 - 1
		// sqrt2h is the mantissa field of √2/2 = 0x3FE6A09E667F3BCD.
		sqrt2h = 0x6A09E667F3BCD
	)
	xb := math.Float64bits(x)
	_, lo := bits.Sub64(xb&mant, sqrt2h, 0)
	f := math.Float64frombits(xb&mant|(0x3FE+lo)<<52) - 1
	k := float64(int64(xb>>52) - 0x3FE - int64(lo))

	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	R := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+R)) + float64(k*ln2Lo))) - f)
}

// Perm fills a permutation of [0, n) deterministically.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split derives an independent generator from r; the derived stream is a
// pure function of r's current state, so splitting is itself deterministic.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64(), r.Uint64()|1)
}

// Package workloads defines the sixteen benchmarks of the paper's Tab. 1 —
// eight SpecAccel and two DOE FastForward HPC applications plus six deep
// learning training workloads — as synthetic memory-content models.
//
// The paper intercepts cudaMalloc/free on real runs and takes ten memory
// dumps per benchmark (§3.1). Those dumps are unavailable, so each benchmark
// here is a set of allocations ("regions") with a data-class generator, a
// footprint share, and a temporal-evolution rule. Generators synthesize real
// bytes that are then compressed with the real BPC codec, so compression
// ratios, sector histograms, spatial heat-maps and buddy-overflow statistics
// all emerge from actual data rather than being asserted.
//
// Calibration targets taken from the paper:
//   - Fig. 3 optimistic ratios: GMEAN 2.51 (HPC) / 1.85 (DL); 355.seismic
//     starts mostly-zero and asymptotes to ~2x; 354.cg and 370.bt are
//     nearly incompressible; 352.ep and VGG16 have large zero regions.
//   - Fig. 6 spatial patterns: HPC homogeneous, FF_HPGMG striped (arrays of
//     heterogeneous structs), DL salt-and-pepper mixed.
//   - Fig. 8: DL per-entry compressibility churns while aggregate stays
//     constant (framework memory pools reuse regions for many purposes).
package workloads

import (
	"fmt"
	"slices"

	"buddy/internal/gen"
	"buddy/internal/memory"
	"buddy/internal/par"
	"buddy/internal/trace"
)

// Suite labels a benchmark's suite for per-suite aggregation (GMEAN_HPC vs
// GMEAN_DL in the paper's figures).
type Suite int

// Suite values.
const (
	HPC Suite = iota
	DL
)

// String implements fmt.Stringer.
func (s Suite) String() string {
	if s == DL {
		return "DL"
	}
	return "HPC"
}

// Snapshots is the number of memory dumps per benchmark run (§3.1: "divide
// the entire runtime of the workload into 10 regions").
const Snapshots = 10

// DefaultScale shrinks the Tab. 1 footprints for synthesis: statistics are
// per-entry ratios and scale-free; the scale only controls sample counts.
const DefaultScale = 1024

// Region is one cudaMalloc-style allocation inside a benchmark.
type Region struct {
	// Name of the allocation.
	Name string
	// Frac is the share of the benchmark footprint this region occupies.
	Frac float64
	// Gen returns the data generator for snapshot t (0..Snapshots-1),
	// letting a Dynamic region's contents evolve over the run (e.g.
	// 355.seismic's fill-in). A region that is not Dynamic must return the
	// same generator for every t: its bytes are synthesized once per run.
	Gen func(t int) gen.Generator
	// Dynamic regions are re-synthesized with a snapshot-dependent seed:
	// per-entry contents churn between snapshots while the distribution
	// stays fixed (DL framework pool reuse, §3.1 "frequent compressibility
	// changes for individual memory entries").
	Dynamic bool
}

// Benchmark is one row of Tab. 1 plus the access-behaviour spec that drives
// the performance simulator.
type Benchmark struct {
	// Name as printed in the paper (e.g. "351.palm").
	Name string
	// Suite is HPC or DL.
	Suite Suite
	// Footprint is the true allocated size from Tab. 1, in bytes.
	Footprint int64
	// Regions describe the allocations; Frac values sum to 1.
	Regions []Region
	// Trace characterizes the benchmark's memory access behaviour.
	Trace trace.Spec
}

func static(g gen.Generator) func(int) gen.Generator {
	return func(int) gen.Generator { return g }
}

const (
	gb = 1 << 30
	mb = 1 << 20
)

// gbytes and mbytes convert the fractional Tab. 1 footprints to bytes.
func gbytes(x float64) int64 { return int64(x * gb) }
func mbytes(x float64) int64 { return int64(x * mb) }

// Table1 returns the sixteen benchmarks of the paper's Tab. 1.
func Table1() []Benchmark {
	return []Benchmark{
		palm(), ep(), cg(), seismic(), sp(), csp(), ilbdc(), bt(),
		hpgmg(), lulesh(),
		biglstm(), alexnet(), inception(), squeezenet(), vgg16(), resnet50(),
	}
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, error) {
	for _, b := range Table1() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// ---------------------------------------------------------------------------
// HPC: SpecAccel
// ---------------------------------------------------------------------------

// 351.palm: large-eddy simulation (weather). Homogeneous FP64 fields of
// moderate compressibility with some spectral scratch that does not
// compress. Its performance sensitivity comes from poor metadata locality
// (Fig. 5b), captured in the trace spec.
func palm() Benchmark {
	return Benchmark{
		Name: "351.palm", Suite: HPC, Footprint: gbytes(2.89),
		Regions: []Region{
			{Name: "velocity_u", Frac: 0.18, Gen: static(gen.Noisy64{NoiseBits: 8, HiStep: 1})},
			{Name: "velocity_v", Frac: 0.18, Gen: static(gen.Noisy64{NoiseBits: 8, HiStep: 1})},
			{Name: "velocity_w", Frac: 0.18, Gen: static(gen.Noisy64{NoiseBits: 8, HiStep: 1})},
			{Name: "scalars", Frac: 0.16, Gen: static(gen.Noisy32{NoiseBits: 4, SmoothStep: 2})},
			{Name: "topography", Frac: 0.10, Gen: static(gen.Ramp{Start: 64, Step: 8})},
			{Name: "fft_scratch", Frac: 0.08, Gen: static(gen.Random{})},
			{Name: "halo_buffers", Frac: 0.12, Gen: static(gen.Zeros{})},
		},
		Trace: trace.Spec{
			Name: "351.palm", MemRatio: 0.10, SectorsPerAccess: 4, Streaming: false,
			WorkingSetFrac: 0.9, WriteFrac: 0.3, ComputeIntensity: 6, Locality: 0.10, PageRun: 0.25, Occupancy: 0.25,
		},
	}
}

// 352.ep: embarrassingly parallel random-number statistics; most of the
// footprint is result tables that stay near zero — the benchmark class the
// zero-page (16x) optimization targets (§3.4).
func ep() Benchmark {
	return Benchmark{
		Name: "352.ep", Suite: HPC, Footprint: gbytes(2.75),
		Regions: []Region{
			{Name: "result_tables", Frac: 0.50, Gen: static(gen.Zeros{})},
			{Name: "rng_state", Frac: 0.20, Gen: static(gen.Noisy32{NoiseBits: 8, SmoothStep: 1})},
			{Name: "accumulators", Frac: 0.30, Gen: static(gen.Blend{
				A:  gen.Noisy32{NoiseBits: 12, SmoothStep: 1}, // sporadic 2-sector entries
				B:  gen.Noisy32{NoiseBits: 2, SmoothStep: 5},
				PA: 0.03,
			})},
		},
		Trace: trace.Spec{
			Name: "352.ep", MemRatio: 0.105, SectorsPerAccess: 4, Streaming: true,
			WorkingSetFrac: 0.8, WriteFrac: 0.4, ComputeIntensity: 14, Locality: 0.3,
		},
	}
}

// 354.cg: conjugate gradient on sparse matrices; values are effectively
// incompressible and index arrays only mildly compressible. Without
// per-allocation targets the paper could not compress it at all; with them
// it reaches ~1.1x (§3.4). Its scattered single-sector accesses make
// bandwidth-only compression hurt (§4.2).
func cg() Benchmark {
	return Benchmark{
		Name: "354.cg", Suite: HPC, Footprint: gbytes(1.23),
		Regions: []Region{
			{Name: "matrix_values", Frac: 0.55, Gen: static(gen.Random{})},
			{Name: "col_indices", Frac: 0.25, Gen: static(gen.Noisy32{NoiseBits: 19, SmoothStep: 4})},
			{Name: "vectors", Frac: 0.20, Gen: static(gen.Noisy64{NoiseBits: 21, HiStep: 1})},
		},
		Trace: trace.Spec{
			Name: "354.cg", MemRatio: 0.33, SectorsPerAccess: 1, Streaming: false,
			WorkingSetFrac: 0.85, WriteFrac: 0.1, ComputeIntensity: 3, Locality: 0.30, PageRun: 0.85,
		},
	}
}

// 355.seismic: wave propagation. Wavefields start zeroed and progressively
// fill with signal: the paper's extreme example of compressibility change
// over time, asymptoting to ~2x (§3.1).
func seismic() Benchmark {
	wavefield := func(t int) gen.Generator {
		zeroFrac := 0.92 - 0.092*float64(t)*10.0/float64(Snapshots-1)
		if zeroFrac < 0 {
			zeroFrac = 0
		}
		dense := gen.Blend{
			A:  gen.Noisy64{NoiseBits: 16, HiStep: 1}, // occasional 3-sector entries
			B:  gen.Noisy64{NoiseBits: 10, HiStep: 1},
			PA: 0.015,
		}
		return gen.Blend{A: gen.Zeros{}, B: dense, PA: zeroFrac}
	}
	return Benchmark{
		Name: "355.seismic", Suite: HPC, Footprint: gbytes(2.83),
		Regions: []Region{
			{Name: "wavefield_p", Frac: 0.35, Gen: wavefield, Dynamic: true},
			{Name: "wavefield_s", Frac: 0.35, Gen: wavefield, Dynamic: true},
			{Name: "velocity_model", Frac: 0.20, Gen: static(gen.Noisy64{NoiseBits: 9, HiStep: 1})},
			{Name: "source_terms", Frac: 0.10, Gen: static(gen.Noisy32{NoiseBits: 6, SmoothStep: 2})},
		},
		Trace: trace.Spec{
			Name: "355.seismic", MemRatio: 0.105, SectorsPerAccess: 4, Streaming: false,
			WorkingSetFrac: 1.0, WriteFrac: 0.35, ComputeIntensity: 4, Locality: 0.08, PageRun: 0.25, Occupancy: 0.35,
		},
	}
}

// 356.sp: scalar penta-diagonal solver on a structured grid; smooth FP64
// fields, highly homogeneous (Fig. 6).
func sp() Benchmark {
	return Benchmark{
		Name: "356.sp", Suite: HPC, Footprint: gbytes(2.83),
		Regions: []Region{
			{Name: "grid_fields", Frac: 0.60, Gen: static(gen.Noisy32{NoiseBits: 4, SmoothStep: 1})},
			{Name: "rhs", Frac: 0.25, Gen: static(gen.Noisy64{NoiseBits: 10, HiStep: 1})},
			{Name: "coefficients", Frac: 0.15, Gen: static(gen.Noisy32{NoiseBits: 2, SmoothStep: 3})},
		},
		Trace: trace.Spec{
			Name: "356.sp", MemRatio: 0.12, SectorsPerAccess: 4, Streaming: true,
			WorkingSetFrac: 1.0, WriteFrac: 0.3, ComputeIntensity: 5, Locality: 0.2,
		},
	}
}

// 357.csp: like 356.sp with a slightly noisier field mix.
func csp() Benchmark {
	return Benchmark{
		Name: "357.csp", Suite: HPC, Footprint: gbytes(1.44),
		Regions: []Region{
			{Name: "grid_fields", Frac: 0.55, Gen: static(gen.Noisy32{NoiseBits: 4, SmoothStep: 3})},
			{Name: "rhs", Frac: 0.30, Gen: static(gen.Noisy64{NoiseBits: 11, HiStep: 1})},
			{Name: "coefficients", Frac: 0.15, Gen: static(gen.Noisy32{NoiseBits: 4, SmoothStep: 2})},
		},
		Trace: trace.Spec{
			Name: "357.csp", MemRatio: 0.12, SectorsPerAccess: 4, Streaming: true,
			WorkingSetFrac: 1.0, WriteFrac: 0.3, ComputeIntensity: 5, Locality: 0.2,
		},
	}
}

// 360.ilbdc: lattice-Boltzmann flow with indirect addressing; distribution
// functions compress ~2x but the access pattern is random single-sector,
// which makes bandwidth compression counter-productive (§4.2).
func ilbdc() Benchmark {
	return Benchmark{
		Name: "360.ilbdc", Suite: HPC, Footprint: gbytes(1.94),
		Regions: []Region{
			{Name: "pdf_arrays", Frac: 0.80, Gen: static(gen.Noisy64{NoiseBits: 10, HiStep: 1})},
			{Name: "adjacency", Frac: 0.10, Gen: static(gen.Noisy32{NoiseBits: 18, SmoothStep: 8})},
			{Name: "geometry_mask", Frac: 0.10, Gen: static(gen.Zeros{})},
		},
		Trace: trace.Spec{
			Name: "360.ilbdc", MemRatio: 0.25, SectorsPerAccess: 1, Streaming: false,
			WorkingSetFrac: 0.95, WriteFrac: 0.45, ComputeIntensity: 2, Locality: 0.25, PageRun: 0.90,
		},
	}
}

// 370.bt: block-tridiagonal solver; tiny footprint (1.21 MB in Tab. 1) and
// mostly incompressible blocks — compressed only ~1.3x even with
// per-allocation targets (§3.4).
func bt() Benchmark {
	return Benchmark{
		Name: "370.bt", Suite: HPC, Footprint: mbytes(1.21),
		Regions: []Region{
			{Name: "block_matrices", Frac: 0.60, Gen: static(gen.Random{})},
			{Name: "grid", Frac: 0.40, Gen: static(gen.Noisy64{NoiseBits: 8, HiStep: 1})},
		},
		Trace: trace.Spec{
			Name: "370.bt", MemRatio: 0.12, SectorsPerAccess: 4, Streaming: true,
			WorkingSetFrac: 1.0, WriteFrac: 0.3, ComputeIntensity: 6, Locality: 0.4,
		},
	}
}

// ---------------------------------------------------------------------------
// HPC: DOE FastForward
// ---------------------------------------------------------------------------

// FF_HPGMG: geometric multigrid with arrays of heterogeneous structs,
// producing the striped compressibility of Fig. 6. Capturing its best ratio
// needs a Buddy Threshold above 80% (§3.4), so the final design deliberately
// leaves most of it uncompressed. It also natively copies from host memory
// (§4.2), making it link-bandwidth sensitive even without compression.
func hpgmg() Benchmark {
	striped := gen.Stripe{
		A:             gen.Ramp{Start: 1 << 20, Step: 16},
		B:             gen.Random{},
		PeriodEntries: 8,
		AEntries:      4,
	}
	return Benchmark{
		Name: "FF_HPGMG", Suite: HPC, Footprint: gbytes(2.32),
		Regions: []Region{
			{Name: "level_structs", Frac: 0.75, Gen: static(striped)},
			{Name: "boundary", Frac: 0.10, Gen: static(gen.Zeros{})},
			{Name: "restriction_tmp", Frac: 0.15, Gen: static(gen.Noisy64{NoiseBits: 8, HiStep: 1})},
		},
		Trace: trace.Spec{
			Name: "FF_HPGMG", MemRatio: 0.115, SectorsPerAccess: 4, Streaming: true,
			WorkingSetFrac: 0.9, WriteFrac: 0.3, HostFrac: 0.10, ComputeIntensity: 5, Locality: 0.25,
		},
	}
}

// FF_Lulesh: Lagrangian shock hydrodynamics; smooth mesh fields with an
// indirection layer. Latency-sensitive: the decompression latency on the
// critical path visibly hurts it under bandwidth compression (§4.2).
func lulesh() Benchmark {
	return Benchmark{
		Name: "FF_Lulesh", Suite: HPC, Footprint: gbytes(1.59),
		Regions: []Region{
			{Name: "node_coords", Frac: 0.45, Gen: static(gen.Noisy64{NoiseBits: 6, HiStep: 1})},
			{Name: "element_fields", Frac: 0.35, Gen: static(gen.Noisy32{NoiseBits: 4, SmoothStep: 1})},
			{Name: "connectivity", Frac: 0.20, Gen: static(gen.Noisy32{NoiseBits: 16, SmoothStep: 6})},
		},
		Trace: trace.Spec{
			Name: "FF_Lulesh", MemRatio: 0.15, SectorsPerAccess: 4, Streaming: true,
			WorkingSetFrac: 1.0, WriteFrac: 0.3, ComputeIntensity: 3, Locality: 0.55, Occupancy: 0.5,
		},
	}
}

// ---------------------------------------------------------------------------
// DL training workloads (Caffe/ImageNet in the paper)
// ---------------------------------------------------------------------------

// dlActivations models DL activation/feature-map pools as observed at
// 128 B granularity: a zeroFrac share of entries is entirely zero (inactive
// channels, pool padding, framework-pool slack) while the dense remainder
// mixes effectively-half-precision values (16 quantized mantissa bits, two
// sectors compressed) with full-precision values (8 quantized bits, three
// sectors). This yields the salt-and-pepper heat-maps of Fig. 6 and DL's
// characteristic entry-level churn (Fig. 8) when marked Dynamic.
func dlActivations(zeroFrac float64) func(int) gen.Generator {
	dense := gen.Blend{
		A:  gen.Weights32{Sigma: 1, QuantBits: 16},
		B:  gen.Weights32{Sigma: 1},
		PA: 0.5,
	}
	return static(gen.Blend{A: gen.Zeros{}, B: dense, PA: zeroFrac})
}

// BigLSTM: 2-layer, 8192-wide LSTM with 1024-d projections (§4.1).
// Recurrent weight matrices dominate; gradients and Adam state are noisy.
func biglstm() Benchmark {
	return Benchmark{
		Name: "BigLSTM", Suite: DL, Footprint: gbytes(2.71),
		Regions: []Region{
			{Name: "embedding", Frac: 0.30, Gen: static(gen.Weights32{Sigma: 0.05, QuantBits: 16})},
			{Name: "lstm_weights", Frac: 0.30, Gen: static(gen.Weights32{Sigma: 0.05, QuantBits: 8})},
			{Name: "activations", Frac: 0.25, Gen: dlActivations(0.5), Dynamic: true},
			{Name: "optimizer_state", Frac: 0.15, Gen: static(gen.Random{})},
		},
		Trace: trace.Spec{
			Name: "BigLSTM", MemRatio: 0.145, SectorsPerAccess: 4, Streaming: true,
			WorkingSetFrac: 0.9, WriteFrac: 0.35, ComputeIntensity: 4, Locality: 0.3,
		},
	}
}

// AlexNet: three large fully-connected layers dominate the footprint; the
// compressibility mix is scattered (Fig. 6), giving the highest DL
// buddy-access rate (~5.4% of accesses, §4.2).
func alexnet() Benchmark {
	return Benchmark{
		Name: "AlexNet", Suite: DL, Footprint: gbytes(8.85),
		Regions: []Region{
			{Name: "fc_weights", Frac: 0.35, Gen: static(gen.Weights32{Sigma: 0.01, QuantBits: 12})},
			{Name: "conv_weights", Frac: 0.10, Gen: static(gen.Weights32{Sigma: 0.02, QuantBits: 8})},
			{Name: "activations", Frac: 0.30, Gen: dlActivations(0.45), Dynamic: true},
			{Name: "gradients", Frac: 0.15, Gen: static(gen.Weights32{Sigma: 0.001, QuantBits: 8}), Dynamic: true},
			{Name: "workspace", Frac: 0.10, Gen: static(gen.Blend{A: gen.Zeros{}, B: gen.Random{}, PA: 0.5}), Dynamic: true},
		},
		Trace: trace.Spec{
			Name: "AlexNet", MemRatio: 0.145, SectorsPerAccess: 4, Streaming: true,
			WorkingSetFrac: 0.95, WriteFrac: 0.35, ComputeIntensity: 5, Locality: 0.3,
		},
	}
}

// Inception v2: mostly convolutional; batch-norm keeps activations dense
// but small-valued.
func inception() Benchmark {
	return Benchmark{
		Name: "Inception_V2", Suite: DL, Footprint: gbytes(3.21),
		Regions: []Region{
			{Name: "conv_weights", Frac: 0.25, Gen: static(gen.Weights32{Sigma: 0.03, QuantBits: 12})},
			{Name: "activations", Frac: 0.45, Gen: dlActivations(0.5), Dynamic: true},
			{Name: "gradients", Frac: 0.20, Gen: static(gen.Weights32{Sigma: 0.005, QuantBits: 8}), Dynamic: true},
			{Name: "workspace", Frac: 0.10, Gen: static(gen.Blend{A: gen.Zeros{}, B: gen.Random{}, PA: 0.6}), Dynamic: true},
		},
		Trace: trace.Spec{
			Name: "Inception_V2", MemRatio: 0.145, SectorsPerAccess: 4, Streaming: true,
			WorkingSetFrac: 0.95, WriteFrac: 0.35, ComputeIntensity: 5, Locality: 0.3,
		},
	}
}

// SqueezeNet v1.1: activation-dominated; the paper's Fig. 8 uses it to show
// per-entry churn with a constant aggregate ratio (1.49x in their final
// design).
func squeezenet() Benchmark {
	return Benchmark{
		Name: "SqueezeNet", Suite: DL, Footprint: gbytes(2.03),
		Regions: []Region{
			{Name: "weights", Frac: 0.15, Gen: static(gen.Weights32{Sigma: 0.05})},
			{Name: "activations", Frac: 0.55, Gen: dlActivations(0.4), Dynamic: true},
			{Name: "gradients", Frac: 0.20, Gen: static(gen.Weights32{Sigma: 0.01, QuantBits: 8}), Dynamic: true},
			{Name: "pool_scratch", Frac: 0.10, Gen: static(gen.Random{}), Dynamic: true},
		},
		Trace: trace.Spec{
			Name: "SqueezeNet", MemRatio: 0.145, SectorsPerAccess: 4, Streaming: true,
			WorkingSetFrac: 0.9, WriteFrac: 0.35, ComputeIntensity: 5, Locality: 0.3,
		},
	}
}

// VGG16: enormous fully-connected weights plus large zero-padded buffers —
// the DL workload where the zero-page optimization pays off most (§3.4).
func vgg16() Benchmark {
	return Benchmark{
		Name: "VGG16", Suite: DL, Footprint: gbytes(11.08),
		Regions: []Region{
			{Name: "fc_weights", Frac: 0.30, Gen: static(gen.Weights32{Sigma: 0.01, QuantBits: 12})},
			{Name: "conv_weights", Frac: 0.10, Gen: static(gen.Weights32{Sigma: 0.02, QuantBits: 12})},
			{Name: "activations", Frac: 0.30, Gen: dlActivations(0.55), Dynamic: true},
			{Name: "zero_buffers", Frac: 0.20, Gen: static(gen.Zeros{})},
			{Name: "gradients", Frac: 0.10, Gen: static(gen.Weights32{Sigma: 0.002, QuantBits: 12}), Dynamic: true},
		},
		Trace: trace.Spec{
			Name: "VGG16", MemRatio: 0.145, SectorsPerAccess: 4, Streaming: true,
			WorkingSetFrac: 0.95, WriteFrac: 0.35, ComputeIntensity: 6, Locality: 0.3,
		},
	}
}

// ResNet50: mixed compressibility (Fig. 6); Fig. 8's second subject with a
// constant aggregate ratio (1.64x) under heavy per-entry churn.
func resnet50() Benchmark {
	return Benchmark{
		Name: "ResNet50", Suite: DL, Footprint: gbytes(4.50),
		Regions: []Region{
			{Name: "conv_weights", Frac: 0.25, Gen: static(gen.Weights32{Sigma: 0.03, QuantBits: 12})},
			{Name: "activations", Frac: 0.40, Gen: dlActivations(0.5), Dynamic: true},
			{Name: "gradients", Frac: 0.20, Gen: static(gen.Weights32{Sigma: 0.004, QuantBits: 8}), Dynamic: true},
			{Name: "bn_stats", Frac: 0.05, Gen: static(gen.Noisy32{NoiseBits: 8, SmoothStep: 0})},
			{Name: "workspace", Frac: 0.10, Gen: static(gen.Blend{A: gen.Zeros{}, B: gen.Random{}, PA: 0.4}), Dynamic: true},
		},
		Trace: trace.Spec{
			Name: "ResNet50", MemRatio: 0.145, SectorsPerAccess: 4, Streaming: true,
			WorkingSetFrac: 0.95, WriteFrac: 0.35, ComputeIntensity: 5, Locality: 0.3,
		},
	}
}

// ---------------------------------------------------------------------------
// Snapshot synthesis
// ---------------------------------------------------------------------------

// seedFor derives a stable per-benchmark/region seed.
func seedFor(bench, region string) uint64 {
	// FNV-1a.
	h := uint64(14695981039346656037)
	for _, s := range []string{bench, "/", region} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return h
}

// GenerateSnapshot synthesizes memory dump t (0..Snapshots-1) of benchmark
// b at 1/scale of its true footprint. Static regions hold identical bytes
// across snapshots (stable weights and grids); Dynamic regions reshuffle
// per snapshot. It is a pure function, safe for concurrent use: every call
// returns freshly generated bytes the caller owns.
func GenerateSnapshot(b Benchmark, t int, scale int) *memory.Snapshot {
	snap, fills := layout(b, t, scale, nil, nil)
	fillAll(fills)
	return snap
}

// GenerateRun synthesizes all ten snapshots of benchmark b, bytewise equal
// to GenerateSnapshot(b, t, scale) for every t, and is safe for concurrent
// use. A non-Dynamic region is synthesized once and the same
// *memory.Allocation appears in all ten snapshots, so the run's snapshots
// are read-only: a write to one static allocation's Data would show in
// every dump. (analysis.BuildRun recognizes the shared allocation and
// classifies it once.)
func GenerateRun(b Benchmark, scale int) []*memory.Snapshot {
	out := make([]*memory.Snapshot, Snapshots)
	var fills []fill
	for t := range out {
		out[t], fills = layout(b, t, scale, out[0], fills) // out[0] is nil while t == 0
	}
	fillAll(fills)
	return out
}

// fill is one region's synthesis: its generator writes a's bytes from the
// region's own seed, so no fill depends on another's RNG stream.
type fill struct {
	a    *memory.Allocation
	g    gen.Generator
	seed uint64
}

// layout allocates dump t's regions and appends the fills that synthesize
// them to fills; where static is non-nil (dump 0 of the same run), a
// non-Dynamic region j takes static's allocation j instead of being filled
// with the same bytes again.
func layout(b Benchmark, t, scale int, static *memory.Snapshot, fills []fill) (*memory.Snapshot, []fill) {
	if scale <= 0 {
		scale = DefaultScale
	}
	snap := &memory.Snapshot{Index: t}
	total := b.Footprint / int64(scale)
	if total < 64*memory.PageBytes {
		total = 64 * memory.PageBytes
	}
	for j, r := range b.Regions {
		if static != nil && !r.Dynamic {
			snap.Allocations = append(snap.Allocations, static.Allocations[j])
			continue
		}
		size := int(float64(total) * r.Frac)
		if size < 2*memory.PageBytes {
			size = 2 * memory.PageBytes
		}
		a := memory.NewAllocation(r.Name, size)
		seed := seedFor(b.Name, r.Name)
		if r.Dynamic {
			seed += uint64(t) * 0x9E3779B97F4A7C15
		}
		fills = append(fills, fill{a: a, g: r.Gen(t), seed: seed})
		snap.Allocations = append(snap.Allocations, a)
	}
	return snap, fills
}

// fillJob is fillAll's fan-out: piece i is fill i.
type fillJob []fill

func (f fillJob) Do(i int) { f[i].g.Fill(f[i].a.Data, gen.NewRNG(f[i].seed, 7)) }

// fillAll runs fills largest-first through par.Run, so a fill starts on a
// core only while no other job occupies it: concurrent callers (the profile
// benchmark workload runs two) add no helpers on cores they already fill,
// and a caller left alone takes over the cores the others free. Since every
// fill draws from its own RNG, the bytes are the same at any width and
// interleaving.
func fillAll(fills []fill) {
	slices.SortStableFunc(fills, func(x, y fill) int { return len(y.a.Data) - len(x.a.Data) })
	par.Run(len(fills), fillJob(fills))
}

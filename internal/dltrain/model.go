package dltrain

// The analytical footprint and throughput model of the case study's Titan
// Xp-class GPU (12 GB device memory, §4.4), trained in FP32 with
// SGD+momentum as in Caffe.
const (
	// bytesPerValue is the training precision (FP32).
	bytesPerValue = 4
	// optimizerCopies counts persistent per-parameter tensors: weights,
	// gradients, and momentum.
	optimizerCopies = 3
	// ActivationCopies scales per-sample activations: forward tensors plus
	// backward gradients.
	ActivationCopies = 2
	// workspaceBytes is the framework/cuDNN workspace floor.
	workspaceBytes = 512 << 20
	// peakTFLOPs is the GPU's sustained math throughput.
	peakTFLOPs = 10
	// memBWGBs is the device bandwidth.
	memBWGBs = 548
	// utilHalfBatch is the mini-batch size at which the GPU reaches half
	// of its peak utilization (the saturation knee of Fig. 13b).
	utilHalfBatch = 40
	// fixedOverheadMs is the per-iteration launch/framework overhead.
	fixedOverheadMs = 2
)

// DeviceMemoryBytes is the case study's GPU capacity (Titan Xp, 12 GB).
const DeviceMemoryBytes = int64(12) << 30

// Footprint returns the training memory footprint at the given mini-batch
// size (Fig. 13a): persistent parameter state plus batch-proportional
// activations plus workspace.
func Footprint(n *Network, batch int) int64 {
	params := n.TotalParams() * bytesPerValue * optimizerCopies
	acts := int64(float64(n.TotalActivationsPerSample()) * ActivationCopies *
		bytesPerValue * float64(batch))
	return params + acts + workspaceBytes
}

// MaxBatch returns the largest mini-batch whose footprint fits capacity.
func MaxBatch(n *Network, capacity int64) int {
	lo, hi := 0, 1<<20
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if Footprint(n, mid) <= capacity {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// IterationSeconds estimates one training iteration's duration at the given
// batch: compute time under a batch-dependent utilization curve (small
// batches underutilize the GPU), memory time for parameter+activation
// traffic, and fixed overhead — the Paleo/DeLTA-style model of §4.4.
func IterationSeconds(n *Network, batch int) float64 {
	flops := float64(n.TotalFLOPsPerSample()) * 3 * float64(batch) // fwd + 2x bwd
	util := float64(batch) / (float64(batch) + utilHalfBatch)
	compute := flops / (peakTFLOPs * 1e12 * util)

	bytes := float64(float64(n.TotalParams())*bytesPerValue*3) + // read W, write G, momentum
		float64(float64(float64(n.TotalActivationsPerSample())*ActivationCopies*
			bytesPerValue*float64(batch))*2)
	mem := bytes / (memBWGBs * 1e9)

	t := compute
	if mem > t {
		t = mem
	}
	return t + fixedOverheadMs/1e3
}

// Throughput returns training throughput in samples per second.
func Throughput(n *Network, batch int) float64 {
	return float64(batch) / IterationSeconds(n, batch)
}

// Fig13aPoint is one (batch, footprint) sample.
type Fig13aPoint struct {
	Batch     int
	Footprint int64
}

// Fig13a sweeps mini-batch sizes for one network up to the last size that
// fits the 12 GB device (Fig. 13a stops at the Titan Xp limit).
func Fig13a(n *Network) []Fig13aPoint {
	var out []Fig13aPoint
	for _, b := range []int{1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256} {
		out = append(out, Fig13aPoint{Batch: b, Footprint: Footprint(n, b)})
	}
	return out
}

// Fig13bPoint is one (batch, speedup) sample, normalized to batch=16 as the
// paper normalizes to a small baseline batch.
type Fig13bPoint struct {
	Batch   int
	Speedup float64
}

// Fig13b projects throughput speedup versus mini-batch size.
func Fig13b(n *Network) []Fig13bPoint {
	batches := []int{16, 32, 64, 128, 256}
	base := Throughput(n, batches[0])
	var out []Fig13bPoint
	for _, b := range batches {
		out = append(out, Fig13bPoint{Batch: b, Speedup: Throughput(n, b) / base})
	}
	return out
}

// Fig13cRow is the Buddy-Compression batch-scaling projection for one
// network: the largest batch on a 12 GB GPU, the largest batch with the
// network's Buddy compression ratio, and the throughput speedup.
type Fig13cRow struct {
	Name            string
	BaseBatch       int
	CompressedBatch int
	Speedup         float64
}

// Fig13c computes the paper's headline case-study result: Buddy Compression
// enables larger mini-batches worth an average ~14% throughput, with VGG16
// and BigLSTM around 30% and 28%.
func Fig13c() []Fig13cRow {
	var rows []Fig13cRow
	for _, n := range Networks() {
		base := MaxBatch(n, DeviceMemoryBytes)
		comp := MaxBatch(n, int64(float64(DeviceMemoryBytes)*n.CompressionRatio))
		base = clampBatch(base)
		comp = clampBatch(comp)
		sp := Throughput(n, comp) / Throughput(n, base)
		rows = append(rows, Fig13cRow{Name: n.Name, BaseBatch: base, CompressedBatch: comp, Speedup: sp})
	}
	return rows
}

// clampBatch rounds a batch down to the usual power-of-two-ish training
// sizes (frameworks run fixed batch shapes).
func clampBatch(b int) int {
	sizes := []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512}
	out := sizes[0]
	for _, s := range sizes {
		if s <= b {
			out = s
		}
	}
	return out
}

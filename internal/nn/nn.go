// Package nn is a small from-scratch neural-network trainer used to
// reproduce Fig. 13d's convergence study. The paper trains ResNet50 on
// CIFAR100 for 100 epochs at different mini-batch sizes and shows that very
// small batches (16, 32) converge to lower validation accuracy with more
// jitter — largely a batch-normalization effect — while 64+ reach maximum
// accuracy. Training ResNet50 is outside a CPU-only reproduction's budget,
// so we train an MLP with batch normalization on a synthetic CIFAR-like
// classification task: the mechanism under test (gradient and BN-statistic
// noise growing as batch size shrinks) is the same.
package nn

import (
	"math"

	"buddy/internal/gen"
)

// Dataset is a labelled classification set.
type Dataset struct {
	// X holds len(Y) rows of Dim features.
	X [][]float32
	// Y holds class labels.
	Y []int
	// Dim and Classes describe the shapes.
	Dim, Classes int
}

// SyntheticTask generates a CIFAR-like task: classes are Gaussian clusters
// with heavy overlap plus label noise, so accuracy saturates below 100% and
// optimization quality matters. taskSeed fixes the class centers (shared by
// train and validation splits); sampleSeed draws the samples; noise is the
// within-class spread that sets the task's difficulty.
func SyntheticTask(samples, dim, classes int, taskSeed, sampleSeed uint64, noise float32) *Dataset {
	cr := gen.NewRNG(taskSeed, 11)
	centers := make([][]float32, classes)
	for c := range centers {
		centers[c] = make([]float32, dim)
		for d := range centers[c] {
			centers[c][d] = float32(cr.NormFloat64()) * 1.0
		}
	}
	r := gen.NewRNG(sampleSeed, 13)
	ds := &Dataset{Dim: dim, Classes: classes}
	for i := 0; i < samples; i++ {
		c := r.Intn(classes)
		x := make([]float32, dim)
		for d := range x {
			x[d] = centers[c][d] + float32(r.NormFloat64())*noise
		}
		label := c
		if r.Float64() < 0.05 { // label noise
			label = r.Intn(classes)
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, label)
	}
	return ds
}

// MLP is a two-layer perceptron with batch normalization after the hidden
// layer: input -> dense -> batchnorm -> ReLU -> dense -> softmax.
type MLP struct {
	in, hidden, classes int

	w1, w2 []float32 // weights
	b1, b2 []float32 // biases
	gamma  []float32 // BN scale
	beta   []float32 // BN shift
	// Running statistics for inference-mode BN.
	runMean, runVar []float32

	rng *gen.RNG
}

// NewMLP initializes the model with He-style random weights.
func NewMLP(in, hidden, classes int, seed uint64) *MLP {
	m := &MLP{
		in: in, hidden: hidden, classes: classes,
		w1: make([]float32, in*hidden), b1: make([]float32, hidden),
		w2: make([]float32, hidden*classes), b2: make([]float32, classes),
		gamma: make([]float32, hidden), beta: make([]float32, hidden),
		runMean: make([]float32, hidden), runVar: make([]float32, hidden),
		rng: gen.NewRNG(seed, 21),
	}
	s1 := float32(math.Sqrt(2.0 / float64(in)))
	for i := range m.w1 {
		m.w1[i] = float32(m.rng.NormFloat64()) * s1
	}
	s2 := float32(math.Sqrt(2.0 / float64(hidden)))
	for i := range m.w2 {
		m.w2[i] = float32(m.rng.NormFloat64()) * s2
	}
	for i := range m.gamma {
		m.gamma[i] = 1
		m.runVar[i] = 1
	}
	return m
}

const bnEps = 1e-5
const bnMomentum = 0.9

// TrainEpoch runs one epoch of mini-batch SGD with the given batch size and
// learning rate, returning mean training loss. Batch normalization uses the
// batch's own statistics — the noise source that hurts small batches.
func (m *MLP) TrainEpoch(ds *Dataset, batch int, lr float32) float64 {
	n := len(ds.X)
	perm := m.rng.Perm(n)
	var totalLoss float64
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		idx := perm[start:end]
		totalLoss += m.trainBatch(ds, idx, lr) * float64(len(idx))
	}
	return totalLoss / float64(n)
}

func (m *MLP) trainBatch(ds *Dataset, idx []int, lr float32) float64 {
	b := len(idx)
	h := m.hidden
	// Forward: dense1.
	z1 := make([]float32, b*h)
	for i, s := range idx {
		x := ds.X[s]
		for j := 0; j < h; j++ {
			sum := m.b1[j]
			wrow := m.w1[j*m.in : (j+1)*m.in]
			for d, xv := range x {
				sum += wrow[d] * xv
			}
			z1[i*h+j] = sum
		}
	}
	// Batch norm (batch statistics).
	mean := make([]float32, h)
	varr := make([]float32, h)
	for j := 0; j < h; j++ {
		var mu float32
		for i := 0; i < b; i++ {
			mu += z1[i*h+j]
		}
		mu /= float32(b)
		var v float32
		for i := 0; i < b; i++ {
			d := z1[i*h+j] - mu
			v += d * d
		}
		v /= float32(b)
		mean[j], varr[j] = mu, v
		m.runMean[j] = bnMomentum*m.runMean[j] + (1-bnMomentum)*mu
		m.runVar[j] = bnMomentum*m.runVar[j] + (1-bnMomentum)*v
	}
	xhat := make([]float32, b*h)
	a1 := make([]float32, b*h) // post-ReLU
	relu := make([]bool, b*h)
	for j := 0; j < h; j++ {
		inv := float32(1 / math.Sqrt(float64(varr[j])+bnEps))
		for i := 0; i < b; i++ {
			xh := (z1[i*h+j] - mean[j]) * inv
			xhat[i*h+j] = xh
			y := m.gamma[j]*xh + m.beta[j]
			if y > 0 {
				a1[i*h+j] = y
				relu[i*h+j] = true
			}
		}
	}
	// Forward: dense2 + softmax loss.
	c := m.classes
	probs := make([]float32, b*c)
	var loss float64
	for i := 0; i < b; i++ {
		row := probs[i*c : (i+1)*c]
		maxv := float32(math.Inf(-1))
		for k := 0; k < c; k++ {
			sum := m.b2[k]
			wrow := m.w2[k*h : (k+1)*h]
			for j := 0; j < h; j++ {
				sum += wrow[j] * a1[i*h+j]
			}
			row[k] = sum
			if sum > maxv {
				maxv = sum
			}
		}
		var z float32
		for k := 0; k < c; k++ {
			row[k] = float32(math.Exp(float64(row[k] - maxv)))
			z += row[k]
		}
		for k := 0; k < c; k++ {
			row[k] /= z
		}
		loss += -math.Log(float64(row[ds.Y[idx[i]]] + 1e-12))
	}
	// Backward.
	dz2 := make([]float32, b*c)
	for i := 0; i < b; i++ {
		for k := 0; k < c; k++ {
			d := probs[i*c+k]
			if k == ds.Y[idx[i]] {
				d -= 1
			}
			dz2[i*c+k] = d / float32(b)
		}
	}
	da1 := make([]float32, b*h)
	for k := 0; k < c; k++ {
		wrow := m.w2[k*h : (k+1)*h]
		var db float32
		for i := 0; i < b; i++ {
			g := dz2[i*c+k]
			db += g
			for j := 0; j < h; j++ {
				da1[i*h+j] += wrow[j] * g
			}
		}
		for j := 0; j < h; j++ {
			var dw float32
			for i := 0; i < b; i++ {
				dw += dz2[i*c+k] * a1[i*h+j]
			}
			wrow[j] -= lr * dw
		}
		m.b2[k] -= lr * db
	}
	// Through ReLU and batch norm.
	dxhat := make([]float32, b*h)
	for j := 0; j < h; j++ {
		var dgamma, dbeta float32
		for i := 0; i < b; i++ {
			g := da1[i*h+j]
			if !relu[i*h+j] {
				g = 0
			}
			dgamma += g * xhat[i*h+j]
			dbeta += g
			dxhat[i*h+j] = g * m.gamma[j]
		}
		inv := float32(1 / math.Sqrt(float64(varr[j])+bnEps))
		var sumDx, sumDxX float32
		for i := 0; i < b; i++ {
			sumDx += dxhat[i*h+j]
			sumDxX += dxhat[i*h+j] * xhat[i*h+j]
		}
		for i := 0; i < b; i++ {
			dz := inv / float32(b) * (float32(b)*dxhat[i*h+j] - sumDx - xhat[i*h+j]*sumDxX)
			// dense1 gradient applied per (i, j) with the input row.
			x := ds.X[idx[i]]
			wrow := m.w1[j*m.in : (j+1)*m.in]
			for d, xv := range x {
				wrow[d] -= lr * dz * xv
			}
			m.b1[j] -= lr * dz
		}
		m.gamma[j] -= lr * dgamma
		m.beta[j] -= lr * dbeta
	}
	return loss / float64(b)
}

// Accuracy evaluates classification accuracy with inference-mode BN
// (running statistics).
func (m *MLP) Accuracy(ds *Dataset) float64 {
	correct := 0
	h := m.hidden
	for i, x := range ds.X {
		a1 := make([]float32, h)
		for j := 0; j < h; j++ {
			sum := m.b1[j]
			wrow := m.w1[j*m.in : (j+1)*m.in]
			for d, xv := range x {
				sum += wrow[d] * xv
			}
			inv := float32(1 / math.Sqrt(float64(m.runVar[j])+bnEps))
			y := m.gamma[j]*(sum-m.runMean[j])*inv + m.beta[j]
			if y > 0 {
				a1[j] = y
			}
		}
		best, bestv := 0, float32(math.Inf(-1))
		for k := 0; k < m.classes; k++ {
			sum := m.b2[k]
			wrow := m.w2[k*h : (k+1)*h]
			for j := 0; j < h; j++ {
				sum += wrow[j] * a1[j]
			}
			if sum > bestv {
				best, bestv = k, sum
			}
		}
		if best == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(ds.X))
}

// ConvergenceCurve trains a fresh model for epochs at the given batch size
// and returns per-epoch validation accuracy — one line of Fig. 13d. The
// learning-rate protocol is tuned for the batch-64 reference and scales up
// (capped at 2x) for larger batches, the common practice; small mini-batches
// then sit at a higher gradient/BN-statistics noise floor, which is the
// paper's observed under-convergence mechanism.
func ConvergenceCurve(train, val *Dataset, batch, epochs int, seed uint64) []float64 {
	m := NewMLP(train.Dim, 48, train.Classes, seed)
	baseLR := float32(0.09)
	lr := baseLR
	if batch > 64 {
		lr = baseLR * float32(batch) / 64
		if lr > 2*baseLR {
			lr = 2 * baseLR
		}
	}
	var acc []float64
	for e := 0; e < epochs; e++ {
		if e == epochs*3/4 { // step decay
			lr /= 5
		}
		m.TrainEpoch(train, batch, lr)
		acc = append(acc, m.Accuracy(val))
	}
	return acc
}

// Package stats provides the small statistical helpers used throughout the
// Buddy Compression reproduction: geometric means for compression-ratio
// aggregation, Pearson correlation for the simulator-validation study
// (Fig. 10), percentiles, and quantiles of the serving layer's log-bucket
// latency histograms.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregations that require at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs. It returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GMean returns the geometric mean of xs. All inputs must be positive;
// non-positive values make the result NaN, mirroring the mathematical
// definition. The paper reports GMEAN_HPC and GMEAN_DL compression ratios
// with this aggregation.
func GMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns an error when the slices differ in length or hold fewer than
// two samples. A zero-variance input yields NaN.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. The input is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0], nil
	}
	if p >= 100 {
		return cp[len(cp)-1], nil
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo], nil
	}
	frac := float64(rank) - float64(lo)
	return float64(cp[lo]*(1-frac)) + float64(cp[hi]*frac), nil
}

// LogQuantile returns the q-quantile (0 <= q <= 1) of a sample summarized
// by power-of-two log buckets: counts[b] holds the number of samples x
// with bits.Len64(x) == b — bucket 0 is exactly x == 0, bucket b >= 1
// covers [2^(b-1), 2^b). The estimate interpolates linearly within the
// selected bucket's range, so adjacent quantiles of a smooth distribution
// do not all snap to bucket boundaries. Returns 0 for an empty histogram.
//
// This is the read side of the serving layer's fixed-bucket latency
// histograms: recording is a single atomic increment on the hot path, and
// percentile math happens here, on snapshots.
func LogQuantile(counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the (fractional) number of samples at or below the result.
	rank := q * float64(total)
	var cum float64
	for b, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank > next {
			cum = next
			continue
		}
		if b == 0 {
			return 0
		}
		lo := math.Exp2(float64(b - 1))
		hi := math.Exp2(float64(b))
		frac := (float64(rank) - cum) / float64(c)
		return lo + float64(frac*(hi-lo))
	}
	// Fell off the end (rank == total with trailing zero buckets).
	for b := len(counts) - 1; b >= 0; b-- {
		if counts[b] != 0 {
			if b == 0 {
				return 0
			}
			return math.Exp2(float64(b))
		}
	}
	return 0
}

package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanGMean(t *testing.T) {
	if Mean(nil) != 0 || GMean(nil) != 0 {
		t.Error("empty inputs should return 0")
	}
	if !almostEq(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Error("mean broken")
	}
	if !almostEq(GMean([]float64{1, 4}), 2, 1e-12) {
		t.Error("gmean broken")
	}
	// GMean <= Mean (AM-GM) for positive inputs.
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		return GMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEq(Variance(xs), 4, 1e-12) {
		t.Errorf("variance = %f, want 4", Variance(xs))
	}
	if !almostEq(StdDev(xs), 2, 1e-12) {
		t.Errorf("stddev = %f, want 2", StdDev(xs))
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if r, err := Pearson(xs, []float64{2, 4, 6, 8}); err != nil || !almostEq(r, 1, 1e-12) {
		t.Errorf("perfect correlation: r=%f err=%v", r, err)
	}
	if r, _ := Pearson(xs, []float64{8, 6, 4, 2}); !almostEq(r, -1, 1e-12) {
		t.Errorf("perfect anticorrelation: r=%f", r)
	}
	if _, err := Pearson(xs, xs[:2]); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("single sample should error")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	for p, want := range map[float64]float64{0: 1, 50: 3, 100: 5, 25: 2} {
		if got, err := Percentile(xs, p); err != nil || !almostEq(got, want, 1e-12) {
			t.Errorf("P%.0f = %f, want %f (err %v)", p, got, want, err)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty percentile should error")
	}
}

func TestLogQuantile(t *testing.T) {
	if got := LogQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %f, want 0", got)
	}
	// All mass in bucket 0 (samples exactly 0).
	if got := LogQuantile([]uint64{7}, 0.99); got != 0 {
		t.Errorf("zero bucket = %f, want 0", got)
	}
	// One sample with bits.Len64(x)==3, i.e. x in [4, 8): every quantile
	// interpolates within that bucket's range.
	counts := []uint64{0, 0, 0, 1}
	for _, q := range []float64{0.01, 0.5, 1} {
		if got := LogQuantile(counts, q); got < 4 || got > 8 {
			t.Errorf("q=%.2f = %f, want within [4, 8]", q, got)
		}
	}
	// 10 samples in [4,8), 10 in [8,16): the median sits at the bucket
	// boundary and q=0.75 lands mid-way through the upper bucket.
	counts = []uint64{0, 0, 0, 10, 10}
	if got := LogQuantile(counts, 0.5); !almostEq(got, 8, 1e-9) {
		t.Errorf("median = %f, want 8", got)
	}
	if got := LogQuantile(counts, 0.75); !almostEq(got, 12, 1e-9) {
		t.Errorf("q75 = %f, want 12", got)
	}
	// Quantiles are monotone in q, and out-of-range q clamps.
	prev := 0.0
	for _, q := range []float64{-1, 0, 0.25, 0.5, 0.75, 1, 2} {
		got := LogQuantile(counts, q)
		if got < prev {
			t.Errorf("q=%.2f = %f not monotone (prev %f)", q, got, prev)
		}
		prev = got
	}
	// Trailing empty buckets: q=1 reports the top non-empty bucket's upper
	// edge, not a phantom tail.
	if got := LogQuantile([]uint64{0, 0, 3, 0, 0}, 1); !almostEq(got, 4, 1e-9) {
		t.Errorf("q1 with trailing zeros = %f, want 4", got)
	}
}

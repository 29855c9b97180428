package main

import (
	"encoding/binary"
	"math/bits"
	"runtime"
	"slices"
	"time"

	"buddy/internal/stats"
)

// epoch anchors every timestamp the benchmark takes: spans and latencies
// are monotonic nanoseconds since process start.
var epoch = time.Now()

// now returns monotonic nanoseconds since epoch (one vDSO clock read).
func now() int64 { return int64(time.Since(epoch)) }

// median returns the median of xs; an empty slice (the one error
// Percentile has) reads 0.
func median(xs []float64) float64 {
	v, _ := stats.Percentile(xs, 50)
	return v
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method) — the rule
// the driver applies to the benchmark's run-to-run spread, so
// -check-agreement judges the same quantity.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v, v
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// quantileSorted reads the q-quantile of an ascending sample by nearest
// rank.
func quantileSorted(s []int64, q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// sample is one pass's named measurements (nanoseconds, counts, ratios).
type sample map[string]float64

// medianSample reduces repeated passes key by key to their medians.
func medianSample(reps []sample) sample {
	out := sample{}
	if len(reps) == 0 {
		return out
	}
	for k := range reps[0] {
		xs := make([]float64, 0, len(reps))
		for _, r := range reps {
			xs = append(xs, r[k])
		}
		out[k] = median(xs)
	}
	return out
}

// per divides guarding the empty denominator a toy-scale pass can produce.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapInuse forces a collection and reads the Go heap's in-use span bytes —
// the host-side footprint axis (HeapInuse counts whole spans, so it moves
// with real retention, not with allocation churn).
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC() // second cycle frees what the first one's sync.Pool victim cache kept
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// mallocCount reads the cumulative heap-object allocation count.
func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// calibrate times a fixed memmove + popcount kernel (1 MiB copied and
// counted 32 times) and returns the best of five in nanoseconds. It is
// logged, never compared: it lets a reader tell a slower host from a slower
// program when two headers disagree.
func calibrate() float64 {
	src := make([]byte, 1<<20)
	dst := make([]byte, 1<<20)
	for i := range src {
		src[i] = byte(i * 131)
	}
	best := int64(0)
	sink := 0
	for rep := 0; rep < 5; rep++ {
		t0 := now()
		for k := 0; k < 32; k++ {
			copy(dst, src)
			for i := 0; i+8 <= len(dst); i += 8 {
				sink += bits.OnesCount64(binary.LittleEndian.Uint64(dst[i:]))
			}
			src[k] ^= byte(sink)
		}
		if d := now() - t0; best == 0 || d < best {
			best = d
		}
	}
	return float64(best)
}

package main

import (
	"math"
	"testing"
)

// TestCheckFlags: a Buddy Threshold outside [0, 1] (NaN too) and a
// footprint divisor below 1 are usage errors; the bounds themselves are not.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		threshold float64
		scale     int
		ok        bool
	}{
		{0, 1, true},
		{0.3, 1024, true},
		{1, 16384, true},
		{-0.1, 1024, false},
		{1.5, 1024, false},
		{math.NaN(), 1024, false},
		{0.3, 0, false},
		{0.3, -5, false},
	} {
		if err := checkFlags(tc.threshold, tc.scale); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%v, %d) = %v, want ok %v", tc.threshold, tc.scale, err, tc.ok)
		}
	}
}

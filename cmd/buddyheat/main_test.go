package main

import (
	"testing"

	"buddy/internal/workloads"
)

// TestCheckFlags: a dump outside the run's ten and a footprint divisor
// below 1 are usage errors; the run's first and last dumps are not.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		snapshot, scale int
		ok              bool
	}{
		{0, 1, true},
		{5, 4096, true},
		{workloads.Snapshots - 1, workloads.DefaultScale, true},
		{workloads.Snapshots, 4096, false},
		{42, 4096, false},
		{-1, 4096, false},
		{5, 0, false},
		{5, -5, false},
	} {
		if err := checkFlags(tc.snapshot, tc.scale); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%d, %d) = %v, want ok %v", tc.snapshot, tc.scale, err, tc.ok)
		}
	}
}

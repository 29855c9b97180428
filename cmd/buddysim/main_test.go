package main

import "testing"

// TestCheckFlags: a negative footprint divisor is a usage error; 0 (the
// preset's divisor) and any positive override are not.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		scale int
		ok    bool
	}{
		{0, true},
		{1, true},
		{16384, true},
		{-1, false},
		{-5, false},
	} {
		if err := checkFlags(tc.scale); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%d) = %v, want ok %v", tc.scale, err, tc.ok)
		}
	}
}

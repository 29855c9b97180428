//go:build !amd64

package compress

import "testing"

func bpcKernels() []string { return []string{"butterfly"} }

// selectKernel reports whether kernel is the BPC kernel set that runs here.
func selectKernel(tb testing.TB, kernel string) bool { return kernel == "butterfly" }

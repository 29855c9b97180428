//go:build !amd64

package compress

import "testing"

func transposeKernels() []string { return []string{"butterfly"} }

// selectTranspose reports whether kernel is the one transpose32 runs here.
func selectTranspose(tb testing.TB, kernel string) bool { return kernel == "butterfly" }

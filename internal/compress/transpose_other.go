//go:build !amd64

package compress

// transpose32 transposes the 32x32 bit matrix in w in place (see
// transposeButterfly for the layout).
//
//buddy:hotpath
func transpose32(w *[entryWordCount]uint64) {
	transposeButterfly(w)
}

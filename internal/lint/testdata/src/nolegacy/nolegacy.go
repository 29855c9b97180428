// Package nolegacy is the fixture for references to the retired surface
// from outside the compress package.
package nolegacy

import (
	renamed "compress"
)

// Renaming the import does not dodge the type-aware check.
var _ renamed.Compressor // want `reference to the retired compress\.Compressor interface`

// The supported surface through the same renamed import is clean.
var _ renamed.Codec

// The alias that outlived the interface is retired too: declaring it again
// is flagged.
func WithCompressor() int { return 0 } // want `the retired WithCompressor alias reappeared`

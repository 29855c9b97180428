// Package analysis is a hermetic, stdlib-only mirror of the
// golang.org/x/tools/go/analysis API surface buddylint needs: an Analyzer
// with a Run function over a type-checked Pass, reporting Diagnostics.
//
// The real module cannot be a dependency here — the build environment is
// offline and the module proxy unreachable — so the subset is vendored as
// this package instead of pinned in go.mod. The field and method names
// match x/tools exactly; if the dependency ever becomes available, each
// analyzer ports by swapping this import path for
// golang.org/x/tools/go/analysis and deleting the in-tree loader.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis function: a named invariant checked
// over a single type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //nolint:buddy/<name> suppression comments. It must be a valid Go
	// identifier.
	Name string

	// Doc is the analyzer's documentation: one summary line, a blank
	// line, then the invariant it enforces and what a violation looks
	// like.
	Doc string

	// Run applies the analyzer to a package. It returns an
	// analyzer-specific result (unused by buddylint's analyzers, kept
	// for API fidelity) or an error that aborts the whole run.
	Run func(*Pass) (interface{}, error)
}

// A Pass provides one analyzer with the parsed, type-checked view of one
// package plus the Report sink for its diagnostics.
type Pass struct {
	// Analyzer is the analyzer being applied.
	Analyzer *Analyzer

	// Fset maps token positions to file locations for every file of the
	// package and its source-loaded dependencies.
	Fset *token.FileSet

	// Files are the package's syntax trees, parsed with comments.
	Files []*ast.File

	// Pkg is the package's type information.
	Pkg *types.Package

	// TypesInfo holds the type, object and selection facts for the
	// package's syntax.
	TypesInfo *types.Info

	// TypeErrors holds the package's type errors when the loader ran in
	// error-tolerant mode (fixture loading); empty for the real tree,
	// where type errors abort the run before analyzers execute.
	TypeErrors []types.Error

	// Report delivers one diagnostic. The driver installs the sink.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one reported finding, tied to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Package lint is buddylint's analyzer suite: the repo's correctness
// invariants — retired API surface, the Device lock hierarchy, the
// allocation-free hot path, sentinel-error discipline and allocation
// lifecycle — expressed as go/analysis-style analyzers instead of grep
// rules and review convention. cmd/buddylint runs every analyzer in
// Analyzers over the module; see DESIGN.md "Invariants as analyzers".
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"buddy/internal/lint/analysis"
)

// legacyMethods is the retired allocate-per-call Compressor surface: the
// methods deleted when the single-pass Codec replaced it.
var legacyMethods = map[string]bool{
	"CompressedBits": true,
	"Compress":       true,
	"Decompress":     true,
}

// NoLegacy bans the retired compress.Compressor surface, type-aware where
// the old grep gate was textual: renamed imports of the compress package
// cannot dodge the Compressor-reference check, and re-declaring the
// legacy method set inside the compress package is flagged at the
// declaration.
var NoLegacy = &analysis.Analyzer{
	Name: "nolegacy",
	Doc: `ban the retired Compressor surface of internal/compress

The allocate-per-call Compressor interface (CompressedBits/Compress/
Decompress) was deleted in favor of the single-pass, allocation-free
Codec (AppendCompressed/DecompressInto), and the WithCompressor option
alias that outlived it by a few releases is gone too. nolegacy flags any
reference to Compressor through an import of the compress package
(however the import is renamed), any re-declaration of the legacy method
set or a Compressor interface inside the compress package, and any
function declared under the name WithCompressor.`,
	Run: runNoLegacy,
}

// isCompressPackage reports whether path names the compression package the
// analyzer guards: the real one, or a fixture package mimicking it.
func isCompressPackage(path string) bool {
	return path == "compress" || strings.HasSuffix(path, "/compress")
}

func runNoLegacy(pass *analysis.Pass) (interface{}, error) {
	inCompress := isCompressPackage(pass.Pkg.Path())
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// compress.Compressor through any import name. The object
				// behind the selector no longer exists, so resolve the
				// qualifier instead: a PkgName for the compress package.
				if n.Sel.Name != "Compressor" {
					return true
				}
				id, ok := n.X.(*ast.Ident)
				if !ok {
					return true
				}
				if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && isCompressPackage(pn.Imported().Path()) {
					pass.Reportf(n.Pos(), "reference to the retired %s.Compressor interface (use %s.Codec: AppendCompressed/DecompressInto)",
						pn.Imported().Name(), pn.Imported().Name())
				}
			case *ast.FuncDecl:
				// Re-declaring the legacy method set inside the compress
				// package, or the option alias anywhere, grows the deleted
				// surface back.
				if inCompress && n.Recv != nil && legacyMethods[n.Name.Name] {
					pass.Reportf(n.Pos(), "method %s re-declares the deleted legacy Compressor surface (use Codec: AppendCompressed/DecompressInto)", n.Name.Name)
				}
				if n.Recv == nil && n.Name.Name == "WithCompressor" {
					pass.Reportf(n.Pos(), "the retired WithCompressor alias reappeared (use WithCodec)")
				}
			case *ast.TypeSpec:
				if inCompress && n.Name.Name == "Compressor" {
					if _, ok := n.Type.(*ast.InterfaceType); ok {
						pass.Reportf(n.Pos(), "the retired Compressor interface reappeared (use Codec)")
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// inTestFile reports whether filename is a Go test file.
func inTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}

// posFile returns the file name of pos under pass's FileSet.
func posFile(pass *analysis.Pass, pos token.Pos) string {
	return pass.Fset.Position(pos).Filename
}

// Package lint is a small, self-contained static-analysis framework in
// the style of golang.org/x/tools/go/analysis, built only on the standard
// library so the repo's custom vet checks need no module dependencies.
// It loads packages through `go list -export` (source-parses the module's
// own packages, resolves their imports from the build cache's export
// data), runs Analyzers over the typed syntax, and filters diagnostics
// through //lint:allow suppression comments.
//
// The analyzers themselves live in the subpackages lockscope and ctxflow;
// cmd/cfpqlint is the multichecker that runs them both. See the "Static
// analysis" section of the repository README for what each one enforces
// and how to suppress a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant check. Run inspects a single package
// through the Pass and reports findings via Pass.Reportf; returning an
// error aborts the whole lint run (reserved for analyzer bugs, not
// findings).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in suppression
	// comments (`//lint:allow cfpqlint/<name>`).
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run analyzes one package.
	Run func(*Pass) error
}

// Pass carries one package's typed syntax to an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test source files, parsed with
	// comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo maps expressions and identifiers to their types and
	// objects.
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned for file:line:col rendering.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional compiler format, so CI
// annotations and editors can link straight to the finding.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (cfpqlint/%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// TypeName returns the named type's name behind t, dereferencing one
// pointer level; "" when t is not (a pointer to) a named type. Analyzers
// match guarded structs by bare name so testdata fixtures can declare
// their own stand-ins.
func TypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

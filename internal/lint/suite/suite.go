// Package suite registers the repo's analyzers in one place, shared by
// the cmd/cfpqlint multichecker and the self-check test that keeps the
// tree clean under plain `go test ./...`.
package suite

import (
	"slices"
	"strings"

	"cfpq/internal/lint"
	"cfpq/internal/lint/ctxflow"
	"cfpq/internal/lint/lockscope"
)

// All returns every analyzer, in diagnostic-stable order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		ctxflow.Analyzer,
		lockscope.Analyzer,
	}
}

// ByName resolves a comma-separated analyzer list; an empty spec means
// all of them.
func ByName(spec string) ([]*lint.Analyzer, error) {
	if spec == "" {
		return All(), nil
	}
	all := All()
	var out []*lint.Analyzer
	for _, name := range strings.Split(spec, ",") {
		if name == "" {
			continue
		}
		i := slices.IndexFunc(all, func(a *lint.Analyzer) bool { return a.Name == name })
		if i < 0 {
			return nil, &UnknownAnalyzerError{Name: name}
		}
		out = append(out, all[i])
	}
	return out, nil
}

// UnknownAnalyzerError names an analyzer that does not exist.
type UnknownAnalyzerError struct{ Name string }

func (e *UnknownAnalyzerError) Error() string {
	names := make([]string, 0, len(All()))
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return "unknown analyzer " + e.Name + " (have: " + strings.Join(names, ", ") + ")"
}

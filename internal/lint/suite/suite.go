// Package suite registers the repo's analyzers in one place, shared by
// the cmd/cfpqlint multichecker and the self-check test that keeps the
// tree clean under plain `go test ./...`.
package suite

import (
	"cfpq/internal/lint"
	"cfpq/internal/lint/ctxflow"
	"cfpq/internal/lint/lockscope"
	"cfpq/internal/lint/tracealloc"
	"cfpq/internal/lint/walorder"
)

// All returns every analyzer, in diagnostic-stable order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		ctxflow.Analyzer,
		lockscope.Analyzer,
		tracealloc.Analyzer,
		walorder.Analyzer,
	}
}

// ByName resolves a comma-separated analyzer list; an empty spec means
// all of them.
func ByName(spec string) ([]*lint.Analyzer, error) {
	if spec == "" {
		return All(), nil
	}
	byName := make(map[string]*lint.Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range splitComma(spec) {
		a, ok := byName[name]
		if !ok {
			return nil, &UnknownAnalyzerError{Name: name}
		}
		out = append(out, a)
	}
	return out, nil
}

// UnknownAnalyzerError names an analyzer that does not exist.
type UnknownAnalyzerError struct{ Name string }

func (e *UnknownAnalyzerError) Error() string {
	return "unknown analyzer " + e.Name + " (have: ctxflow, lockscope, tracealloc, walorder)"
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
